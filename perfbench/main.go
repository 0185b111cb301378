// Command perfbench is the repository's benchmark: it drives seeded SQL
// workloads through the engine's public API in a closed loop with one
// session, checks every statement against an independent reference, and
// prints end-to-end metrics (or, with --trace 1, per-layer metrics from
// a separate traced replay). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload scan-heavy --repeat 10   # steadiness
//	bash perfbench/run.sh --selftest
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	filterjoin "filterjoin"
	"filterjoin/internal/datagen"
	"filterjoin/internal/opt"
	"filterjoin/internal/storage"
)

func main() {
	var (
		name     = flag.String("workload", "serve-hot", "workload: serve-hot, plan-miss, scan-heavy, write-mix, or all to run each in turn")
		seed     = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 replays the stream traced and prints per-layer metrics")
		repeat   = flag.Int("repeat", 0, "steadiness mode: run the workload this many times with seeds seed, seed+1, ... and print each end-to-end metric's quartiles")
		selftest = flag.Bool("selftest", false, "run every workload briefly, check reference parity and the metric set, and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *selftest:
		err = runSelftest()
	case *seconds <= 0:
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	case *name == "all":
		for _, w := range workloads {
			if err = runAndPrint(w, *seed, *seconds, *trace == 1); err != nil {
				break
			}
		}
	case workloadByName(*name) == nil:
		err = fmt.Errorf("unknown workload %q", *name)
	case *repeat > 0:
		err = runSteadiness(workloadByName(*name), *seed, *repeat, *seconds)
	default:
		err = runAndPrint(workloadByName(*name), *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runAndPrint(w *workload, seed int64, seconds float64, traced bool) error {
	r, err := runOnce(w, seed, seconds, 0, traced)
	if err != nil {
		return err
	}
	return r.print(os.Stdout)
}

// report is one run's outcome.
type report struct {
	workload  string
	seed      int64
	correct   bool
	attempted int
	failed    int
	metrics   []reading // in declaration order
	notes     []string
}

type reading struct {
	metric
	v float64
}

func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload=%s seed=%d attempted=%d failed=%d correct=%t\n",
		r.workload, r.seed, r.attempted, r.failed, r.correct)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, m.v, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]map[string]any{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = map[string]any{"value": m.v, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// env is one set-up engine ready to serve a workload.
type env struct {
	w         *workload
	db        *filterjoin.DB
	sess      *filterjoin.Session
	stmts     []*filterjoin.Stmt
	emp, dept *storage.Table
}

const (
	viewBody = `SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did`
	remote   = 1 // site of RemAvgSal
)

// fixedSeed generates the Fig 1 data of every run; the workload seed
// draws the measured stream (literals, template order, inserted rows).
// Fixed data and edge-literal warm-ups (see warmAll) give every run the
// same cached plans: a cached plan is optimized for the literals that
// first reach its entry, so seed-drawn warm-ups would let whole runs
// flip between plans.
const fixedSeed = 42

// setup builds the engine, loads the generated Fig 1 data, runs the
// view DDL, prepares the workload's statements and runs one warm-up op
// per template. A non-nil tracer is installed before anything is
// planned, so plans (and the Filter Join's deferred planning inside
// them) report to it.
func setup(w *workload, tracer opt.Tracer) (*env, error) {
	cat, err := datagen.Fig1Catalog(datagen.Fig1Params{
		NEmp: w.nEmp, NDept: w.nDept, YoungFrac: 0.2, BigFrac: 0.1, Clustered: true, Seed: fixedSeed,
	})
	if err != nil {
		return nil, err
	}
	e := &env{w: w, db: filterjoin.Open(filterjoin.Config{})}
	if tracer != nil {
		e.db.Optimizer().Tracer = tracer
	}
	emp, err := cat.Get("Emp")
	if err != nil {
		return nil, err
	}
	dept, err := cat.Get("Dept")
	if err != nil {
		return nil, err
	}
	e.emp, e.dept = emp.Table, dept.Table
	e.db.RegisterTable(e.emp)
	e.db.RegisterTable(e.dept)
	if err := e.db.ExecScript("CREATE VIEW DepAvgSal AS (" + viewBody + ")"); err != nil {
		return nil, err
	}
	if w.remoteView {
		if err := e.db.RegisterRemoteView("RemAvgSal", viewBody, remote); err != nil {
			return nil, err
		}
	}
	e.sess = e.db.NewSession()
	for _, text := range w.prepared {
		st, err := e.sess.Prepare(text)
		if err != nil {
			return nil, err
		}
		e.stmts = append(e.stmts, st)
	}
	for _, o := range w.warmup(newGen(w, fixedSeed, e.dept)) {
		if _, err := e.exec(&o); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", o.text, err)
		}
	}
	return e, nil
}

// exec runs one op through the public API the way a client would.
func (e *env) exec(o *op) (*filterjoin.Result, error) {
	switch o.kind {
	case opPrepared:
		return e.stmts[o.stmt].Exec(o.args...)
	case opInsert:
		return e.sess.Exec(o.text)
	default:
		return e.sess.Query(o.text)
	}
}

// setupRuns is how many times a run sets up, for the median setup_s.
const setupRuns = 9

// setupTimed sets up setupRuns times and returns the last env with the
// median set-up time.
func setupTimed(w *workload) (*env, float64, error) {
	var times []float64
	var e *env
	for k := 0; k < setupRuns; k++ {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(w, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// untracedStep is the measured client call.
func (e *env) untracedStep(o *op) *filterjoin.Result {
	t0 := time.Now()
	res, err := e.exec(o)
	o.lat = time.Since(t0).Seconds()
	o.failed = err != nil
	return res
}

// runOnce measures w for seconds (or maxOps ops when maxOps > 0),
// untraced or traced.
func runOnce(w *workload, seed int64, seconds float64, maxOps int, traced bool) (*report, error) {
	if traced {
		return runTraced(w, seed, seconds, maxOps)
	}
	e, setupS, err := setupTimed(w)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6
	ls, err := newRunner(e, seed, e.untracedStep)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := ls.run(seconds2dur(seconds), maxOps); err != nil {
		return nil, err
	}
	n, failed := ls.ops, ls.failed
	lats := ls.latencies()
	r := &report{workload: w.name, seed: seed, correct: failed == 0, attempted: n, failed: failed}
	vals := map[string]float64{
		"setup_s":           setupS,
		"qps":               ls.qps(),
		"latency_p50_ms":    quantile(lats, 0.50) * 1e3,
		"latency_p90_ms":    quantile(lats, 0.90) * 1e3,
		"alloc_mb_per_op":   float64(ls.bytes) / 1e6 / float64(n),
		"allocs_per_op":     float64(ls.mallocs) / float64(n),
		"cost_units_per_op": ls.costUnits / float64(max(ls.selects, 1)),
		"heap_live_mb":      heapMB,
	}
	r.metrics = pick(endToEnd, vals)
	r.notes = append(r.notes,
		fmt.Sprintf("latency_p99_ms %.4f over %d ops (%d above it; not gated)", quantile(lats, 0.99)*1e3, n, n-int(0.99*float64(n))),
		fmt.Sprintf("fail_ratio %.6f (%d of %d ops)", float64(failed)/float64(max(n, 1)), failed, n),
		fmt.Sprintf("gc cycles %d, pause %.2f ms", ls.gcs, float64(ls.pauseNs)/1e6))
	return r, nil
}

func seconds2dur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// quantile reads the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
