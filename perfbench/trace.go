package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	filterjoin "filterjoin"
	"filterjoin/internal/cost"
	"filterjoin/internal/opt"
	"filterjoin/internal/sql"
	"filterjoin/internal/stats"
	"filterjoin/internal/value"
)

// The traced run replays the stream twice, on two fresh engines, in
// alternating slices: once untraced (the base for the tracing overhead,
// GC counts and write latency) and once with spans recorded around each
// public call and public counters read before and after. Nothing is
// added inside the engine: per-layer times come from timing the
// engine's own entry points (sql.Parse, sql.Normalize,
// sql.BindSelectArgs, a forked OptimizeBlock) as side calls on the
// statement just executed, and from the executor's per-operator profile
// in Result.Stats.

// countingTracer counts the optimizer events the per-layer metrics need.
type countingTracer struct{ builds, hits, deferred int64 }

func (t *countingTracer) Event(ev opt.TraceEvent) {
	switch ev.Kind {
	case opt.EvCosterBuild:
		t.builds++
	case opt.EvCosterHit:
		t.hits++
	case opt.EvLeaf:
		// The Filter Join's deferred planning (paper §4.2) optimizes the
		// view body joined with its run-time filter table __magic_N, so
		// each such leaf marks one optimization made during execution.
		if strings.HasPrefix(ev.Subset, "{__magic_") {
			t.deferred++
		}
	}
}

// spans accumulates the traced phase's per-layer times (seconds) and
// counts; per-op means divide by selects.
type spans struct {
	e    *env
	sels []*sql.SelectStmt // the prepared statements, parsed

	selects, inserts, insertRows int
	parse, normalize, bind       float64
	optimize, execRun, facade    float64
	fjSelf, rebuild, insert      float64
	kindSelf                     map[string]float64
	kindRows                     map[string]int64
	otherKinds                   map[string]bool
	cost                         cost.Counter
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// step runs one op with spans. The op's latency is the parse span plus
// the facade span, comparable with the untraced run's latency.
func (s *spans) step(o *op) *filterjoin.Result {
	var (
		sel           *sql.SelectStmt
		res           *filterjoin.Result
		err           error
		parse, facade float64
	)
	if o.kind == opPrepared {
		sel = s.sels[o.stmt]
		t0 := time.Now()
		res, err = s.e.stmts[o.stmt].Exec(o.args...)
		facade = since(t0)
	} else {
		t0 := time.Now()
		var st sql.Statement
		st, err = sql.Parse(o.text)
		parse = since(t0)
		if err == nil {
			t1 := time.Now()
			res, err = s.e.db.ExecParsed(st)
			facade = since(t1)
			sel, _ = st.(*sql.SelectStmt)
		}
	}
	o.lat = parse + facade
	o.failed = err != nil
	if err != nil {
		return nil
	}
	if o.kind == opInsert {
		s.inserts++
		s.insertRows += len(o.rows)
		s.insert += facade
		// The insert dropped Emp's statistics; the engine's next read
		// collects them again. Time that collection on the table
		// directly, so the engine's own cache is left cold.
		t0 := time.Now()
		stats.Collect(s.e.emp)
		s.rebuild += since(t0)
		return nil
	}
	s.selects++
	s.parse += parse
	s.facade += facade
	if err := s.sideCalls(sel, o, res.CacheState == "miss"); err != nil {
		o.failed = true
	}
	ops := res.Stats()
	if len(ops) > 0 {
		s.execRun += ops[0].Wall.Seconds()
	}
	for _, st := range ops {
		k := st.Label
		if k == "FilterJoin" {
			s.fjSelf += st.SelfWall().Seconds()
			continue
		}
		if !isExecKind(k) {
			s.otherKinds[k] = true
			k = "other"
		}
		s.kindSelf[k] += st.SelfWall().Seconds()
		s.kindRows[k] += st.Rows
	}
	s.cost.Add(res.Cost)
	return res
}

// sideCalls repeats the front end's and (on a cache miss) the
// optimizer's work for sel, timing each layer on its own.
func (s *spans) sideCalls(sel *sql.SelectStmt, o *op, miss bool) error {
	args := make([]value.Value, len(o.args))
	for i, a := range o.args {
		args[i] = value.NewInt(int64(a.(int)))
	}
	t0 := time.Now()
	norm := sel
	if !sql.HasParams(sel) {
		norm, args, _ = sql.Normalize(sel)
	}
	_ = sql.FormatSelect(norm)
	s.normalize += since(t0)

	t0 = time.Now()
	b, err := sql.BindSelectArgs(s.e.db.Catalog(), norm, args)
	s.bind += since(t0)
	if err != nil || !miss {
		return err
	}
	proto := s.e.db.Optimizer()
	f := proto.Fork()
	f.DegreeOfParallelism, f.BatchSize = proto.DegreeOfParallelism, proto.BatchSize
	t0 = time.Now()
	_, err = f.OptimizeBlock(b)
	s.optimize += since(t0)
	return err
}

func isExecKind(k string) bool {
	for _, x := range execKinds {
		if x == k {
			return true
		}
	}
	return false
}

// traceSlice is how long each runner of the traced run goes before the
// other takes over.
const traceSlice = 500 * time.Millisecond

// runTraced measures w's per-layer metrics over seconds (or maxOps ops
// per replay when maxOps > 0).
func runTraced(w *workload, seed int64, seconds float64, maxOps int) (*report, error) {
	base, err := setup(w, nil)
	if err != nil {
		return nil, err
	}
	tr := &countingTracer{}
	e, err := setup(w, tr)
	if err != nil {
		return nil, err
	}
	s := &spans{e: e, kindSelf: map[string]float64{}, kindRows: map[string]int64{}, otherKinds: map[string]bool{}}
	for _, text := range w.prepared {
		st, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		s.sels = append(s.sels, st.(*sql.SelectStmt))
	}
	// The untraced and the traced replay alternate in slices, so both
	// see the same machine and their throughputs compare.
	untraced, err := newRunner(base, seed, base.untracedStep)
	if err != nil {
		return nil, err
	}
	traced, err := newRunner(e, seed, s.step)
	if err != nil {
		return nil, err
	}
	cache0, opt0, tr0 := e.db.CacheStats(), e.db.Optimizer().Metrics, *tr
	runtime.GC()
	for start := time.Now(); time.Since(start) < seconds2dur(seconds); {
		if maxOps > 0 && untraced.ops >= maxOps && traced.ops >= maxOps {
			break
		}
		if err := untraced.run(traceSlice, maxOps); err != nil {
			return nil, err
		}
		if err := traced.run(traceSlice, maxOps); err != nil {
			return nil, err
		}
	}
	cache1, opt1 := e.db.CacheStats(), e.db.Optimizer().Metrics
	failed := untraced.failed + traced.failed
	sort.Float64s(untraced.writeLats)

	nBase, n := float64(untraced.ops), float64(traced.ops)
	sel := float64(max(s.selects, 1))
	perSel := func(sec float64) float64 { return sec * 1e6 / sel }
	ratio := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	hits, misses := float64(cache1.Hits-cache0.Hits), float64(cache1.Misses-cache0.Misses)
	builds, costerHits := float64(tr.builds-tr0.builds), float64(tr.hits-tr0.hits)
	layers := s.normalize + s.bind + s.optimize + s.execRun
	untracedQPS, tracedQPS := nBase/untraced.busy, n/traced.busy
	vals := map[string]float64{
		"sql.parse_us":                      perSel(s.parse),
		"sql.normalize_us":                  perSel(s.normalize),
		"sql.bind_us":                       perSel(s.bind),
		"plancache.hit_ratio":               ratio(hits, misses),
		"plancache.misses":                  1e3 * misses / n,
		"plancache.evictions":               1e3 * float64(cache1.Evictions-cache0.Evictions) / n,
		"plancache.clears":                  1e3 * float64(cache1.Clears-cache0.Clears) / n,
		"opt.optimize_us":                   perSel(s.optimize),
		"opt.plans_considered":              float64(opt1.PlansConsidered-opt0.PlansConsidered) / sel,
		"opt.subsets_explored":              float64(opt1.SubsetsExplored-opt0.SubsetsExplored) / sel,
		"opt.nested_optimizations":          float64(opt1.NestedOptimizations-opt0.NestedOptimizations) / sel,
		"core.coster_builds":                1e3 * builds / n,
		"core.coster_hit_ratio":             ratio(costerHits, builds),
		"core.filterjoin_self_us":           perSel(s.fjSelf),
		"core.runtime_nested_optimizations": float64(tr.deferred-tr0.deferred) / sel,
		"exec.run_us":                       perSel(s.execRun),
		"cost.page_reads":                   float64(s.cost.PageReads) / sel,
		"cost.page_writes":                  float64(s.cost.PageWrites) / sel,
		"cost.cpu_tuples":                   float64(s.cost.CPUTuples) / sel,
		"cost.net_bytes":                    float64(s.cost.NetBytes) / sel,
		"cost.net_msgs":                     float64(s.cost.NetMsgs) / sel,
		"cost.func_calls":                   float64(s.cost.FnCalls) / sel,
		"stats.rebuild_us":                  s.rebuild * 1e6 / float64(max(s.inserts, 1)),
		"storage.insert_us_per_row":         s.insert * 1e6 / float64(max(s.insertRows, 1)),
		"write_latency_p50_ms":              quantile(untraced.writeLats, 0.5) * 1e3,
		"engine.other_us":                   perSel(s.facade - layers),
		"runtime.gc_per_kop":                1e3 * float64(untraced.gcs) / nBase,
		"runtime.gc_pause_ms":               float64(untraced.pauseNs) / 1e6 * 1e3 / nBase,
		"trace.untraced_qps":                untracedQPS,
		"trace.traced_qps":                  tracedQPS,
		"trace.overhead_ratio":              untracedQPS / tracedQPS,
		"trace.coverage":                    layers / s.facade,
	}
	for _, k := range execKinds {
		vals["exec."+k+".self_us"] = perSel(s.kindSelf[k])
		vals["exec."+k+".rows"] = float64(s.kindRows[k]) / sel
	}
	r := &report{workload: w.name, seed: seed, correct: failed == 0,
		attempted: untraced.ops + traced.ops, failed: failed, metrics: pick(perLayer, vals)}
	r.notes = append(r.notes, fmt.Sprintf("untraced phase %d ops, traced phase %d ops (%d SELECT, %d INSERT)",
		untraced.ops, traced.ops, s.selects, s.inserts))
	var other []string
	for k := range s.otherKinds {
		other = append(other, k)
	}
	sort.Strings(other)
	r.notes = append(r.notes, "plan-node kinds under exec.other: "+strings.Join(other, ", "))
	return r, nil
}
