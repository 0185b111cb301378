package main

import (
	"runtime"
	"sort"
	"time"

	filterjoin "filterjoin"
)

// runner replays one env's stream closed-loop: each op is issued when
// the previous one has returned, and is checked against the reference
// outside the timed call. step makes the engine call and fills in o.lat
// and o.failed. run may be called repeatedly, so the traced run can
// interleave two runners.
//
// A runner's memory does not grow with the ops it runs, apart from
// latencies kept in large preallocated blocks: growing benchmark state
// would raise the live heap and slow the engine's GC cadence as a run
// goes on.
type runner struct {
	e       *env
	g       *gen
	ref     *reference
	step    func(*op) *filterjoin.Result
	pending []op // drawn, not yet run

	ops, failed, selects int
	busy                 float64     // seconds inside engine calls
	costUnits            float64     // DB.TotalCost summed over SELECTs
	lats                 [][]float32 // per-op seconds, in blocks of latBlock
	writeLats            []float64   // insert seconds
	winOps               int         // current qps window
	winBusy              float64
	rates                []float64 // closed windows' ops per second

	mallocs, bytes uint64
	gcs            uint32
	pauseNs        uint64
}

const (
	latBlock  = 1 << 17
	opChunk   = 256         // ops drawn at a time
	qpsWindow = time.Second // engine time per qps window
)

func newRunner(e *env, seed int64, step func(*op) *filterjoin.Result) (*runner, error) {
	ref, err := newReference(e.emp, e.dept)
	if err != nil {
		return nil, err
	}
	return &runner{e: e, g: newGen(e.w, seed, e.dept), ref: ref, step: step,
		lats: [][]float32{make([]float32, 0, latBlock)}}, nil
}

// run replays ops for d, or until maxOps ops in all when maxOps > 0.
// Memory and GC counters cover the call, less the allocations of
// drawing ops and of applying inserts to the reference.
func (r *runner) run(d time.Duration, maxOps int) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exclude := func(f func()) {
		var x0, x1 runtime.MemStats
		runtime.ReadMemStats(&x0)
		f()
		runtime.ReadMemStats(&x1)
		before.Mallocs += x1.Mallocs - x0.Mallocs
		before.TotalAlloc += x1.TotalAlloc - x0.TotalAlloc
	}
	var err error
	for start := time.Now(); time.Since(start) < d && (maxOps == 0 || r.ops < maxOps) && err == nil; {
		if len(r.pending) == 0 {
			exclude(func() { r.pending = r.g.take(opChunk) })
		}
		o := &r.pending[0]
		r.pending = r.pending[1:]
		res := r.step(o)
		r.record(o.lat)
		switch {
		case o.failed:
			r.failed++
		case o.kind == opInsert:
			exclude(func() {
				r.writeLats = append(r.writeLats, o.lat)
				err = r.ref.insert(o.rows)
			})
		case res == nil || hashRows(res.Rows) != r.ref.eval(&o.q):
			r.failed++
		}
		if res != nil && o.kind != opInsert {
			r.costUnits += r.e.db.TotalCost(res)
			r.selects++
		}
	}
	runtime.ReadMemStats(&after)
	r.mallocs += after.Mallocs - before.Mallocs
	r.bytes += after.TotalAlloc - before.TotalAlloc
	r.gcs += after.NumGC - before.NumGC
	r.pauseNs += after.PauseTotalNs - before.PauseTotalNs
	return err
}

func (r *runner) record(lat float64) {
	r.ops++
	r.busy += lat
	last := &r.lats[len(r.lats)-1]
	if len(*last) == latBlock {
		r.lats = append(r.lats, make([]float32, 0, latBlock))
		last = &r.lats[len(r.lats)-1]
	}
	*last = append(*last, float32(lat))
	r.winOps++
	r.winBusy += lat
	if r.winBusy >= qpsWindow.Seconds() {
		r.rates = append(r.rates, float64(r.winOps)/r.winBusy)
		r.winOps, r.winBusy = 0, 0
	}
}

// qps is the median over one-second windows of engine time of the ops
// completed per second, so a burst of interference from outside the
// process moves one window rather than the run's figure. Runs shorter
// than five windows report ops over engine time.
func (r *runner) qps() float64 {
	if len(r.rates) < 5 {
		return float64(r.ops) / r.busy
	}
	return median(r.rates)
}

// latencies returns every op's latency in seconds, sorted.
func (r *runner) latencies() []float64 {
	out := make([]float64, 0, r.ops)
	for _, b := range r.lats {
		for _, l := range b {
			out = append(out, float64(l))
		}
	}
	sort.Float64s(out)
	return out
}
