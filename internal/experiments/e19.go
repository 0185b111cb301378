package experiments

import (
	"fmt"
	"runtime"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// E19Batches is the executor batch-size sweep E19 measures. 1 is the
// classic row engine (evaluating the compiled predicate one row at a
// time), 64 a small morsel, 1024 the production default where the
// selection-vector kernels amortize best.
var E19Batches = []int{1, 64, 1024}

// e19Catalog builds the kernel benchmark tables: Big for the
// filter-heavy scan and Probe for the join-heavy hash probe. Sizes are
// scaled by FILTERJOIN_E19_ROWS for CI smoke runs.
func e19Catalog(rows int) *catalog.Catalog {
	cat := catalog.New()
	mk := func(name string, n, keyRange, seed int) {
		t := storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
		for i := 0; i < n; i++ {
			t.MustInsert(
				value.NewInt(int64((i*seed+i/7)%keyRange)),
				value.NewInt(int64(i%1000)),
			)
		}
		cat.AddTable(t)
	}
	mk("Big", rows, rows/3, 13)
	mk("Probe", rows*3/4, rows/3, 29)
	return cat
}

// e19Allocs runs f once and returns the heap allocation count it
// performed (runtime Mallocs delta). The caller warms the plan up first
// so the measurement sees the steady state, not one-time pool growth.
func e19Allocs(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, nil
}

// E19Kernels measures the compiled expression kernels and
// allocation-free hash paths (DESIGN.md §14) across batch sizes: for a
// filter-heavy scan and a join-heavy hash join, each batch size reports
// wall-clock, input-rows/sec and heap allocations per thousand input
// rows — with rows and measured cost counters enforced bit-identical
// across every batch size, the repository's standard parity bar.
func E19Kernels() (*Report, error) {
	model := cost.DefaultModel()
	nRows := e18Env("FILTERJOIN_E19_ROWS", 60000)
	reps := e18Env("FILTERJOIN_E19_REPS", 3)
	cat := e19Catalog(nRows)

	filterHeavy := func() *query.Block {
		// Four comparison clauses so per-row expression evaluation
		// dominates: the optimizer fuses them into one Select above the
		// scan, which is exactly the selection-vector kernel's territory.
		return &query.Block{
			Rels: []query.RelRef{{Name: "Big"}},
			Preds: []expr.Expr{
				expr.NewCmp(expr.LT, expr.NewCol(1, "Big.v"), expr.Int(800)),
				expr.NewCmp(expr.GE, expr.NewCol(1, "Big.v"), expr.Int(5)),
				expr.NewCmp(expr.LT, expr.NewCol(0, "Big.k"), expr.Int(int64(nRows))),
				expr.NewCmp(expr.NE, expr.NewCol(1, "Big.v"), expr.Int(411)),
			},
		}
	}
	joinHeavy := func() *query.Block {
		return &query.Block{
			Rels: []query.RelRef{{Name: "Big"}, {Name: "Probe"}},
			Preds: []expr.Expr{
				expr.Eq(expr.NewCol(0, "Big.k"), expr.NewCol(2, "Probe.k")),
			},
		}
	}

	r := &Report{
		ID:     "E19",
		Title:  "Expression kernels: rows/sec and allocs across batch sizes",
		Header: []string{"workload", "batch", "wall ms", "Mrows/s", "allocs/krow", "parity"},
	}

	type workload struct {
		name     string
		block    func() *query.Block
		input    int // base rows driven through the hot loop
		disabled []string
	}
	workloads := []workload{
		{"filter-heavy", filterHeavy, nRows, nil},
		{"join-heavy", joinHeavy, nRows + nRows*3/4, []string{"merge", "nlj", "indexnl"}},
	}

	for _, w := range workloads {
		var baseCost cost.Counter
		var baseRows int
		haveBase := false
		for _, batch := range E19Batches {
			o := optimizer(cat, model, nil, w.disabled...)
			o.BatchSize = batch
			p, err := o.OptimizeBlock(w.block())
			if err != nil {
				return nil, fmt.Errorf("E19 %s batch=%d: %w", w.name, batch, err)
			}
			run := func() (int, cost.Counter, error) {
				ctx := exec.NewContext()
				ctx.BatchSize = batch
				n, err := exec.Count(ctx, p.Make())
				return n, *ctx.Counter, err
			}
			wall, rows, c, err := bestOf(reps, run)
			if err != nil {
				return nil, fmt.Errorf("E19 %s batch=%d: %w", w.name, batch, err)
			}
			// Steady-state allocation count: reuse one operator tree,
			// warm it up with a full drain, then measure a second drain.
			op := p.Make()
			drainOnce := func() error {
				ctx := exec.NewContext()
				ctx.BatchSize = batch
				_, err := exec.Count(ctx, op)
				return err
			}
			if err := drainOnce(); err != nil {
				return nil, fmt.Errorf("E19 %s warmup: %w", w.name, err)
			}
			allocs, err := e19Allocs(drainOnce)
			if err != nil {
				return nil, fmt.Errorf("E19 %s alloc run: %w", w.name, err)
			}
			if !haveBase {
				baseCost, baseRows, haveBase = c, rows, true
			} else if c != baseCost || rows != baseRows {
				return nil, fmt.Errorf("E19 %s batch=%d: parity broken: %s / %d rows vs %s / %d",
					w.name, batch, c.String(), rows, baseCost.String(), baseRows)
			}
			r.AddRow(w.name, d(int64(batch)), f2(wall*1000),
				f2(float64(w.input)/wall/1e6),
				f1(float64(allocs)/(float64(w.input)/1000)), yesNo(true))
		}
	}

	r.AddNote("wall is the best of %d runs on %d base rows; BENCH_E19.json keeps the earlier interpreted-vs-compiled comparison that retired the interpreted engine", reps, nRows)
	r.AddNote("allocs/krow is the heap allocation count of a steady-state re-drain of a warmed operator tree per 1000 input rows (runtime Mallocs delta); the Filter/HashJoin/GroupBy per-row cost is allocation-free, so the figure stays near zero at large batch")
	r.AddNote("parity: rows and measured cost counters are enforced bit-identical across every batch size against the row engine (DESIGN.md §11, §14)")
	return r, nil
}
