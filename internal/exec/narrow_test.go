package exec

import (
	"fmt"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// opaque hides its child's Narrower, so a consumer built over it keeps
// the full layout: the un-narrowed reference tree of the differential
// tests below. It forwards batches, so both trees run the same engine.
type opaque struct{ Operator }

func (o opaque) NextBatch(ctx *Context, dst *Batch, max int) error {
	return FillBatch(ctx, o.Operator, dst, max)
}

// narrowTable builds a (k, v, w) table with duplicate keys (bucket
// chains) and a NULL in v every seventh row.
func narrowTable(t testing.TB, name string, n, keys int) *storage.Table {
	t.Helper()
	sc := schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
		schema.Column{Table: name, Name: "w", Type: value.KindInt},
	)
	tb := storage.NewTable(name, sc)
	for i := 0; i < n; i++ {
		v := value.NewInt(int64(i * 7 % 11))
		if i%7 == 3 {
			v = value.Value{}
		}
		if err := tb.Insert(value.Row{value.NewInt(int64(i % keys)), v, value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// Full-layout positions of the differential tests: every join's rows are
// first‖second with three columns per side (k, v, w).
const (
	fK, fV, fW = 0, 1, 2
	sK, sV, sW = 3, 4, 5
)

func col(i int) expr.Expr { return expr.NewCol(i, fmt.Sprintf("$%d", i)) }

// narrowJoins builds every join kind over fresh inputs, with res bound
// against the first‖second layout.
var narrowJoins = []struct {
	name string
	mk   func(t testing.TB, l, r *storage.Table, res expr.Expr) Operator
}{
	{"HashJoin", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		return NewHashJoin(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, res)
	}},
	{"HashJoinProbeFirst", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		return NewHashJoinProbeFirst(NewTableScan(r, "r"), NewTableScan(l, "l"), []int{0}, []int{0}, res)
	}},
	{"ParallelHashJoin", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		return NewParallelHashJoin(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, res, 3)
	}},
	{"ParallelHashJoinProbeFirst", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		return NewParallelHashJoinProbeFirst(NewTableScan(r, "r"), NewTableScan(l, "l"), []int{0}, []int{0}, res, 3)
	}},
	{"MergeJoin", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		return NewMergeJoin(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, res)
	}},
	{"NestedLoopJoin", func(_ testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		var pred expr.Expr = expr.NewCmp(expr.EQ, col(fK), col(sK))
		if res != nil {
			pred = expr.NewAnd(pred, res)
		}
		return NewNestedLoopJoin(NewTableScan(l, "l"), NewMaterialize(NewTableScan(r, "r"), "m"), pred)
	}},
	{"IndexNLJoin", func(t testing.TB, l, r *storage.Table, res expr.Expr) Operator {
		ix := r.IndexOn([]int{0})
		if ix == nil {
			var err error
			if ix, err = r.CreateIndex("rk", []int{0}); err != nil {
				t.Fatal(err)
			}
		}
		return NewIndexNLJoin(NewTableScan(l, "l"), r, ix, []int{0}, res, "r")
	}},
}

// narrowResiduals covers no residual, a cross-side comparison (NULLs in
// v make some candidates unknown) and one that errors at evaluation.
var narrowResiduals = []struct {
	name string
	res  func() expr.Expr
}{
	{"none", func() expr.Expr { return nil }},
	{"cross", func() expr.Expr { return expr.NewCmp(expr.GT, col(fV), col(sV)) }},
	{"error", func() expr.Expr { return expr.Not{Kid: col(sW)} }},
}

// narrowConsumers are the consumers that narrow their child, each
// reading a different column subset of the join.
var narrowConsumers = []struct {
	name string
	mk   func(child Operator) Operator
}{
	{"first-only", func(c Operator) Operator { return NewColumnProject(c, []int{fW, fK}) }},
	{"second-only", func(c Operator) Operator { return NewColumnProject(c, []int{sK, sV, sW}) }},
	{"mixed", func(c Operator) Operator { return NewColumnProject(c, []int{sW, fV, fK}) }},
	{"computed", func(c Operator) Operator {
		exprs := []expr.Expr{expr.Arith{Op: expr.Add, L: col(fW), R: col(sW)}, col(sV)}
		out := schema.New(schema.Column{Name: "x", Type: value.KindInt}, schema.Column{Name: "y", Type: value.KindInt})
		return NewProject(c, exprs, out)
	}},
	{"groupby", func(c Operator) Operator {
		return NewGroupBy(c, []int{fK}, []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggSum, Arg: col(sW), Name: "s"},
			{Kind: expr.AggMax, Arg: expr.Arith{Op: expr.Add, L: col(fW), R: col(sV)}, Name: "m"},
		})
	}},
	{"count-star", func(c Operator) Operator {
		return NewGroupBy(c, nil, []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}})
	}},
	{"stream-groupby", func(c Operator) Operator {
		return NewStreamGroupBy(c, []int{sK}, []expr.AggSpec{{Kind: expr.AggSum, Arg: col(fV), Name: "s"}})
	}},
}

type narrowRun struct {
	rows []string
	cost cost.Counter
	err  string
}

func runNarrow(op Operator, batch int) narrowRun {
	ctx := NewContext()
	ctx.BatchSize = batch
	rows, err := Drain(ctx, op)
	run := narrowRun{cost: *ctx.Counter}
	for _, r := range rows {
		run.rows = append(run.rows, r.String())
	}
	if err != nil {
		run.err = err.Error()
	}
	return run
}

// TestNarrowedTreesMatchFull is the emit contract's differential test:
// for every join kind, residual, consumer and batch size, with
// and without a truncating Limit, the narrowed tree produces the rows,
// the row order, the error and the cost.Counter totals of the same tree
// with narrowing blocked.
func TestNarrowedTreesMatchFull(t *testing.T) {
	l := narrowTable(t, "l", 40, 6)
	r := narrowTable(t, "r", 55, 8)
	for ji, j := range narrowJoins {
		for _, res := range narrowResiduals {
			for ci, c := range narrowConsumers {
				for _, limit := range []int{0, 7} {
					build := func(narrow bool) (Operator, Operator) {
						join := j.mk(t, l, r, res.res())
						var child Operator = join
						if !narrow {
							child = opaque{join}
						} else if (ji+ci)%2 == 1 {
							// Narrowing looks through the layout-preserving shim.
							child = NewInstrumented(join, j.name, nil)
						}
						var op Operator = c.mk(child)
						if limit > 0 {
							op = NewLimit(op, limit)
						}
						return op, join
					}
					for _, batch := range []int{1, DefaultBatchSize} {
						name := fmt.Sprintf("%s/%s/%s/limit%d/batch%d", j.name, res.name, c.name, limit, batch)
						full, _ := build(false)
						narrowed, join := build(true)
						if join.Schema().Len() >= 6 {
							t.Fatalf("%s: join was not narrowed (width %d)", name, join.Schema().Len())
						}
						want := runNarrow(full, batch)
						got := runNarrow(narrowed, batch)
						if res.name == "error" && want.err == "" {
							t.Fatalf("%s: residual error did not surface", name)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s:\n narrowed %v\n     full %v", name, got, want)
						}
					}
				}
			}
		}
	}
}

// TestNarrowPassThrough checks the two pass-through rules: a join whose
// consumer reads only probe columns emits the probe rows themselves, and
// an identity Project hands them on without a copy.
func TestNarrowPassThrough(t *testing.T) {
	l := narrowTable(t, "l", 10, 3)
	r := narrowTable(t, "r", 12, 3)
	hj := NewHashJoinProbeFirst(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, nil)
	p := NewColumnProject(hj, []int{0, 1, 2})
	if !p.pass || hj.Schema().Len() != 3 {
		t.Fatalf("probe-only projection: pass=%v join width %d", p.pass, hj.Schema().Len())
	}
	rows, err := Drain(NewContext(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	storageRow := map[*value.Value]bool{}
	for _, sr := range r.Rows() {
		storageRow[&sr[0]] = true
	}
	for _, row := range rows {
		if !storageRow[&row[0]] {
			t.Fatalf("row %v was copied, want the probe's storage row", row)
		}
	}

	// A second Narrow declines: the layout is already narrowed.
	if m := hj.Narrow([]bool{true, false, false}); m != nil {
		t.Fatalf("second Narrow = %v, want nil", m)
	}
	// A consumer reading every column leaves the join unnarrowed.
	hj2 := NewHashJoin(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, nil)
	NewColumnProject(hj2, []int{5, 4, 3, 2, 1, 0})
	if hj2.Schema().Len() != 6 {
		t.Fatalf("all-column projection narrowed the join to width %d", hj2.Schema().Len())
	}
}

// TestKeySetBuildNarrowsInput checks that the key-set build reads only
// the key columns of a join input and keeps its result and charges.
func TestKeySetBuildNarrowsInput(t *testing.T) {
	l := narrowTable(t, "l", 30, 5)
	r := narrowTable(t, "r", 30, 7)
	mk := func() *HashJoin {
		return NewHashJoin(NewTableScan(l, "l"), NewTableScan(r, "r"), []int{0}, []int{0}, nil)
	}
	build := func(op Operator) ([]string, cost.Counter) {
		ctx := NewContext()
		ks, err := BuildKeySet(ctx, op, []int{sW, fK})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, k := range ks.Rows() {
			keys = append(keys, k.String())
		}
		return keys, *ctx.Counter
	}
	hj := mk()
	gotKeys, gotCost := build(hj)
	wantKeys, wantCost := build(opaque{mk()})
	if hj.Schema().Len() != 2 {
		t.Fatalf("key-set input width %d, want 2", hj.Schema().Len())
	}
	if fmt.Sprint(gotKeys, gotCost) != fmt.Sprint(wantKeys, wantCost) {
		t.Fatalf("narrowed %v %v, full %v %v", gotKeys, gotCost, wantKeys, wantCost)
	}
}
