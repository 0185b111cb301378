package exec

import (
	"fmt"
	"reflect"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/value"
)

// seqEqual compares two row sequences positionally.
func seqEqual(t *testing.T, got, want []value.Row, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// The core exchange property: a ParallelScan at any DOP produces the
// serial TableScan(+Select)'s exact row sequence and charges the exact
// same counter totals.
func TestParallelScanMatchesSerial(t *testing.T) {
	rows := make([][]int64, 997) // deliberately not page-aligned
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	tb := intTable(t, "t", []string{"a", "b"}, rows)
	pred := expr.NewCmp(expr.GT, expr.NewCol(1, "b"), expr.Int(3))

	serialRows, serialCost := drain(t, NewTableScan(tb, ""))
	serialSelRows, serialSelCost := drain(t, NewSelect(NewTableScan(tb, ""), pred))

	for _, dop := range []int{1, 2, 3, 4, 8, 64} {
		gotRows, gotCost := drain(t, NewParallelScan(tb, "", dop, nil))
		seqEqual(t, gotRows, serialRows, "plain scan")
		if gotCost != serialCost {
			t.Errorf("dop=%d: scan cost %s, want serial %s", dop, gotCost.String(), serialCost.String())
		}
		gotRows, gotCost = drain(t, NewParallelScan(tb, "", dop, pred))
		seqEqual(t, gotRows, serialSelRows, "predicated scan")
		if gotCost != serialSelCost {
			t.Errorf("dop=%d: predicated scan cost %s, want serial %s", dop, gotCost.String(), serialSelCost.String())
		}
	}

	// A predicate that divides by zero at row bad, in the middle of the
	// last page. Every DOP's last morsel holds that page, so only it
	// fails, and the serial Select fails at the same row: rows, error
	// and counters must all match. The first conjunct fails first, so
	// the compiled And's error cascade is on the path.
	rpp := tb.RowsPerPage()
	lastPage := (len(rows) - 1) / rpp * rpp
	bad := lastPage + (len(rows)-lastPage)/2
	if bad == lastPage || bad == len(rows)-1 {
		t.Fatalf("table geometry leaves no mid-page row (rows per page %d)", rpp)
	}
	errPred := expr.NewAnd(
		expr.NewCmp(expr.GT,
			expr.Arith{Op: expr.Div, L: expr.Int(1), R: expr.Arith{Op: expr.Sub, L: expr.NewCol(0, "a"), R: expr.Int(int64(bad))}},
			expr.Int(-10)),
		pred,
	)
	run := func(op Operator) string {
		ctx := NewContext()
		got, err := Drain(ctx, op)
		if err == nil {
			t.Fatalf("%T: predicate error did not surface", op)
		}
		return fmt.Sprintf("%d rows, error %q, cost %s", len(got), err, ctx.Counter.String())
	}
	want := run(NewSelect(NewTableScan(tb, ""), errPred))
	for _, dop := range []int{1, 2, 3, 4, 8, 64} {
		if got := run(NewParallelScan(tb, "", dop, errPred)); got != want {
			t.Errorf("dop=%d: erroring predicated scan gave %s, serial Select %s", dop, got, want)
		}
	}
}

func TestParallelScanRestartableAndAlias(t *testing.T) {
	tb := intTable(t, "t", []string{"a"}, [][]int64{{1}, {2}, {3}})
	s := NewParallelScan(tb, "X", 2, nil)
	if s.Schema().Col(0).Table != "X" {
		t.Error("alias not applied")
	}
	r1, _ := drain(t, s)
	r2, _ := drain(t, s)
	if len(r1) != 3 || len(r2) != 3 {
		t.Errorf("parallel scan must be restartable: %d then %d rows", len(r1), len(r2))
	}
}

// Partition+Gather running a Select pipeline per worker must equal the
// serial Select in multiset and counters; the order-preserving variant
// must reproduce the serial sequence exactly.
func TestGatherMatchesSerialSelect(t *testing.T) {
	rows := make([][]int64, 500)
	for i := range rows {
		rows[i] = []int64{int64(i % 13), int64(i)}
	}
	tb := intTable(t, "t", []string{"k", "v"}, rows)
	pred := expr.NewCmp(expr.GT, expr.NewCol(1, "v"), expr.Int(99))
	serialRows, serialCost := drain(t, NewSelect(NewTableScan(tb, ""), pred))

	for _, dop := range []int{1, 2, 4, 7} {
		build := func(part int, in Operator) Operator { return NewSelect(in, pred) }

		p := NewPartition(NewTableScan(tb, ""), []int{0}, dop)
		gotRows, gotCost := drain(t, NewGather(p, build))
		if !reflect.DeepEqual(canon(gotRows), canon(serialRows)) {
			t.Errorf("dop=%d: Gather multiset differs from serial Select", dop)
		}
		if gotCost != serialCost {
			t.Errorf("dop=%d: Gather cost %s, want serial %s", dop, gotCost.String(), serialCost.String())
		}

		p = NewPartition(NewTableScan(tb, ""), []int{0}, dop)
		gotRows, gotCost = drain(t, NewGatherMerge(p, build))
		seqEqual(t, gotRows, serialRows, "GatherMerge")
		if gotCost != serialCost {
			t.Errorf("dop=%d: GatherMerge cost %s, want serial %s", dop, gotCost.String(), serialCost.String())
		}
	}
}

// An identity Gather (nil build) is a pure exchange: same rows, and the
// only charges are the child's own.
func TestGatherIdentity(t *testing.T) {
	tb := intTable(t, "t", []string{"k"}, [][]int64{{3}, {1}, {2}, {1}, {3}})
	serialRows, serialCost := drain(t, NewTableScan(tb, ""))
	p := NewPartition(NewTableScan(tb, ""), []int{0}, 3)
	gotRows, gotCost := drain(t, NewGatherMerge(p, nil))
	seqEqual(t, gotRows, serialRows, "identity exchange")
	if gotCost != serialCost {
		t.Errorf("identity exchange cost %s, want %s", gotCost.String(), serialCost.String())
	}
}

func join2Tables(t *testing.T) (build, probe func() Operator) {
	t.Helper()
	lrows := make([][]int64, 200)
	for i := range lrows {
		lrows[i] = []int64{int64(i % 17), int64(i)}
	}
	rrows := make([][]int64, 300)
	for i := range rrows {
		rrows[i] = []int64{int64(i % 23), int64(-i)}
	}
	lt := intTable(t, "l", []string{"k", "lv"}, lrows)
	rt := intTable(t, "r", []string{"k", "rv"}, rrows)
	return func() Operator { return NewTableScan(lt, "") },
		func() Operator { return NewTableScan(rt, "") }
}

// The partitioned parallel hash join must reproduce the serial hash
// join's exact output sequence (probe order) and counter totals, in both
// emit layouts, with and without a residual predicate.
func TestParallelHashJoinMatchesSerial(t *testing.T) {
	mkBuild, mkProbe := join2Tables(t)
	res := expr.NewCmp(expr.GT, expr.NewCol(1, "rv"), expr.NewCol(3, "lv")) // probe‖build layout

	serialRows, serialCost := drain(t, NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil))
	serialResRows, serialResCost := drain(t, NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, res))
	serialBPRows, serialBPCost := drain(t, NewHashJoin(mkBuild(), mkProbe(), []int{0}, []int{0}, nil))

	for _, dop := range []int{1, 2, 4, 8} {
		gotRows, gotCost := drain(t, NewParallelHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil, dop))
		seqEqual(t, gotRows, serialRows, "probe-first")
		if gotCost != serialCost {
			t.Errorf("dop=%d: cost %s, want serial %s", dop, gotCost.String(), serialCost.String())
		}

		gotRows, gotCost = drain(t, NewParallelHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, res, dop))
		seqEqual(t, gotRows, serialResRows, "probe-first+residual")
		if gotCost != serialResCost {
			t.Errorf("dop=%d: residual cost %s, want serial %s", dop, gotCost.String(), serialResCost.String())
		}

		gotRows, gotCost = drain(t, NewParallelHashJoin(mkBuild(), mkProbe(), []int{0}, []int{0}, nil, dop))
		seqEqual(t, gotRows, serialBPRows, "build-first")
		if gotCost != serialBPCost {
			t.Errorf("dop=%d: build-first cost %s, want serial %s", dop, gotCost.String(), serialBPCost.String())
		}
	}
}

// The size hint must never change results — only pre-size allocations.
func TestBuildSizeHintNeutral(t *testing.T) {
	mkBuild, mkProbe := join2Tables(t)
	want, wantCost := drain(t, NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil))
	hinted := NewHashJoinProbeFirst(mkBuild(), mkProbe(), []int{0}, []int{0}, nil)
	hinted.BuildSizeHint = 10_000
	got, gotCost := drain(t, hinted)
	seqEqual(t, got, want, "hinted hash join")
	if gotCost != wantCost {
		t.Errorf("hinted cost %s, want %s", gotCost.String(), wantCost.String())
	}
}

// Cost conservation through instrumentation: when exchange operators run
// inside an Instrumented bracket, the per-operator Self deltas must sum
// exactly to the root counter — worker counters are absorbed inside the
// spawning operator's bracket, so the parallel work is attributed to it.
func TestExchangeConservation(t *testing.T) {
	rows := make([][]int64, 400)
	for i := range rows {
		rows[i] = []int64{int64(i % 11), int64(i)}
	}
	tb := intTable(t, "t", []string{"k", "v"}, rows)
	pred := expr.NewCmp(expr.GT, expr.NewCol(1, "v"), expr.Int(50))
	mkBuild, mkProbe := join2Tables(t)

	cases := map[string]func() Operator{
		"parallel-scan": func() Operator {
			return NewInstrumented(NewParallelScan(tb, "", 4, pred), "ParallelScan", nil)
		},
		"gather-merge": func() Operator {
			child := NewInstrumented(NewTableScan(tb, ""), "TableScan", nil)
			p := NewPartition(child, []int{0}, 4)
			return NewInstrumented(NewGatherMerge(p, func(part int, in Operator) Operator {
				return NewSelect(in, pred)
			}), "Gather", nil)
		},
		"parallel-hash-join": func() Operator {
			l := NewInstrumented(mkBuild(), "TableScan", nil)
			r := NewInstrumented(mkProbe(), "TableScan", nil)
			return NewInstrumented(NewParallelHashJoinProbeFirst(l, r, []int{0}, []int{0}, nil, 4), "ParallelHashJoin", nil)
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			ctx := NewContext()
			if _, err := Drain(ctx, mk()); err != nil {
				t.Fatal(err)
			}
			var sum cost.Counter
			for _, s := range ctx.OperatorStats() {
				self := s.Self()
				if self.PageReads < 0 || self.PageWrites < 0 || self.CPUTuples < 0 ||
					self.NetBytes < 0 || self.NetMsgs < 0 || self.FnCalls < 0 {
					t.Errorf("operator %s charged negative Self %s", s.Label, self.String())
				}
				sum.Add(self)
			}
			if ctx.Counter.IsZero() {
				t.Error("execution charged nothing")
			}
			if sum != *ctx.Counter {
				t.Errorf("sum of Self = %s, want root counter %s", sum.String(), ctx.Counter.String())
			}
		})
	}
}
