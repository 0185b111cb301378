package exec

import (
	"encoding/json"
	"os"
	"testing"

	"filterjoin/internal/expr"
)

// allocBudget is the checked-in allocation budget for steady-state
// NextBatch calls (testdata/alloc_budget.json). The
// budgets carry roughly 2x headroom over the measured figures so the
// gate catches regressions — a per-row allocation shows up as ~1024
// allocs per batch — without flaking on incidental runtime variation.
type allocBudget map[string]float64

func loadAllocBudget(t *testing.T) allocBudget {
	t.Helper()
	raw, err := os.ReadFile("testdata/alloc_budget.json")
	if err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	var b allocBudget
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("alloc budget: %v", err)
	}
	return b
}

// allocTable builds a table long enough that dozens of NextBatch pulls
// stay in the middle of the stream.
func allocTable(t testing.TB, name string, n int) Operator {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i % 997), int64(i % 31)}
	}
	return NewTableScan(intTable(t, name, []string{"k", "v"}, rows), "")
}

// keySetSink feeds every batch of its child into a key set — the loop
// body of BuildKeySetSized — and passes the batch on, so the key-set
// build's steady state can be measured per NextBatch.
type keySetSink struct {
	Operator
	ks  *KeySet
	idx []int
}

func (s *keySetSink) NextBatch(ctx *Context, dst *Batch, max int) error {
	if err := FillBatch(ctx, s.Operator, dst, max); err != nil {
		return err
	}
	for _, r := range dst.Rows {
		ctx.Counter.CPUTuples++
		s.ks.addFrom(r, s.idx)
	}
	return nil
}

// TestAllocBudget is the allocation regression gate for the kernel
// paths: a warmed Filter, HashJoin, GroupBy and key-set batch pipeline
// must not allocate more per steady-state NextBatch than the checked-in
// budget.
func TestAllocBudget(t *testing.T) {
	budget := loadAllocBudget(t)
	const tableRows = 200_000
	cases := []struct {
		name string
		mk   func(t *testing.T) Operator
	}{
		{"Select", func(t *testing.T) Operator {
			pred := expr.NewAnd(
				expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.Int(25)),
				expr.NewCmp(expr.GE, expr.NewCol(0, "k"), expr.Int(3)),
			)
			return NewSelect(allocTable(t, "t", tableRows), pred)
		}},
		{"HashJoin", func(t *testing.T) Operator {
			return NewHashJoin(allocTable(t, "b", 4096), allocTable(t, "p", tableRows),
				[]int{0}, []int{0}, nil)
		}},
		{"HashJoinProbeOnly", func(t *testing.T) Operator {
			// The consumer reads probe columns only: the join emits the
			// probe rows themselves and the identity Project passes them
			// on, so a steady-state batch allocates nothing.
			j := NewHashJoinProbeFirst(allocTable(t, "b", 4096), allocTable(t, "p", tableRows),
				[]int{0}, []int{0}, nil)
			return NewColumnProject(j, []int{0, 1})
		}},
		{"KeySet", func(t *testing.T) Operator {
			// Every key repeats within the first batch, so the steady
			// state only encodes and looks up keys.
			return &keySetSink{Operator: allocTable(t, "k", tableRows),
				ks: NewKeySetSized(1, 0), idx: []int{0}}
		}},
		{"GroupBy", func(t *testing.T) Operator {
			// Distinct keys so the emit phase spans many output batches.
			rows := make([][]int64, tableRows)
			for i := range rows {
				rows[i] = []int64{int64(i), int64(i % 31)}
			}
			scan := NewTableScan(intTable(t, "g", []string{"k", "v"}, rows), "")
			return NewGroupBy(scan, []int{0},
				[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := budget[tc.name]
			if !ok {
				t.Fatalf("no budget entry for %s", tc.name)
			}
			op := tc.mk(t)
			ctx := NewContext()
			ctx.BatchSize = DefaultBatchSize
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			bop := op.(BatchOperator)
			var dst Batch
			// Warm up: pull a few batches so scratch buffers, selection
			// vectors, and pooled row storage reach steady-state size.
			for i := 0; i < 8; i++ {
				dst.Reset()
				if err := bop.NextBatch(ctx, &dst, DefaultBatchSize); err != nil {
					t.Fatal(err)
				}
				if dst.Len() == 0 {
					t.Fatalf("input exhausted during warmup")
				}
			}
			got := testing.AllocsPerRun(40, func() {
				dst.Reset()
				if err := bop.NextBatch(ctx, &dst, DefaultBatchSize); err != nil {
					t.Fatal(err)
				}
				if dst.Len() == 0 {
					t.Fatalf("input exhausted during measurement")
				}
			})
			if err := op.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if got > want {
				t.Errorf("%s steady-state NextBatch allocates %.1f/op, budget %.1f (testdata/alloc_budget.json)",
					tc.name, got, want)
			}
		})
	}
}

// TestBuildKeySetAllocsPerDistinctKey gates BuildKeySetSized itself: a
// build over 200k rows with 997 distinct keys allocates in proportion to
// the distinct keys (one key row each), not to the input rows.
func TestBuildKeySetAllocsPerDistinctKey(t *testing.T) {
	const distinct = 997
	tb := allocTable(t, "k", 200_000).(*TableScan).Table
	ctx := NewContext()
	ctx.BatchSize = DefaultBatchSize
	var n int
	got := testing.AllocsPerRun(3, func() {
		ks, err := BuildKeySetSized(ctx, NewTableScan(tb, ""), []int{0}, distinct)
		if err != nil {
			t.Fatal(err)
		}
		n = ks.Len()
	})
	if n != distinct {
		t.Fatalf("%d keys, want %d", n, distinct)
	}
	t.Logf("%.0f allocs per build", got)
	if got > 3*distinct {
		t.Errorf("BuildKeySetSized allocates %.0f per build, want at most %d (3 per distinct key)",
			got, 3*distinct)
	}
}
