package exec

import (
	"testing"

	"filterjoin/internal/expr"
)

// The kernel benchmarks drain a warmed operator tree at the default
// batch size; allocs/op under -benchmem is the number the CI bench smoke
// watches alongside the TestAllocBudget gate.
func benchDrain(b *testing.B, mk func(b *testing.B) Operator) {
	op := mk(b)
	ctx := NewContext()
	ctx.BatchSize = DefaultBatchSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Count(ctx, op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectBatch(b *testing.B) {
	benchDrain(b, func(b *testing.B) Operator {
		pred := expr.NewAnd(
			expr.NewCmp(expr.LT, expr.NewCol(1, "v"), expr.Int(25)),
			expr.NewCmp(expr.GE, expr.NewCol(0, "k"), expr.Int(3)),
		)
		return NewSelect(allocTable(b, "t", 50_000), pred)
	})
}

func BenchmarkHashJoinBatch(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		benchDrain(b, func(b *testing.B) Operator {
			return NewHashJoin(allocTable(b, "b", 4096), allocTable(b, "p", 50_000),
				[]int{0}, []int{0}, nil)
		})
	})
	// The same join under a consumer that reads one column per side: the
	// join gathers two values per match instead of concatenating four,
	// and the identity Project passes its rows on (DESIGN.md §16).
	b.Run("narrow", func(b *testing.B) {
		benchDrain(b, func(b *testing.B) Operator {
			j := NewHashJoin(allocTable(b, "b", 4096), allocTable(b, "p", 50_000),
				[]int{0}, []int{0}, nil)
			return NewColumnProject(j, []int{1, 2})
		})
	})
}

func BenchmarkGroupByBatch(b *testing.B) {
	benchDrain(b, func(b *testing.B) Operator {
		return NewGroupBy(allocTable(b, "g", 50_000), []int{0},
			[]expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
	})
}
