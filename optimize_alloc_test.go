package filterjoin_test

import (
	"encoding/json"
	"os"
	"testing"

	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/opt"
	"filterjoin/internal/query"
)

// optimizeAllocBudgetFile holds the allocation budget of one warmed
// optimization per block, checked in at the values measured when the
// optimizer started building plan nodes only for kept candidates
// (DESIGN.md §18). A change that allocates more fails the gate; a change
// that allocates less should lower the budget.
const optimizeAllocBudgetFile = "testdata/optimize_alloc_budget.json"

// allocCase is one warmed optimization the gate measures.
type allocCase struct {
	name  string
	block func(t testing.TB) (*opt.Optimizer, *query.Block)
}

var optimizeAllocCases = []allocCase{
	{"Fig1", func(t testing.TB) (*opt.Optimizer, *query.Block) {
		return fig1Optimizer(t, true), datagen.Fig1Query()
	}},
	{"Fig1NoFilterJoin", func(t testing.TB) (*opt.Optimizer, *query.Block) {
		return fig1Optimizer(t, false), datagen.Fig1Query()
	}},
	{"PlanMiss4RemAvgSal", planMissOptimizer},
}

// fig1Optimizer is an optimizer over the default Fig 1 catalog, with or
// without the Filter Join registered.
func fig1Optimizer(t testing.TB, withFJ bool) *opt.Optimizer {
	t.Helper()
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		t.Fatal(err)
	}
	o := opt.New(cat, cost.DefaultModel())
	if withFJ {
		o.Register(core.NewMethod(core.Options{}))
	}
	return o
}

// planMissOptimizer returns the plan-miss-shaped four-relation block
// (Emp, Dept, the remote RemAvgSal view, a second Dept) with the
// optimizer it runs on.
func planMissOptimizer(t testing.TB) (*opt.Optimizer, *query.Block) {
	t.Helper()
	cat := fig1PlanMissCatalog(t)
	o := opt.New(cat, cost.DefaultModel())
	o.Register(core.NewMethod(core.Options{}))
	return o, bindSQL(t, cat, planMissSQL(1, "RemAvgSal", true))
}

// TestOptimizeAllocBudget gates the optimizer's allocations per warmed
// optimization (statistics, view leaves and parametric costers cached)
// against testdata/optimize_alloc_budget.json.
func TestOptimizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	raw, err := os.ReadFile(optimizeAllocBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]float64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatal(err)
	}
	for _, c := range optimizeAllocCases {
		want, ok := budget[c.name]
		if !ok {
			t.Errorf("%s: no budget in %s", c.name, optimizeAllocBudgetFile)
			continue
		}
		o, b := c.block(t)
		if _, err := o.OptimizeBlock(b); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := o.OptimizeBlock(b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per optimization (budget %.0f)", c.name, got, want)
		if got > want {
			t.Errorf("%s allocates %.0f per optimization, budget %.0f (%s)", c.name, got, want, optimizeAllocBudgetFile)
		}
	}
}
