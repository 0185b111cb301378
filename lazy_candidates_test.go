package filterjoin_test

// The DP optimizer builds a join candidate's plan node only when the
// memo keeps it; under a tracer it renders just the Detail string of a
// pruned candidate (DESIGN.md §18). These tests pin that neither the
// tracer nor the deferred construction changes what the search decides:
// a traced and an untraced optimization of the same block produce the
// same plan, byte for byte, and the same search counters.

import (
	"fmt"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/core"
	"filterjoin/internal/cost"
	"filterjoin/internal/datagen"
	"filterjoin/internal/opt"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/sql"
)

// optCase is one optimization of the corpus: a block over a catalog,
// an optimizer configuration, and optionally a forced join order.
type optCase struct {
	name  string
	cat   *catalog.Catalog
	block *query.Block
	fj    *core.Options // nil: Filter Join not registered
	setup func(o *opt.Optimizer)
	order []int // non-nil: OptimizeBlockWithOrder
	// parallel marks a case whose setup raises the degree of parallelism.
	parallel bool
}

// fig1PlanMissCatalog is the Fig 1 universe with RemAvgSal, a copy of
// DepAvgSal at site 1, as the plan-miss workload registers it.
func fig1PlanMissCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat, err := datagen.Fig1Catalog(datagen.DefaultFig1())
	if err != nil {
		t.Fatal(err)
	}
	cat.AddRemoteView("RemAvgSal", datagen.DepAvgSalView(), 1)
	return cat
}

// bindSQL parses and binds a SELECT against cat.
func bindSQL(t testing.TB, cat *catalog.Catalog, text string) *query.Block {
	t.Helper()
	st, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		t.Fatalf("%q is not a SELECT", text)
	}
	b, err := sql.BindSelect(cat, sel)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// planMissSQL is one plan-miss-shaped point query: Emp ⋈ Dept ⋈ a view
// of departmental average salaries, with extra further Dept joins on
// the same key and optionally the E.sal > V.avgsal residual.
func planMissSQL(extra int, view string, salPred bool) string {
	q := "SELECT E.eid, E.sal, V.avgsal FROM Emp E, Dept D, " + view + " V"
	for k := 2; k < extra+2; k++ {
		q += fmt.Sprintf(", Dept D%d", k)
	}
	q += " WHERE E.did = D.did AND E.did = V.did"
	for k := 2; k < extra+2; k++ {
		q += fmt.Sprintf(" AND E.did = D%d.did", k)
	}
	if salPred {
		q += " AND E.sal > V.avgsal"
	}
	return q + " AND E.did = 17 AND E.age < 25"
}

func lazyCorpus(t *testing.T) []optCase {
	cat := fig1PlanMissCatalog(t)
	fig1 := datagen.Fig1Query()
	fj := func(o core.Options) *core.Options { return &o }
	cases := []optCase{
		{name: "fig1/no-fj", cat: cat, block: fig1},
		{name: "fig1/fj", cat: cat, block: fig1, fj: fj(core.Options{})},
		{name: "fig1/fj-bloom-stored", cat: cat, block: fig1, fj: fj(core.Options{Bloom: true, IncludeStored: true})},
		{name: "fig1/fj-attr-subsets", cat: cat, block: fig1, fj: fj(core.Options{AttrSubsets: true, IncludeStored: true})},
		{name: "fig1/fj-prefix", cat: cat, block: fig1, fj: fj(core.Options{PrefixProductionSets: true})},
		{name: "fig1/fj-all-options", cat: cat, block: fig1,
			fj: fj(core.Options{Bloom: true, IncludeStored: true, AttrSubsets: true, PrefixProductionSets: true})},
		{name: "fig1/no-order-props", cat: cat, block: fig1, fj: fj(core.Options{}),
			setup: func(o *opt.Optimizer) { o.DisableOrderProps = true }},
		{name: "fig1/dop2", cat: cat, block: fig1, fj: fj(core.Options{}), parallel: true,
			setup: func(o *opt.Optimizer) { o.DegreeOfParallelism = 2 }},
	}
	for extra := 0; extra <= 2; extra++ {
		for _, view := range []string{"DepAvgSal", "RemAvgSal"} {
			for _, sal := range []bool{false, true} {
				cases = append(cases, optCase{
					name:  fmt.Sprintf("plan-miss/extra%d/%s/sal=%v", extra, view, sal),
					cat:   cat,
					block: bindSQL(t, cat, planMissSQL(extra, view, sal)),
					fj:    fj(core.Options{}),
				})
			}
		}
	}
	orderBy := bindSQL(t, cat, `SELECT E.did, E.sal FROM Emp E, Dept D
		WHERE E.did = D.did AND D.budget > 100000 ORDER BY E.did`)
	groupBy := bindSQL(t, cat, `SELECT E.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D, DepAvgSal V
		WHERE E.did = D.did AND E.did = V.did AND D.budget > 100000 GROUP BY E.did`)
	cases = append(cases,
		optCase{name: "order-by", cat: cat, block: orderBy, fj: fj(core.Options{})},
		optCase{name: "order-by/no-order-props", cat: cat, block: orderBy, fj: fj(core.Options{}),
			setup: func(o *opt.Optimizer) { o.DisableOrderProps = true }},
		optCase{name: "group-by", cat: cat, block: groupBy, fj: fj(core.Options{})},
	)
	// Fig 3: every join order of Fig 1, forced.
	for _, ord := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		cases = append(cases, optCase{name: fmt.Sprintf("fig3/order%v", ord), cat: cat, block: fig1,
			fj: fj(core.Options{}), order: ord})
	}
	// The remaining built-in builders: fetch-matches against a remote
	// table, and function probes.
	dist, err := datagen.DistCatalog(datagen.DefaultDist())
	if err != nil {
		t.Fatal(err)
	}
	udr, _, err := datagen.UDRCatalog(datagen.DefaultUDR())
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases,
		optCase{name: "dist/base", cat: dist, block: datagen.DistBaseQuery(), fj: fj(core.Options{Bloom: true})},
		optCase{name: "dist/view", cat: dist, block: datagen.DistQuery(), fj: fj(core.Options{})},
		optCase{name: "udr", cat: udr, block: datagen.UDRQuery(), fj: fj(core.Options{})},
	)
	return cases
}

// optimizeCase runs one case on a fresh optimizer and returns the plan
// text (with its fallback, if any), the search counters and the Filter
// Join method's counters.
func optimizeCase(t *testing.T, c optCase, tracer opt.Tracer) (string, opt.Metrics, core.Metrics) {
	t.Helper()
	model := cost.DefaultModel()
	o := opt.New(c.cat, model)
	o.Tracer = tracer
	var m *core.Method
	if c.fj != nil {
		m = core.NewMethod(*c.fj)
		o.Register(m)
	}
	if c.setup != nil {
		c.setup(o)
	}
	var p *plan.Node
	var err error
	if c.order != nil {
		p, err = o.OptimizeBlockWithOrder(c.block, c.order)
	} else {
		p, err = o.OptimizeBlock(c.block)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	text := plan.Format(p, model)
	if p.Fallback != nil {
		text += "fallback:\n" + plan.Format(p.Fallback, model)
	}
	var fjm core.Metrics
	if m != nil {
		fjm = m.Metrics
	}
	return text, o.Metrics, fjm
}

// TestTracedEqualsUntracedOptimization checks that a tracer, which makes
// the optimizer render every pruned candidate's Detail, changes nothing
// the search decides: plans, Metrics and the Filter Join's Metrics are
// identical with and without one.
func TestTracedEqualsUntracedOptimization(t *testing.T) {
	for _, c := range lazyCorpus(t) {
		tr := &opt.CollectingTracer{}
		tracedPlan, tracedM, tracedFJ := optimizeCase(t, c, tr)
		plainPlan, plainM, plainFJ := optimizeCase(t, c, nil)
		if tracedPlan != plainPlan {
			t.Errorf("%s: plans differ\ntraced:\n%s\nuntraced:\n%s", c.name, tracedPlan, plainPlan)
		}
		if tracedM != plainM {
			t.Errorf("%s: Metrics traced %+v, untraced %+v", c.name, tracedM, plainM)
		}
		if tracedFJ != plainFJ {
			t.Errorf("%s: Filter Join Metrics traced %+v, untraced %+v", c.name, tracedFJ, plainFJ)
		}
		// Every considered plan is traced exactly once, kept or pruned.
		// (Parallel costing runs nested optimizations on untraced forks.)
		if c.parallel {
			continue
		}
		var considered int64
		for _, ev := range tr.Events {
			if ev.Kind == opt.EvCandidate || ev.Kind == opt.EvLeaf {
				considered++
			}
			if ev.Kind == opt.EvCandidate && ev.Detail == "" {
				t.Errorf("%s: candidate event without a Detail: %+v", c.name, ev)
			}
		}
		if considered != tracedM.PlansConsidered {
			t.Errorf("%s: %d leaf/candidate events for %d plans considered", c.name, considered, tracedM.PlansConsidered)
		}
	}
}

// countingMethod wraps a join method and counts how many of its
// candidates the optimizer builds into plan nodes.
type countingMethod struct {
	opt.JoinMethod
	builds int
}

func (m *countingMethod) Candidates(p *opt.JoinPair) ([]opt.Candidate, error) {
	cands, err := m.JoinMethod.Candidates(p)
	for i := range cands {
		build := cands[i].Build
		cands[i].Build = func(n *plan.Node) {
			m.builds++
			build(n)
		}
	}
	return cands, err
}

// TestOnlyKeptCandidatesAreBuilt checks, through the one join method a
// test can wrap, that the optimizer builds a node for exactly the
// candidates the memo keeps, traced or not.
func TestOnlyKeptCandidatesAreBuilt(t *testing.T) {
	cat := fig1PlanMissCatalog(t)
	for _, text := range []string{planMissSQL(1, "DepAvgSal", true), planMissSQL(2, "RemAvgSal", false)} {
		b := bindSQL(t, cat, text)
		builds := map[bool]int{}
		for _, traced := range []bool{true, false} {
			o := opt.New(cat, cost.DefaultModel())
			m := &countingMethod{JoinMethod: core.NewMethod(core.Options{})}
			o.Register(m)
			tr := &opt.CollectingTracer{}
			if traced {
				o.Tracer = tr
			}
			if _, err := o.OptimizeBlock(b); err != nil {
				t.Fatal(err)
			}
			builds[traced] = m.builds
			if !traced {
				continue
			}
			kept, pruned := 0, 0
			for _, ev := range tr.Events {
				if ev.Kind == opt.EvCandidate && ev.Method == "FilterJoin" {
					if ev.Kept {
						kept++
					} else {
						pruned++
					}
				}
			}
			if m.builds != kept || pruned == 0 {
				t.Errorf("%s: %d Filter Join nodes built, %d candidates kept, %d pruned", text, m.builds, kept, pruned)
			}
		}
		if builds[true] != builds[false] {
			t.Errorf("%s: %d nodes built traced, %d untraced", text, builds[true], builds[false])
		}
	}
}
