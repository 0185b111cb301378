package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"filterjoin/internal/storage"
)

// An op is one SQL statement of a workload's stream, plus what the
// reference needs to check it and the slots the run fills in.
type op struct {
	kind opKind
	stmt int    // prepared ops: index of the prepared statement
	text string // SQL text (query and insert ops)
	args []any  // bind arguments (prepared ops)
	q    refQuery
	rows []empRow // rows an insert adds

	// Filled in by the run.
	lat    float64 // seconds inside the engine call
	failed bool
}

type opKind uint8

const (
	opQuery    opKind = iota // literal SQL through Session.Query
	opPrepared               // Stmt.Exec with bind arguments
	opInsert                 // INSERT INTO Emp through Session.Exec
)

// col names one output column of the Fig 1 universe.
type col uint8

const (
	cEid col = iota
	cDid
	cSal
	cAge
	cBudget
	cVDid
	cAvg
	nCols
)

var colSQL = [nCols]string{"E.eid", "E.did", "E.sal", "E.age", "D.budget", "V.did", "V.avgsal"}

// noUpper and noLower disable one of refQuery's range restrictions.
const (
	noUpper = math.MaxInt64
	noLower = math.MinInt64
)

// refQuery is a statement's meaning in the shape every template shares:
// Emp joined with Dept (and optionally the DepAvgSal view, whose join
// on did always matches), range restrictions on E.did, E.age and
// D.budget, and either a projection or a per-department aggregate.
type refQuery struct {
	did      int64 // E.did = did; -1 for none
	ageLT    int64 // E.age < ageLT
	ageGT    int64 // E.age > ageGT
	budgetGT int64 // D.budget > budgetGT
	salGTAvg bool  // E.sal > V.avgsal
	cols     []col // projected columns, when not groupBy
	groupBy  bool  // SELECT E.did, COUNT(*), SUM(E.sal) ... GROUP BY E.did
}

// workload is one seeded statement stream over one catalog.
type workload struct {
	name        string
	nEmp, nDept int
	remoteView  bool     // register RemAvgSal, a copy of DepAvgSal at site 1
	prepared    []string // statements prepared once at set-up
	warmup      func(g *gen) []op
	next        func(g *gen) op
}

// gen draws a workload's stream: op i depends only on the seed (through
// the random source and the generated data) and i.
type gen struct {
	w       *workload
	rng     *rand.Rand
	i       int
	nextEid int64
	perm    []int   // plan-miss template order
	budgets []int64 // Dept budgets, largest first
	edge    int     // -1 or +1 draws every literal at the low or high end of its range
}

// newGen starts w's stream over the generated Dept table. Budget
// literals are read off the data (the k-th largest budget), so a
// template selects the same number of departments whatever the seed.
func newGen(w *workload, seed int64, dept *storage.Table) *gen {
	g := &gen{w: w, rng: rand.New(rand.NewSource(seed*7919 + 17)), nextEid: int64(w.nEmp)}
	for _, r := range dept.Rows() {
		g.budgets = append(g.budgets, r[1].Int())
	}
	sort.Slice(g.budgets, func(i, j int) bool { return g.budgets[i] > g.budgets[j] })
	return g
}

// take returns the next n ops of the stream.
func (g *gen) take(n int) []op {
	ops := make([]op, n)
	for k := range ops {
		ops[k] = g.w.next(g)
		g.i++
	}
	return ops
}

func (g *gen) between(lo, hi int) int64 {
	switch g.edge {
	case -1:
		return int64(lo)
	case 1:
		return int64(hi)
	}
	return int64(lo + g.rng.Intn(hi-lo+1))
}

// workloads stress different layers; for each, one other workload
// bypasses what it stresses (see README.md).
var workloads = []*workload{
	// Cache hits: the front end, the hit path and execution, no DP search.
	{
		name: "serve-hot",
		nEmp: 20000, nDept: 400,
		prepared: []string{preparedPoint},
		warmup:   func(g *gen) []op { return warmAll(g, serveHot, 0, 4, 7, 9) },
		next:     func(g *gen) op { return serveHot(g, g.i) },
	},
	// More distinct statements than the plan cache holds: every op is
	// optimized, while execution touches one department.
	{
		name: "plan-miss",
		nEmp: 20000, nDept: 400, remoteView: true,
		// One warm-up op per family (extra joins x view x predicate):
		// templates f*127 share the one-column projection.
		warmup: func(g *gen) []op {
			return warmAll(g, planMiss, 0, 127, 254, 381, 508, 635, 762, 889, 1016, 1143, 1270, 1397)
		},
		next: func(g *gen) op {
			if g.perm == nil {
				g.perm = g.rng.Perm(planMissTemplates)
			}
			return planMiss(g, g.perm[g.i%len(g.perm)])
		},
	},
	// Analytic statements over 10x the data: execution dominates.
	{
		name: "scan-heavy",
		nEmp: 200000, nDept: 2000,
		warmup: func(g *gen) []op { return warmAll(g, scanHeavy, 0, 1, 2) },
		next:   func(g *gen) op { return scanHeavy(g, g.i) },
	},
	// serve-hot plus inserts: invalidation, stats rebuild, re-planning.
	{
		name: "write-mix",
		nEmp: 20000, nDept: 400,
		prepared: []string{preparedPoint},
		warmup:   func(g *gen) []op { return warmAll(g, serveHot, 0, 4, 7, 9) },
		next: func(g *gen) op {
			if g.i%writeEvery == writeEvery-1 {
				return insertOp(g)
			}
			return serveHot(g, g.i)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmAll returns the ops f draws at the given template indices, each
// once with every literal at the low end of its range and once at the
// high end. Selectivity classes are intervals, so the two cover every
// class the stream's literals fall in, and the stream finds every plan
// cached.
func warmAll(g *gen, f func(*gen, int) op, idx ...int) []op {
	var ops []op
	for _, t := range idx {
		for _, edge := range []int{-1, 1} {
			g.edge = edge
			ops = append(ops, f(g, t))
		}
	}
	g.edge = 0
	return ops
}

const preparedPoint = `SELECT E.eid, E.sal FROM Emp E, Dept D WHERE E.did = D.did AND E.age < ? AND E.did = ?`

// serveHot is the cache-hit mix, in a fixed ten-op cycle: 4 prepared
// point joins, 3 magic-view joins on one department, 2 literal point
// joins and 1 full Fig 1 query restricted to the 4-6 departments with
// the largest budgets. Every bind stays inside one class of the Fig 5
// sample grid. After an insert the view templates re-plan to computing
// the whole view (milliseconds against a fraction of one for the
// others), so they are kept at 40% of the cycle: with half, write-mix's
// median latency would fall in the gap between the two modes and jump
// from run to run.
func serveHot(g *gen, i int) op {
	did := g.between(0, g.w.nDept-1)
	age := g.between(22, 29)
	switch i % 10 {
	case 0, 1, 2, 3:
		return op{kind: opPrepared, stmt: 0, args: []any{int(age), int(did)},
			q: refQuery{did: did, ageLT: age, ageGT: noLower, budgetGT: noLower, cols: []col{cEid, cSal}}}
	case 4, 5, 6:
		budget := g.between(10000, 10500)
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal AND E.did = %d AND E.age < %d AND D.budget > %d`,
			did, age, budget),
			q: refQuery{did: did, ageLT: age, ageGT: noLower, budgetGT: budget, salGTAvg: true, cols: []col{cDid, cSal, cAvg}}}
	case 7, 8:
		budget := g.between(10000, 10500)
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.eid FROM Emp E, Dept D WHERE E.did = D.did AND E.did = %d AND D.budget > %d`, did, budget),
			q: refQuery{did: did, ageLT: noUpper, ageGT: noLower, budgetGT: budget, cols: []col{cEid}}}
	default:
		budget := g.budgets[g.between(4, 6)]
		age = g.between(26, 30)
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal AND E.age < %d AND D.budget > %d`,
			age, budget),
			q: refQuery{did: -1, ageLT: age, ageGT: noLower, budgetGT: budget, salGTAvg: true, cols: []col{cDid, cSal, cAvg}}}
	}
}

// planMissTemplates counts the plan-miss statement shapes: every
// non-empty projection of the seven columns, times 0-2 extra Dept
// joins, times the local or remote view, times with or without
// E.sal > V.avgsal.
const planMissTemplates = (1<<nCols - 1) * 3 * 2 * 2

func planMiss(g *gen, tmpl int) op {
	mask := tmpl%(1<<nCols-1) + 1
	family := tmpl / (1<<nCols - 1)
	extra := family % 3
	remote := family/3%2 == 1
	salPred := family/6 == 1

	var cols []col
	var names []string
	for c := col(0); c < nCols; c++ {
		if mask&(1<<c) != 0 {
			cols = append(cols, c)
			names = append(names, colSQL[c])
		}
	}
	view := "DepAvgSal"
	if remote {
		view = "RemAvgSal"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM Emp E, Dept D, %s V", strings.Join(names, ", "), view)
	for k := 2; k < extra+2; k++ {
		fmt.Fprintf(&b, ", Dept D%d", k)
	}
	b.WriteString(" WHERE E.did = D.did AND E.did = V.did")
	for k := 2; k < extra+2; k++ {
		fmt.Fprintf(&b, " AND E.did = D%d.did", k)
	}
	if salPred {
		b.WriteString(" AND E.sal > V.avgsal")
	}
	did := g.between(0, g.w.nDept-1)
	age := g.between(22, 29)
	fmt.Fprintf(&b, " AND E.did = %d AND E.age < %d", did, age)
	return op{kind: opQuery, text: b.String(),
		q: refQuery{did: did, ageLT: age, ageGT: noLower, budgetGT: noLower, salGTAvg: salPred, cols: cols}}
}

// scanHeavy cycles the three analytic templates.
func scanHeavy(g *gen, i int) op {
	switch i % 3 {
	case 0:
		age := g.between(26, 30)
		budget := g.budgets[g.between(190, 210)]
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal AND E.age < %d AND D.budget > %d`,
			age, budget),
			q: refQuery{did: -1, ageLT: age, ageGT: noLower, budgetGT: budget, salGTAvg: true, cols: []col{cDid, cSal, cAvg}}}
	case 1:
		budget := g.between(10000, 20000)
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.did, COUNT(*), SUM(E.sal) FROM Emp E, Dept D WHERE E.did = D.did AND D.budget > %d GROUP BY E.did`, budget),
			q: refQuery{did: -1, ageLT: noUpper, ageGT: noLower, budgetGT: budget, groupBy: true}}
	default:
		age := g.between(20, 22)
		return op{kind: opQuery, text: fmt.Sprintf(
			`SELECT E.eid, E.sal, D.budget FROM Emp E, Dept D WHERE E.did = D.did AND E.age > %d`, age),
			q: refQuery{did: -1, ageLT: noUpper, ageGT: age, budgetGT: noLower, cols: []col{cEid, cSal, cBudget}}}
	}
}

const (
	writeEvery = 50 // write-mix: every 50th op is an insert
	insertRows = 20
)

// insertOp adds insertRows new employees with fresh ids.
func insertOp(g *gen) op {
	rows := make([]empRow, insertRows)
	var b strings.Builder
	b.WriteString("INSERT INTO Emp VALUES ")
	for k := range rows {
		r := empRow{eid: g.nextEid, did: g.between(0, g.w.nDept-1),
			sal: float64(g.between(1000, 5999)), age: g.between(20, 64)}
		g.nextEid++
		rows[k] = r
		if k > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d.0, %d)", r.eid, r.did, int64(r.sal), r.age)
	}
	return op{kind: opInsert, text: b.String(), rows: rows}
}
