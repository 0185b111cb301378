package opt

import (
	"fmt"
	"math"
	"strings"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/dist"
	"filterjoin/internal/exec"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/stats"
	"filterjoin/internal/storage"
	"filterjoin/internal/udr"
)

// lg2 returns ceil(log2(n)) for n>1, else 0, as a float for CPU charges.
func lg2(n float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(n))
}

// pagesOf returns the page count of `rows` rows of width rowBytes.
func pagesOf(rows float64, rowBytes int) float64 {
	if rows <= 0 {
		return 0
	}
	rpp := storage.PageSize / rowBytes
	if rpp < 1 {
		rpp = 1
	}
	return math.Ceil(rows / float64(rpp))
}

// Candidate is one way to join an outer plan with an inner relation,
// priced but not yet built. Kind, Est and Ordering are everything the
// memo's dominance rule reads, so they are computed up front; the plan
// node — schema, statistics, column map, remapped residual, operator
// factory — is built only for a candidate the memo keeps (DESIGN.md
// §18, "Cost before construction").
type Candidate struct {
	Kind     string
	Est      cost.Estimate
	Ordering plan.Ordering
	// Detail renders the node's Detail string. The optimizer calls it
	// for a kept candidate's node and, under a tracer, for the event of
	// a pruned one.
	Detail func() string
	// Build completes a node that arrives with Kind, Detail, Est and
	// Ordering already set: children, cardinality and statistics,
	// output schema, column map, relation set and the Make factory.
	// It runs only when the memo keeps the candidate, so it must not
	// fail or touch optimizer state (temp names, traces, metrics).
	Build func(n *plan.Node)
}

// node builds the candidate's plan node.
func (cand *Candidate) node() *plan.Node {
	n := &plan.Node{Kind: cand.Kind, Detail: cand.Detail(), Est: cand.Est, Ordering: cand.Ordering}
	cand.Build(n)
	return plan.NewNode(n)
}

// JoinPair is what every join method shares when extending one outer
// plan with one inner relation: the applicable predicates, their split
// into equi-join column pairs and residual predicates, and the output
// cardinality. The output column map and statistics are computed on
// first use, once per pair, so a pair none of whose candidates the memo
// keeps never builds them.
type JoinPair struct {
	Ctx   *Ctx
	Outer *plan.Node
	Inner int // ordinal into Ctx.Rels

	Preds     []*PredInfo // every predicate the join makes evaluable
	OuterCols []int       // equi-join columns on the outer side (block layout)
	InnerCols []int       // their inner-side partners
	Residual  []*PredInfo // applicable predicates that are not equi pairs
	Rows      float64     // estimated output cardinality

	colMap   []int
	outStats *stats.RelStats
}

func (c *Ctx) newJoinPair(outer *plan.Node, inner int) *JoinPair {
	preds := c.ApplicablePreds(outer.Rels, inner)
	outerCols, innerCols, residual := c.equiSplit(preds, outer.Rels, inner)
	return &JoinPair{
		Ctx: c, Outer: outer, Inner: inner,
		Preds: preds, OuterCols: outerCols, InnerCols: innerCols, Residual: residual,
		Rows: c.joinRows(outer, inner, preds),
	}
}

// Rels is the relation set the join covers.
func (p *JoinPair) Rels() query.RelSet { return p.Outer.Rels.With(p.Inner) }

// ColMap is the block-layout column map of the join output: the outer's
// columns followed by the inner relation's.
func (p *JoinPair) ColMap() []int {
	if p.colMap == nil {
		p.colMap = p.Ctx.combinedColMap(p.Outer, p.Inner)
	}
	return p.colMap
}

// Shape fills in the parts of a join node that every method shares: the
// children, the estimated output cardinality and statistics, the output
// schema (outer columns, then the inner relation's), the column map and
// the relation set.
func (p *JoinPair) Shape(n *plan.Node, children ...*plan.Node) {
	if p.outStats == nil {
		p.outStats = p.Ctx.joinStats(p.Outer, p.Inner, p.Preds, p.Rows)
	}
	n.Children = children
	n.Rows = p.Rows
	n.Stats = p.outStats
	n.OutSchema = p.Outer.OutSchema.Concat(p.Ctx.Rels[p.Inner].Schema)
	n.ColMap = p.ColMap()
	n.Rels = p.Rels()
}

// builtinCandidates returns the standard join methods' candidates for
// the pair.
func (c *Ctx) builtinCandidates(p *JoinPair) []Candidate {
	out := make([]Candidate, 0, 8) // room for the Filter Join's too
	ri := c.Rels[p.Inner]
	keyed := len(p.OuterCols) > 0

	// Order propagation: every built-in method except the merge join
	// streams its outer input, so the outer's retained ordering survives,
	// widened by the columns the new equi predicates equate to its keys.
	// The merge join instead produces the order of its own key sequence
	// (see mergeJoin).
	ext := p.Outer.Ordering.ExtendEquiv(p.OuterCols, p.InnerCols)

	add := func(cand Candidate, ok bool) {
		if ok {
			out = append(out, cand)
		}
	}
	if ri.Access != nil {
		if keyed && c.O.methodEnabled("hash") {
			add(p.hashJoin(ext))
		}
		if keyed && c.O.methodEnabled("merge") {
			add(p.mergeJoin())
		}
		if c.O.methodEnabled("nlj") {
			out = append(out, p.nestedLoopJoin(ext))
		}
	}
	if keyed && ri.Entry.Kind == catalog.KindBase && c.O.methodEnabled("indexnl") {
		add(p.indexNLJoin(ext))
	}
	if keyed && ri.Entry.Kind == catalog.KindRemote && c.O.methodEnabled("fetchmatches") {
		add(p.fetchMatches(ext))
	}
	if ri.Entry.Kind == catalog.KindFunc && (c.O.methodEnabled("funcprobe") || c.O.methodEnabled("funcprobememo")) {
		out = p.funcProbes(ext, out)
	}
	return out
}

// keyDetail renders equi pairs as "E.did=D.did, ...".
func (c *Ctx) keyDetail(outerCols, innerCols []int) string {
	var b strings.Builder
	for i := range outerCols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Layout.Schema.Col(outerCols[i]).QualifiedName())
		b.WriteByte('=')
		b.WriteString(c.Layout.Schema.Col(innerCols[i]).QualifiedName())
	}
	return b.String()
}

// keyPositions is OuterKeyPositions for columns the cheap phase already
// found available.
func keyPositions(n *plan.Node, cols []int) []int {
	pos, _ := OuterKeyPositions(n, cols)
	return pos
}

func (p *JoinPair) hashJoin(ord plan.Ordering) (Candidate, bool) {
	outer, a := p.Outer, p.Ctx.Rels[p.Inner].Access
	if !KeysAvailable(outer, p.OuterCols) || !KeysAvailable(a, p.InnerCols) {
		return Candidate{}, false
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows + outer.Rows + p.Rows
	return Candidate{
		Kind: "HashJoin", Est: est, Ordering: ord,
		Detail: func() string { return p.Ctx.keyDetail(p.OuterCols, p.InnerCols) },
		Build: func(n *plan.Node) {
			p.Shape(n, outer, a)
			outerPos, innerPos := keyPositions(outer, p.OuterCols), keyPositions(a, p.InnerCols)
			res := ResidualExpr(p.Residual, p.ColMap())
			outerMk, innerMk := outer.Make, a.Make
			hint := int(a.Rows + 0.5) // pre-size the build table from the estimate
			dop := p.Ctx.O.DOP()
			if dop > 1 {
				n.Parallel = dop
			}
			n.Make = func() exec.Operator {
				build := innerMk()
				// The partitioned parallel path charges the same units as the
				// serial one and preserves probe order, so the estimate and
				// ordering above hold for both.
				if dop > 1 {
					j := exec.NewParallelHashJoinProbeFirst(build, outerMk(), innerPos, outerPos, res, dop)
					j.BuildSizeHint = hint
					return j
				}
				j := exec.NewHashJoinProbeFirst(build, outerMk(), innerPos, outerPos, res)
				j.BuildSizeHint = hint
				return j
			}
		},
	}, true
}

func (p *JoinPair) mergeJoin() (Candidate, bool) {
	outer, a := p.Outer, p.Ctx.Rels[p.Inner].Access
	// When the outer's retained ordering already covers the merge keys
	// ascending (in some pair permutation), the outer arrives sorted:
	// drop its sort from both the cost formula and the operator tree.
	oc, ic := p.OuterCols, p.InnerCols
	presorted := false
	if p.Ctx.O.orderAware() {
		oc, ic, presorted = reorderPairsForPresorted(outer.Ordering, oc, ic)
	}
	if !KeysAvailable(outer, oc) || !KeysAvailable(a, ic) {
		return Candidate{}, false
	}
	est := outer.Est.Plus(a.Est)
	est.CPUTuples += a.Rows*lg2(a.Rows) + 2*(outer.Rows+a.Rows) + p.Rows
	if !presorted {
		est.CPUTuples += outer.Rows * lg2(outer.Rows)
	}
	return Candidate{
		Kind: "MergeJoin", Est: est, Ordering: mergeOutputOrdering(oc, ic),
		Detail: func() string {
			if presorted {
				return p.Ctx.keyDetail(oc, ic) + " outer presorted"
			}
			return p.Ctx.keyDetail(oc, ic)
		},
		Build: func(n *plan.Node) {
			p.Shape(n, outer, a)
			outerPos, innerPos := keyPositions(outer, oc), keyPositions(a, ic)
			res := ResidualExpr(p.Residual, p.ColMap())
			outerMk, innerMk := outer.Make, a.Make
			n.Make = func() exec.Operator {
				return exec.NewMergeJoinPresorted(outerMk(), innerMk(), outerPos, innerPos, res, presorted, false)
			}
		},
	}, true
}

func (p *JoinPair) nestedLoopJoin(ord plan.Ordering) Candidate {
	outer, a := p.Outer, p.Ctx.Rels[p.Inner].Access
	pagesA := pagesOf(a.Rows, a.OutSchema.RowWidth())
	est := outer.Est.Plus(a.Est)
	est.PageWrites += pagesA
	est.PageReads += outer.Rows * pagesA
	est.CPUTuples += 2*outer.Rows*a.Rows + p.Rows
	// The temp name's number is drawn now, whether or not the candidate
	// is kept, so the optimizer's temp-name sequence does not depend on
	// pruning; only the string waits for Build.
	seq := p.Ctx.O.nextTempSeq()
	return Candidate{
		Kind: "NestedLoopJoin", Est: est, Ordering: ord,
		Detail: func() string { return predDetail(ResidualExpr(p.Preds, p.ColMap())) },
		Build: func(n *plan.Node) {
			p.Shape(n, outer, a)
			pred := ResidualExpr(p.Preds, p.ColMap())
			outerMk, innerMk := outer.Make, a.Make
			name := tempName("nlj", seq)
			n.Make = func() exec.Operator {
				return exec.NewNestedLoopJoin(outerMk(), exec.NewMaterialize(innerMk(), name), pred)
			}
		},
	}
}

func predDetail(p expr.Expr) string {
	if p == nil {
		return "cross"
	}
	return p.String()
}

// PickIndex selects the index on the inner (base or remote) relation
// whose key columns are all among innerCols (block layout), preferring
// the widest such index, then the fewest expected matches per probe,
// then the first by name. It returns nil if none applies, and otherwise
// the index with its expected matches per probe.
func PickIndex(ri *RelInfo, innerCols []int) (*storage.HashIndex, float64) {
	var best *storage.HashIndex
	var bestK float64
	for _, ix := range ri.Entry.Table.Indexes() {
		if !indexCovered(ix, ri.Offset, innerCols) {
			continue
		}
		k := matchesPerProbe(ri.RawStats, ix)
		wider := best == nil || len(ix.Cols()) > len(best.Cols())
		if wider || len(ix.Cols()) == len(best.Cols()) && k < bestK {
			best, bestK = ix, k
		}
	}
	return best, bestK
}

// indexCovered reports whether every key column of ix (relation-local)
// is among the block-layout columns cols of a relation at offset.
func indexCovered(ix *storage.HashIndex, offset int, cols []int) bool {
	for _, ic := range ix.Cols() {
		if indexOf(cols, offset+ic) < 0 {
			return false
		}
	}
	return true
}

// indexOf returns the position of v in s, or -1.
func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// matchesPerProbe is the expected number of rows one probe of ix finds:
// the relation's rows over the index key's cardinality.
func matchesPerProbe(raw *stats.RelStats, ix *storage.HashIndex) float64 {
	var buf [4]float64
	distincts := buf[:0]
	for _, ic := range ix.Cols() {
		distincts = append(distincts, raw.DistinctOf(ic))
	}
	keyCard := stats.ProjectionCardinality(raw.Rows, distincts)
	if keyCard < 1 {
		keyCard = 1
	}
	return raw.Rows / keyCard
}

// indexJoin is the priced part of an index-driven join (index
// nested-loops, fetch-matches): the chosen index, expected matches per
// probe and pages fetched per probe.
type indexJoin struct {
	ix         *storage.HashIndex
	k          float64
	matchPages float64
}

// indexJoinShape prices an index-driven join, or reports false when no
// index applies or an index key's outer partner is not available.
func (p *JoinPair) indexJoinShape() (indexJoin, bool) {
	ri := p.Ctx.Rels[p.Inner]
	ix, k := PickIndex(ri, p.InnerCols)
	if ix == nil {
		return indexJoin{}, false
	}
	for _, ic := range ix.Cols() {
		j := indexOf(p.InnerCols, ri.Offset+ic)
		if !KeysAvailable(p.Outer, p.OuterCols[j:j+1]) {
			return indexJoin{}, false
		}
	}
	raw, t := ri.RawStats, ri.Entry.Table
	var run float64
	if len(ix.Cols()) > 0 {
		run = raw.SortedRunOn(ix.Cols()[0])
	}
	matchPages := stats.MatchPages(raw.Rows, float64(t.NumPages()), k, t.RowsPerPage(), run)
	return indexJoin{ix: ix, k: k, matchPages: matchPages}, true
}

// indexJoinExec builds the executable pieces of an index-driven join:
// the outer key positions aligned with the index columns, and the
// residual predicate — every applicable predicate except the equi pairs
// the index covers, plus the relation's local predicate (an index fetch
// bypasses the leaf).
func (p *JoinPair) indexJoinExec(ix *storage.HashIndex) (outerPos []int, residual expr.Expr) {
	ri := p.Ctx.Rels[p.Inner]
	covered := make([]bool, len(p.InnerCols))
	outerPos = make([]int, len(ix.Cols()))
	for i, ic := range ix.Cols() {
		j := indexOf(p.InnerCols, ri.Offset+ic)
		outerPos[i] = p.Outer.ColMap[p.OuterCols[j]]
		covered[j] = true
	}
	var rest []*PredInfo
	for _, pr := range p.Preds {
		used := false
		if pr.EquiL >= 0 {
			for j := range p.InnerCols {
				if covered[j] && (pr.EquiL == p.InnerCols[j] || pr.EquiR == p.InnerCols[j]) &&
					(pr.EquiL == p.OuterCols[j] || pr.EquiR == p.OuterCols[j]) {
					used = true
					break
				}
			}
		}
		if !used {
			rest = append(rest, pr)
		}
	}
	return outerPos, p.withLocalPred(ResidualExpr(rest, p.ColMap()))
}

// withLocalPred conjoins the inner relation's local predicate, remapped
// into the join output, onto residual.
func (p *JoinPair) withLocalPred(residual expr.Expr) expr.Expr {
	ri := p.Ctx.Rels[p.Inner]
	if ri.LocalPred == nil {
		return residual
	}
	lp := expr.Remap(ri.LocalPred, p.ColMap())
	if residual == nil {
		return lp
	}
	return expr.NewAnd(residual, lp)
}

func (p *JoinPair) indexNLJoin(ord plan.Ordering) (Candidate, bool) {
	sh, ok := p.indexJoinShape()
	if !ok {
		return Candidate{}, false
	}
	outer := p.Outer
	est := outer.Est
	est.PageReads += outer.Rows * (1 + sh.matchPages)
	est.CPUTuples += outer.Rows * (sh.k + 1)
	return Candidate{
		Kind: "IndexNLJoin", Est: est, Ordering: ord,
		Detail: func() string { return p.Ctx.keyDetail(p.OuterCols, p.InnerCols) + " via " + sh.ix.Name() },
		Build: func(n *plan.Node) {
			p.Shape(n, outer)
			outerPos, residual := p.indexJoinExec(sh.ix)
			outerMk := outer.Make
			ri := p.Ctx.Rels[p.Inner]
			t, ix, alias := ri.Entry.Table, sh.ix, ri.Ref.Binding()
			n.Make = func() exec.Operator {
				return exec.NewIndexNLJoin(outerMk(), t, ix, outerPos, residual, alias)
			}
		},
	}, true
}

func (p *JoinPair) fetchMatches(ord plan.Ordering) (Candidate, bool) {
	sh, ok := p.indexJoinShape()
	if !ok {
		return Candidate{}, false
	}
	ri := p.Ctx.Rels[p.Inner]
	t := ri.Entry.Table
	keyBytes := 0
	for _, col := range sh.ix.Cols() {
		keyBytes += t.Schema().Col(col).Type.Width()
	}
	rowBytes := t.Schema().RowWidth()
	outer := p.Outer
	est := outer.Est
	est.NetMsgs += outer.Rows
	est.NetBytes += outer.Rows * (float64(keyBytes) + sh.k*float64(rowBytes))
	est.PageReads += outer.Rows * (1 + sh.matchPages)
	est.CPUTuples += outer.Rows * (sh.k + 1)
	site := ri.Entry.Site
	return Candidate{
		Kind: "FetchMatches", Est: est, Ordering: ord,
		Detail: func() string { return fmt.Sprintf("%s @site%d", p.Ctx.keyDetail(p.OuterCols, p.InnerCols), site) },
		Build: func(n *plan.Node) {
			p.Shape(n, outer)
			outerPos, residual := p.indexJoinExec(sh.ix)
			outerMk := outer.Make
			ix, alias := sh.ix, ri.Ref.Binding()
			n.Make = func() exec.Operator {
				return dist.NewFetchMatchesJoin(outerMk(), t, ix, outerPos, residual, alias, site)
			}
		},
	}, true
}

// funcProbes appends the function-probe candidates (plain and memoized
// invocation) for a function-backed inner relation to out.
func (p *JoinPair) funcProbes(ord plan.Ordering, out []Candidate) []Candidate {
	ri := p.Ctx.Rels[p.Inner]
	e := ri.Entry
	// Every argument column must be bound by an equi predicate from the
	// outer; otherwise the function cannot be invoked at this position.
	argOuter := make([]int, len(e.ArgCols))
	used := make([]bool, len(p.InnerCols))
	for i, a := range e.ArgCols {
		j := indexOf(p.InnerCols, ri.Offset+a)
		if j < 0 {
			return out
		}
		argOuter[i] = p.OuterCols[j]
		used[j] = true
	}
	if !KeysAvailable(p.Outer, argOuter) {
		return out
	}
	perCall := e.FnPerCall
	if perCall <= 0 {
		perCall = 1
	}
	if ri.RawStats != nil && ri.RawStats.Rows > 0 {
		distincts := make([]float64, len(e.ArgCols))
		for i, a := range e.ArgCols {
			distincts[i] = ri.RawStats.DistinctOf(a)
		}
		dom := stats.ProjectionCardinality(ri.RawStats.Rows, distincts)
		if dom >= 1 {
			perCall = ri.RawStats.Rows / dom
		}
	}
	outer := p.Outer
	// build completes a probe-join node; memo selects the memoized
	// operator. The residual is every unused equi predicate, every
	// non-equi predicate and the relation's local predicate.
	build := func(n *plan.Node, memo bool) {
		p.Shape(n, outer)
		var rest []*PredInfo
		for _, pr := range p.Preds {
			isBinding := false
			if pr.EquiL >= 0 {
				for j := range p.InnerCols {
					if used[j] && (pr.EquiL == p.InnerCols[j] || pr.EquiR == p.InnerCols[j]) {
						isBinding = true
						break
					}
				}
			}
			if !isBinding {
				rest = append(rest, pr)
			}
		}
		residual := p.withLocalPred(ResidualExpr(rest, p.ColMap()))
		argPos := keyPositions(outer, argOuter)
		outerMk, alias := outer.Make, ri.Ref.Binding()
		n.Make = func() exec.Operator {
			return udr.NewProbeJoin(outerMk(), e, argPos, residual, memo, alias)
		}
	}

	// Plain repeated invocation.
	if p.Ctx.O.methodEnabled("funcprobe") {
		est := outer.Est
		est.FnCalls += outer.Rows
		est.CPUTuples += outer.Rows*(perCall+1) + p.Rows
		out = append(out, Candidate{
			Kind: "FuncProbe", Est: est, Ordering: ord,
			Detail: func() string { return fmt.Sprintf("%s(%d args)", e.Name, len(e.ArgCols)) },
			Build:  func(n *plan.Node) { build(n, false) },
		})
	}
	// Memoized invocation: one call per distinct binding.
	if p.Ctx.O.methodEnabled("funcprobememo") {
		dcols := make([]float64, len(argOuter))
		for i, col := range argOuter {
			dcols[i] = p.Ctx.DistinctOfBlockCol(outer, col)
		}
		d := stats.ProjectionCardinality(outer.Rows, dcols)
		est := outer.Est
		est.FnCalls += d
		est.CPUTuples += outer.Rows + d*perCall + outer.Rows*perCall + p.Rows
		out = append(out, Candidate{
			Kind: "FuncProbeMemo", Est: est, Ordering: ord,
			Detail: func() string { return fmt.Sprintf("%s(%d args), ~%.0f distinct", e.Name, len(e.ArgCols), d) },
			Build:  func(n *plan.Node) { build(n, true) },
		})
	}
	return out
}
