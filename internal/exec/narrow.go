package exec

import (
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// Late materialization (DESIGN.md §16). A join builds only the output
// columns its consumer reads, and never builds a row its residual
// rejects. The consumers that read a known column subset — Project and
// the aggregations — narrow their child once, when they are built, and
// remap their column references through the returned position map. The
// plan tree, the rows' values, their order and every cost counter are
// unchanged; only the width of the rows in flight shrinks.

// Narrower is implemented by operators that can emit a subset of their
// output columns.
type Narrower interface {
	Operator
	// Narrow restricts the emitted rows to the positions flagged in need,
	// which is indexed over the operator's current layout. It returns,
	// for every position of that layout, the column's position in the
	// rows emitted from now on (-1 = dropped), or nil when the layout
	// stays as it is. It must be called before Open.
	Narrow(need []bool) []int
}

// narrowChild asks child to build only the columns that mark flags. It
// looks through the layout-preserving Instrumented shim to the operator
// that builds the rows; mark fills need, indexed over that operator's
// layout, and reports false when it cannot name every column it reads.
// The result is the position map of Narrower.Narrow, nil when the child
// keeps its layout. Its callers are the consumers that read a known
// column subset: Project, GroupBy, StreamGroupBy and the key-set build.
// Operators that read every column — Distinct, Sort and the root Drain
// — never call it.
func narrowChild(child Operator, mark func(need []bool) bool) []int {
	for {
		switch s := child.(type) {
		case *Instrumented:
			child = s.Op
		case Narrower:
			need := make([]bool, s.Schema().Len())
			if !mark(need) {
				return nil
			}
			return s.Narrow(need)
		default:
			return nil
		}
	}
}

// markExprs is the mark function for a list of expressions.
func markExprs(need []bool, exprs []expr.Expr) bool {
	for _, e := range exprs {
		if !expr.MarkCols(e, need) {
			return false
		}
	}
	return true
}

// markIdx is the mark function for a list of column positions.
func markIdx(need []bool, idx []int) bool {
	for _, c := range idx {
		if c < 0 || c >= len(need) {
			return false
		}
		need[c] = true
	}
	return true
}

// remapIdx returns idx's positions rewritten through the position map m.
func remapIdx(idx, m []int) []int {
	out := make([]int, len(idx))
	for i, c := range idx {
		out[i] = m[c]
	}
	return out
}

// emitMode is how a JoinOutput builds the row for a kept match.
type emitMode uint8

const (
	emitFull   emitMode = iota // first‖second, the full layout
	emitGather                 // the flagged positions, gathered from both rows
	emitFirst                  // the first row itself, no copy
	emitSecond                 // the second row itself, no copy
)

// JoinOutput is the one place a join materializes its matches. A join's
// full output layout is first‖second: outer‖inner, or probe‖build for a
// probe-first hash join. Narrow picks the emitted subset; Match runs a
// candidate pair through the residual and builds the kept row.
//
// When every needed position lies on one side, the match emits that
// side's row itself; it needs no copy, and the side's positions carry
// over (shifted by the first side's width for the second side). Rows are
// immutable once emitted — TableScan already hands out storage rows — so
// the same row may flow out of the scan and the join.
type JoinOutput struct {
	first, second *schema.Schema
	full          *schema.Schema
	sch           *schema.Schema // emitted layout
	mode          emitMode
	firstIdx      []int // emitGather: emitted positions within the first row
	secondIdx     []int // emitGather: emitted positions within the second row

	// arenaOn carves materialized rows from arena (one slab allocation
	// per few thousand values) instead of one heap allocation per row.
	// The hash joins, which emit many rows per Open, turn it on at
	// construction; the other joins keep heap rows.
	arenaOn bool
	arena   value.RowArena
	scratch value.Row // residual input, reused for every candidate
}

// NewJoinOutput returns the output of a join whose rows are first‖second,
// emitting the full layout until narrowed.
func NewJoinOutput(first, second *schema.Schema) JoinOutput {
	full := first.Concat(second)
	return JoinOutput{first: first, second: second, full: full, sch: full}
}

// withArena returns o with arena-carved output rows.
func (o JoinOutput) withArena() JoinOutput {
	o.arenaOn = true
	return o
}

// Schema returns the emitted layout.
func (o *JoinOutput) Schema() *schema.Schema { return o.sch }

// Narrow implements the Narrower contract over the full layout. It
// declines (nil) when need covers every position, does not match the
// layout's width, or the output is already narrowed.
func (o *JoinOutput) Narrow(need []bool) []int {
	w1, w := o.first.Len(), o.full.Len()
	if o.mode != emitFull || len(need) != w {
		return nil
	}
	n, inFirst, inSecond := 0, true, true
	for i, b := range need {
		if !b {
			continue
		}
		n++
		if i < w1 {
			inSecond = false
		} else {
			inFirst = false
		}
	}
	if n == w {
		return nil
	}
	m := make([]int, w)
	for i := range m {
		m[i] = -1
	}
	switch {
	case inFirst:
		o.mode, o.sch = emitFirst, o.first
		for i := 0; i < w1; i++ {
			m[i] = i
		}
	case inSecond:
		o.mode, o.sch = emitSecond, o.second
		for i := w1; i < w; i++ {
			m[i] = i - w1
		}
	default:
		o.mode = emitGather
		cols := make([]int, 0, n)
		split := 0
		for i, b := range need {
			if b {
				m[i] = len(cols)
				cols = append(cols, i)
				if i < w1 {
					split++
				}
			}
		}
		o.sch = o.full.Project(cols)
		for i := split; i < len(cols); i++ {
			cols[i] -= w1
		}
		o.firstIdx, o.secondIdx = cols[:split], cols[split:]
	}
	return m
}

// fork returns a copy for a concurrent worker: the emit lists are shared
// read-only, the arena and the residual scratch are private.
func (o *JoinOutput) fork() JoinOutput {
	c := *o
	c.arena, c.scratch = value.RowArena{}, nil
	return c
}

// Match returns the output row for the candidate pair (first, second).
// A non-nil residual res is evaluated over first‖second in a reused
// scratch row — through its compiled form kern when that is non-nil —
// and a rejected pair builds nothing. Callers charge the candidate
// before calling, so an evaluation error leaves the charge in place.
func (o *JoinOutput) Match(first, second value.Row, res expr.Expr, kern *expr.Pred) (value.Row, bool, error) {
	if res != nil {
		o.scratch = append(append(o.scratch[:0], first...), second...)
		var (
			keep bool
			err  error
		)
		if kern != nil {
			keep, err = kern.EvalRow(o.scratch)
		} else {
			keep, err = expr.EvalBool(res, o.scratch)
		}
		if err != nil || !keep {
			return nil, false, err
		}
	}
	return o.emit(first, second), true, nil
}

// emit builds the output row for a kept pair.
func (o *JoinOutput) emit(first, second value.Row) value.Row {
	switch o.mode {
	case emitFirst:
		return first
	case emitSecond:
		return second
	case emitGather:
		n := len(o.firstIdx)
		out := o.alloc(n + len(o.secondIdx))
		for i, j := range o.firstIdx {
			out[i] = first[j]
		}
		for i, j := range o.secondIdx {
			out[n+i] = second[j]
		}
		return out
	}
	out := o.alloc(len(first) + len(second))
	copy(out, first)
	copy(out[len(first):], second)
	return out
}

func (o *JoinOutput) alloc(n int) value.Row {
	if o.arenaOn {
		return o.arena.Make(n)
	}
	return make(value.Row, n)
}
