package expr

// Remap rewrites every column reference in e through the mapping m, where
// m[oldIdx] is the new index (or -1 when the column is unavailable, which
// surfaces as an out-of-range error at evaluation time). The optimizer
// stores predicates in the query block's global column layout and remaps
// them into each physical plan's actual output layout.
func Remap(e Expr, m []int) Expr {
	switch p := e.(type) {
	case Col:
		ni := -1
		if p.Idx >= 0 && p.Idx < len(m) {
			ni = m[p.Idx]
		}
		return Col{Idx: ni, Name: p.Name}
	case Lit:
		return p
	case Param:
		// A parameter references no columns; bound or not, it remaps to
		// itself just like a literal.
		return p
	case Cmp:
		return Cmp{Op: p.Op, L: Remap(p.L, m), R: Remap(p.R, m)}
	case And:
		kids := make([]Expr, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = Remap(k, m)
		}
		return And{Kids: kids}
	case Or:
		kids := make([]Expr, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = Remap(k, m)
		}
		return Or{Kids: kids}
	case Not:
		return Not{Kid: Remap(p.Kid, m)}
	case Arith:
		return Arith{Op: p.Op, L: Remap(p.L, m), R: Remap(p.R, m)}
	default:
		return e
	}
}

// RemapAgg rewrites an aggregate spec's argument through m.
func RemapAgg(a AggSpec, m []int) AggSpec {
	out := a
	if a.Arg != nil {
		out.Arg = Remap(a.Arg, m)
	}
	return out
}

// Mappable reports whether every column e references has a non-negative
// image under m, i.e. the expression can be evaluated against the layout
// m maps into.
func Mappable(e Expr, m []int) bool {
	cols := map[int]bool{}
	e.CollectCols(cols)
	for c := range cols {
		if c < 0 || c >= len(m) || m[c] < 0 {
			return false
		}
	}
	return true
}

// MarkCols sets need[c] for every column c that e references (a nil e
// references none). It reports false when e references a column outside
// need or is of a kind it cannot see into; a caller that gets false must
// keep the layout e was bound against.
func MarkCols(e Expr, need []bool) bool {
	switch p := e.(type) {
	case nil, Lit, Param:
		return true
	case Col:
		if p.Idx < 0 || p.Idx >= len(need) {
			return false
		}
		need[p.Idx] = true
		return true
	case Cmp:
		return MarkCols(p.L, need) && MarkCols(p.R, need)
	case And:
		return markAll(p.Kids, need)
	case Or:
		return markAll(p.Kids, need)
	case Not:
		return MarkCols(p.Kid, need)
	case Arith:
		return MarkCols(p.L, need) && MarkCols(p.R, need)
	default:
		return false
	}
}

func markAll(kids []Expr, need []bool) bool {
	for _, k := range kids {
		if !MarkCols(k, need) {
			return false
		}
	}
	return true
}
