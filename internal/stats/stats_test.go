package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

func sampleTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	s := schema.New(
		schema.Column{Table: "t", Name: "k", Type: value.KindInt},
		schema.Column{Table: "t", Name: "v", Type: value.KindFloat},
		schema.Column{Table: "t", Name: "s", Type: value.KindString},
	)
	tb := storage.NewTable("t", s)
	for i := 0; i < n; i++ {
		var sv value.Value = value.NewString(string(rune('a' + i%5)))
		if i%10 == 0 {
			sv = value.Null
		}
		tb.MustInsert(value.NewInt(int64(i/4)), value.NewFloat(float64(i%100)), sv)
	}
	return tb
}

func TestCollectBasics(t *testing.T) {
	tb := sampleTable(t, 400)
	st := Collect(tb)
	if st.Rows != 400 {
		t.Errorf("Rows = %g", st.Rows)
	}
	if st.Cols[0].Distinct != 100 {
		t.Errorf("k distinct = %g, want 100", st.Cols[0].Distinct)
	}
	if !st.Cols[0].Sorted {
		t.Error("k is inserted non-decreasing; Sorted must be true")
	}
	if st.Cols[1].Sorted {
		t.Error("v cycles; Sorted must be false")
	}
	if !st.Cols[0].HasRange || st.Cols[0].Min != 0 || st.Cols[0].Max != 99 {
		t.Errorf("k range = [%g,%g]", st.Cols[0].Min, st.Cols[0].Max)
	}
	if st.Cols[2].NullFrac != 0.1 {
		t.Errorf("s null fraction = %g", st.Cols[2].NullFrac)
	}
	if st.Cols[2].Distinct != 5 {
		t.Errorf("s distinct = %g", st.Cols[2].Distinct)
	}
	if st.Cols[2].Hist != nil {
		t.Error("string column has no histogram")
	}
}

func TestScaleCapsDistinct(t *testing.T) {
	st := &RelStats{Rows: 100, Cols: []ColStats{{Distinct: 80}}}
	sc := st.Scale(0.1)
	if sc.Rows != 10 {
		t.Errorf("Rows = %g", sc.Rows)
	}
	if sc.Cols[0].Distinct != 10 {
		t.Errorf("Distinct = %g, want capped at 10", sc.Cols[0].Distinct)
	}
	if st.Cols[0].Distinct != 80 {
		t.Error("Scale must not mutate the input")
	}
	if st.Scale(2).Rows != 100 {
		t.Error("fraction is clamped to [0,1]")
	}
}

func TestConcat(t *testing.T) {
	l := &RelStats{Rows: 10, Cols: []ColStats{{Distinct: 5}}}
	r := &RelStats{Rows: 20, Cols: []ColStats{{Distinct: 15}}}
	c := Concat(l, r, 8)
	if len(c.Cols) != 2 || c.Rows != 8 {
		t.Errorf("Concat shape wrong: %+v", c)
	}
	if c.Cols[0].Distinct != 5 || c.Cols[1].Distinct != 8 {
		t.Errorf("distincts = %g, %g", c.Cols[0].Distinct, c.Cols[1].Distinct)
	}
}

func TestDistinctOfFallback(t *testing.T) {
	st := &RelStats{Rows: 42, Cols: []ColStats{{Distinct: 0}}}
	if st.DistinctOf(0) != 42 {
		t.Error("unknown distinct falls back to row count")
	}
	if st.DistinctOf(9) != 42 {
		t.Error("out-of-range falls back to row count")
	}
}

func TestProjectionCardinalitySingleColumnExact(t *testing.T) {
	if got := ProjectionCardinality(1000, []float64{40}); got != 40 {
		t.Errorf("single column distinct is exact: %g", got)
	}
	if got := ProjectionCardinality(30, []float64{40}); got != 30 {
		t.Errorf("capped by rows: %g", got)
	}
}

func TestProjectionCardinalityMultiColumnBounds(t *testing.T) {
	f := func(rows uint16, d1, d2 uint8) bool {
		r := float64(rows%5000) + 1
		a := float64(d1%100) + 1
		b := float64(d2%100) + 1
		card := ProjectionCardinality(r, []float64{a, b})
		upper := math.Min(r, a*b)
		lower := math.Max(a, b)
		if lower > upper {
			lower = upper
		}
		return card >= lower-1e-9 && card <= upper+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestYaoPages(t *testing.T) {
	if YaoPages(1000, 100, 0) != 0 {
		t.Error("k=0 touches nothing")
	}
	if YaoPages(1000, 100, 1000) != 100 {
		t.Error("fetching everything touches every page")
	}
	mid := YaoPages(1000, 100, 50)
	if mid <= 1 || mid > 100 {
		t.Errorf("YaoPages(50) = %g out of range", mid)
	}
	// Monotone in k.
	if YaoPages(1000, 100, 100) <= YaoPages(1000, 100, 10) {
		t.Error("more records touch more pages")
	}
}

func TestMatchPagesClustered(t *testing.T) {
	cl := MatchPages(10000, 100, 50, 100, 10000)
	sc := MatchPages(10000, 100, 50, 100, 0)
	if cl >= sc {
		t.Errorf("clustered (%g) must beat scattered (%g) for k=50", cl, sc)
	}
	if MatchPages(10000, 100, 50, 100, 10000) > 100 {
		t.Error("clustered is capped by table pages")
	}
	if MatchPages(0, 0, 10, 100, 0) != 0 {
		t.Error("empty table")
	}
}

// matchPagesFlag is MatchPages as it was before sorted runs: a yes/no
// clustering flag choosing between the contiguous and the Yao estimate.
func matchPagesFlag(n, m, k float64, rowsPerPage int, clustered bool) float64 {
	if k <= 0 || m <= 0 {
		return 0
	}
	if clustered {
		if rowsPerPage < 1 {
			rowsPerPage = 1
		}
		p := math.Ceil(k/float64(rowsPerPage)) + 1
		if p > m {
			p = m
		}
		return p
	}
	return YaoPages(n, m, k)
}

// matchPagesCase draws a probe geometry: n rows, rowsPerPage, the pages
// they fill (or, one time in four, any page count), and k matches.
func matchPagesCase(r *rand.Rand) (n, m, k float64, rpp int) {
	n = float64(1 + r.Intn(100000))
	rpp = r.Intn(200)
	m = math.Ceil(n / math.Max(1, float64(rpp)))
	if r.Intn(4) == 0 {
		m = float64(r.Intn(2000))
	}
	k = n * math.Pow(r.Float64(), 3)
	if r.Intn(8) == 0 {
		k = float64(r.Intn(3))
	}
	return n, m, k, rpp
}

// TestMatchPagesEndpoints pins the sorted-run estimate to the flag
// formulas bit for bit at both ends: a run covering the table is the
// clustered estimate, a run shorter than one page the Yao estimate.
func TestMatchPagesEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		n, m, k, rpp := matchPagesCase(r)
		cl, sc := matchPagesFlag(n, m, k, rpp, true), matchPagesFlag(n, m, k, rpp, false)
		for _, run := range []float64{n, n + 1} {
			if got := MatchPages(n, m, k, rpp, run); got != cl {
				t.Fatalf("MatchPages(%g, %g, %g, %d, run=%g) = %v, clustered formula %v", n, m, k, rpp, run, got, cl)
			}
		}
		for _, run := range []float64{0, math.Max(0, float64(rpp)-1), math.Floor(float64(rpp) / 2)} {
			if run >= n {
				continue
			}
			if got := MatchPages(n, m, k, rpp, run); got != sc {
				t.Fatalf("MatchPages(%g, %g, %g, %d, run=%g) = %v, Yao %v", n, m, k, rpp, run, got, sc)
			}
		}
	}
}

// TestMatchPagesSortedRunMonotone checks that the estimate moves
// monotonically from the Yao estimate to the clustered one as the run
// grows, never leaves the range between them and never exceeds m. When
// clustering helps (the clustered estimate is at most Yao's, true for
// every k beyond a couple of rows) that means non-increasing; for k
// near 1 the clustered formula's straddle page makes it exceed Yao's,
// and the estimate rises to it instead.
func TestMatchPagesSortedRunMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		n, m, k, rpp := matchPagesCase(r)
		cl, sc := MatchPages(n, m, k, rpp, n), MatchPages(n, m, k, rpp, 0)
		lo, hi := math.Min(cl, sc), math.Max(cl, sc)
		if hi > math.Max(m, 0) {
			t.Fatalf("endpoint above m=%g: clustered %g, Yao %g", m, cl, sc)
		}
		prev := sc
		for j := 0; j <= 64; j++ {
			run := math.Floor(n * float64(j) / 64)
			got := MatchPages(n, m, k, rpp, run)
			if got < lo-1e-9 || got > hi+1e-9 {
				t.Fatalf("MatchPages(%g, %g, %g, %d, run=%g) = %g outside [%g, %g]", n, m, k, rpp, run, got, lo, hi)
			}
			if cl <= sc && got > prev+1e-9 || cl > sc && got < prev-1e-9 {
				t.Fatalf("MatchPages(%g, %g, %g, %d, run=%g) = %g moves away from clustered %g (previous %g)",
					n, m, k, rpp, run, got, cl, prev)
			}
			prev = got
		}
		if prev != cl {
			t.Fatalf("full run gives %g, clustered %g", prev, cl)
		}
	}
	// The Fig 1 shape: 20,000 rows clustered on did (128 rows a page,
	// 50 rows a key) with 20 rows appended: the estimate stays within a
	// page of the clustered one instead of jumping to Yao's.
	n, rpp := 20020.0, 128
	m := math.Ceil(n / float64(rpp))
	k := n / 400
	if got, cl := MatchPages(n, m, k, rpp, 20000), MatchPages(n, m, k, rpp, n); got > cl+1 {
		t.Errorf("20 appended rows: %g pages, clustered %g, Yao %g", got, cl, MatchPages(n, m, k, rpp, 0))
	}
}

func TestJoinSelectivity(t *testing.T) {
	if JoinSelectivity(100, 50) != 1.0/100 {
		t.Error("1/max(d1,d2)")
	}
	if JoinSelectivity(0, 0) != 1 {
		t.Error("degenerate distincts clamp to 1")
	}
}

func TestSelectivityShapes(t *testing.T) {
	tb := sampleTable(t, 400) // k: 0..99 uniform ×4
	st := Collect(tb)
	col := expr.NewCol(0, "k")

	eq := Selectivity(expr.NewCmp(expr.EQ, col, expr.Int(5)), st)
	if eq < 0.005 || eq > 0.02 {
		t.Errorf("eq selectivity = %g, want ≈ 0.01", eq)
	}
	lt := Selectivity(expr.NewCmp(expr.LT, col, expr.Int(50)), st)
	if lt < 0.4 || lt > 0.6 {
		t.Errorf("lt selectivity = %g, want ≈ 0.5", lt)
	}
	gt := Selectivity(expr.NewCmp(expr.GT, col, expr.Int(50)), st)
	if gt < 0.4 || gt > 0.6 {
		t.Errorf("gt selectivity = %g, want ≈ 0.5", gt)
	}
	flipped := Selectivity(expr.NewCmp(expr.GT, expr.Int(50), col), st)
	if math.Abs(flipped-lt) > 0.05 {
		t.Errorf("50 > k (%g) should approximate k < 50 (%g)", flipped, lt)
	}
	ne := Selectivity(expr.NewCmp(expr.NE, col, expr.Int(5)), st)
	if math.Abs(ne-(1-eq)) > 1e-9 {
		t.Error("NE = 1 - EQ")
	}
}

func TestSelectivityConnectives(t *testing.T) {
	tb := sampleTable(t, 400)
	st := Collect(tb)
	col := expr.NewCol(0, "k")
	a := expr.NewCmp(expr.LT, col, expr.Int(50))
	b := expr.NewCmp(expr.GE, col, expr.Int(25))
	and := Selectivity(expr.NewAnd(a, b), st)
	sa, sb := Selectivity(a, st), Selectivity(b, st)
	if math.Abs(and-sa*sb) > 1e-9 {
		t.Error("AND multiplies under independence")
	}
	or := Selectivity(expr.NewOr(a, b), st)
	if math.Abs(or-(sa+sb-sa*sb)) > 1e-9 {
		t.Error("OR uses inclusion-exclusion")
	}
	not := Selectivity(expr.Not{Kid: a}, st)
	if math.Abs(not-(1-sa)) > 1e-9 {
		t.Error("NOT complements")
	}
}

func TestSelectivityLiteralsAndDefaults(t *testing.T) {
	st := &RelStats{Rows: 10, Cols: []ColStats{{}}}
	if Selectivity(expr.NewLit(value.NewBool(true)), st) != 1 {
		t.Error("TRUE has selectivity 1")
	}
	if Selectivity(expr.NewLit(value.NewBool(false)), st) != 0 {
		t.Error("FALSE has selectivity 0")
	}
	// Column-vs-column equality inside one relation.
	two := &RelStats{Rows: 100, Cols: []ColStats{{Distinct: 10}, {Distinct: 20}}}
	got := Selectivity(expr.Eq(expr.NewCol(0, "a"), expr.NewCol(1, "b")), two)
	if got != 1.0/20 {
		t.Errorf("col=col selectivity = %g", got)
	}
}

func TestSelectivityBounded(t *testing.T) {
	tb := sampleTable(t, 200)
	st := Collect(tb)
	f := func(lit int16, opPick uint8) bool {
		ops := []expr.CmpOp{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
		e := expr.NewCmp(ops[int(opPick)%len(ops)], expr.NewCol(0, "k"), expr.Int(int64(lit)))
		s := Selectivity(e, st)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
