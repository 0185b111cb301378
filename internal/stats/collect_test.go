package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// collectColumnOracle is the map-based column collector Collect replaced:
// it keys every non-NULL value through value.Row.Key into a map and
// builds the histogram with BuildHistogram's copy-and-sort. Collect must
// reproduce every ColStats field it computes.
func collectColumnOracle(t *storage.Table, c int) ColStats {
	var (
		distinct = map[string]bool{}
		nulls    int
		numeric  []float64
		isNum    = true
		sorted   = true
		prev     value.Value
		havePrev bool
	)
	for _, r := range t.Rows() {
		v := r[c]
		if v.IsNull() {
			nulls++
			continue
		}
		if havePrev && value.Compare(prev, v) > 0 {
			sorted = false
		}
		prev, havePrev = v, true
		distinct[r.Key([]int{c})] = true
		if f, ok := v.AsFloat(); ok {
			numeric = append(numeric, f)
		} else {
			isNum = false
		}
	}
	cs := ColStats{Distinct: float64(len(distinct)), Sorted: sorted && havePrev}
	if n := t.NumRows(); n > 0 {
		cs.NullFrac = float64(nulls) / float64(n)
	}
	if isNum && len(numeric) > 0 {
		sort.Float64s(numeric)
		cs.HasRange = true
		cs.Min = numeric[0]
		cs.Max = numeric[len(numeric)-1]
		cs.Hist = BuildHistogram(numeric, DefaultHistogramBuckets)
	}
	return cs
}

// nanSentinel stands in for NaN before reflect.DeepEqual, which treats
// NaN as unequal to itself. The generators never produce it.
const nanSentinel = -123456.789e-200

func canonNaN(f float64) float64 {
	if math.IsNaN(f) {
		return nanSentinel
	}
	return f
}

// parityView returns cs with SortedRun cleared and every NaN replaced by
// nanSentinel, on a private copy of the histogram.
func parityView(cs ColStats) ColStats {
	cs.SortedRun = 0
	cs.Min, cs.Max = canonNaN(cs.Min), canonNaN(cs.Max)
	if cs.Hist != nil {
		h := *cs.Hist
		h.bounds = append([]float64(nil), h.bounds...)
		for i, b := range h.bounds {
			h.bounds[i] = canonNaN(b)
		}
		cs.Hist = &h
	}
	return cs
}

// Value classes the parity test mixes into a column; each stresses one
// rule deciding whether float order decides key equality.
var (
	nullClass     = func(*rand.Rand) value.Value { return value.Null }
	smallIntClass = func(r *rand.Rand) value.Value { return value.NewInt(int64(r.Intn(11) - 5)) }
	bigIntClass   = func(r *rand.Rand) value.Value {
		return value.NewInt([]int64{1<<53 + 1, 1 << 53, 1<<53 + 2, -(1<<53 + 1), math.MaxInt64, math.MinInt64}[r.Intn(6)])
	}
	floatClasses = []func(r *rand.Rand) value.Value{
		nullClass, smallIntClass, bigIntClass,
		func(r *rand.Rand) value.Value { return value.NewFloat(float64(r.Intn(11) - 5)) }, // ints stored as floats
		func(r *rand.Rand) value.Value { return value.NewFloat([]float64{math.Copysign(0, -1), 0}[r.Intn(2)]) },
		func(*rand.Rand) value.Value { return value.NewFloat(math.NaN()) },
		func(r *rand.Rand) value.Value {
			return value.NewFloat([]float64{1 << 53, 1<<53 + 2, 1e300, -1e19, math.Inf(1), math.Inf(-1)}[r.Intn(6)])
		},
		func(r *rand.Rand) value.Value {
			return value.NewFloat(float64(r.Intn(9)-4) + []float64{0.5, 0.25, 1e-9}[r.Intn(3)])
		},
	}
	// columnClasses lists, per storable column type, the classes its
	// values may come from (storage accepts ints in float columns and
	// NULL anywhere, nothing else mixed).
	columnClasses = []struct {
		kind    value.Kind
		classes []func(r *rand.Rand) value.Value
	}{
		{value.KindFloat, floatClasses},
		{value.KindInt, []func(r *rand.Rand) value.Value{nullClass, smallIntClass, bigIntClass}},
		{value.KindString, []func(r *rand.Rand) value.Value{nullClass,
			func(r *rand.Rand) value.Value { return value.NewString(string(rune('a' + r.Intn(4)))) }}},
		{value.KindBool, []func(r *rand.Rand) value.Value{nullClass,
			func(r *rand.Rand) value.Value { return value.NewBool(r.Intn(2) == 0) }}},
	}
)

// randomTable builds a table whose columns each draw from a random
// subset of their type's value classes; some columns are stored sorted,
// some sorted with an unsorted tail appended.
func randomTable(r *rand.Rand) *storage.Table {
	const ncols = 6
	n := r.Intn(80)
	if r.Intn(10) == 0 {
		n = 0
	}
	cols := make([][]value.Value, ncols)
	sc := make([]schema.Column, ncols)
	for c := range cols {
		typ := columnClasses[r.Intn(len(columnClasses))]
		sc[c] = schema.Column{Table: "r", Name: string(rune('a' + c)), Type: typ.kind}
		var classes []func(*rand.Rand) value.Value
		for _, g := range typ.classes {
			if r.Intn(2) == 0 {
				classes = append(classes, g)
			}
		}
		if len(classes) == 0 {
			classes = []func(*rand.Rand) value.Value{nullClass}
		}
		vs := make([]value.Value, n)
		for i := range vs {
			vs[i] = classes[r.Intn(len(classes))](r)
		}
		switch r.Intn(3) {
		case 0:
			sort.SliceStable(vs, func(i, j int) bool { return value.Compare(vs[i], vs[j]) < 0 })
		case 1:
			head := r.Intn(n + 1)
			sort.SliceStable(vs[:head], func(i, j int) bool { return value.Compare(vs[i], vs[j]) < 0 })
		}
		cols[c] = vs
	}
	tb := storage.NewTable("r", schema.New(sc...))
	for i := 0; i < n; i++ {
		row := make(value.Row, ncols)
		for c := range row {
			row[c] = cols[c][i]
		}
		tb.MustInsert(row...)
	}
	return tb
}

func TestCollectMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		tb := randomTable(r)
		got := Collect(tb)
		for c := range got.Cols {
			want := collectColumnOracle(tb, c)
			if g, w := parityView(got.Cols[c]), parityView(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("table %d column %d (%v):\n got %+v hist %+v\nwant %+v hist %+v",
					iter, c, columnValues(tb, c), g, g.Hist, w, w.Hist)
			}
		}
	}
}

func columnValues(tb *storage.Table, c int) []value.Value {
	out := make([]value.Value, tb.NumRows())
	for i, r := range tb.Rows() {
		out[i] = r[c]
	}
	return out
}

func TestCollectSortedRun(t *testing.T) {
	ints := func(vs ...any) *storage.Table {
		tb := storage.NewTable("t", schema.New(schema.Column{Table: "t", Name: "k", Type: value.KindInt}))
		for _, v := range vs {
			if v == nil {
				tb.MustInsert(value.Null)
			} else {
				tb.MustInsert(value.NewInt(int64(v.(int))))
			}
		}
		return tb
	}
	for _, tc := range []struct {
		name   string
		tb     *storage.Table
		run    float64
		sorted bool
	}{
		{"empty", ints(), 0, false},
		{"all NULL", ints(nil, nil), 0, false},
		{"sorted", ints(1, 2, 2, 3), 4, true},
		{"NULLs do not break the run", ints(nil, 1, nil, 2, 3, nil), 6, true},
		{"appended tail", ints(1, 2, 3, 4, 0, 9), 4, false},
		{"NULL before the break counts", ints(1, 5, nil, 4), 3, false},
		{"descending", ints(3, 2, 1), 1, false},
	} {
		st := Collect(tc.tb)
		if cs := st.Cols[0]; cs.SortedRun != tc.run || cs.Sorted != tc.sorted {
			t.Errorf("%s: SortedRun=%g Sorted=%v, want %g %v", tc.name, cs.SortedRun, cs.Sorted, tc.run, tc.sorted)
		}
		if got := st.SortedRunOn(0); got != tc.run {
			t.Errorf("%s: SortedRunOn(0)=%g", tc.name, got)
		}
	}
	if got := Collect(ints(1)).SortedRunOn(1); got != 0 {
		t.Errorf("SortedRunOn(out of range)=%g, want 0", got)
	}
}

func TestHistogramSortedMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		vs := make([]float64, r.Intn(300))
		for i := range vs {
			vs[i] = float64(r.Intn(1 + r.Intn(50)))
			if r.Intn(20) == 0 {
				vs[i] += 0.5
			}
		}
		buckets := r.Intn(40)
		want := BuildHistogram(vs, buckets)
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		if got := histogramSorted(sorted, buckets); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d (%d values, %d buckets): got %+v, want %+v", iter, len(vs), buckets, got, want)
		}
	}
}

// appendedEmp returns an Emp-shaped table of n rows clustered on did,
// with 20 rows appended out of did order, as inserts leave it.
func appendedEmp(n int) *storage.Table {
	tb := storage.NewTable("Emp", schema.New(
		schema.Column{Table: "Emp", Name: "eid", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "did", Type: value.KindInt},
		schema.Column{Table: "Emp", Name: "sal", Type: value.KindFloat},
		schema.Column{Table: "Emp", Name: "age", Type: value.KindInt},
	))
	r := rand.New(rand.NewSource(1))
	const nDept = 400
	for i := 0; i < n+20; i++ {
		did := i * nDept / n
		if i >= n {
			did = r.Intn(nDept)
		}
		tb.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(did)),
			value.NewFloat(float64(1000+r.Intn(5000))), value.NewInt(int64(20+r.Intn(45))))
	}
	return tb
}

// TestCollectAllocs pins Collect's allocations to a constant that does
// not grow with the row count: scratch is sized once and shared across
// columns, and only the result and its histograms are allocated.
func TestCollectAllocs(t *testing.T) {
	const budget = 100
	var at []float64
	for _, n := range []int{2000, 20000} {
		tb := appendedEmp(n)
		a := testing.AllocsPerRun(3, func() { Collect(tb) })
		if a > budget {
			t.Errorf("Collect(%d rows) = %g allocs, budget %d", n, a, budget)
		}
		at = append(at, a)
	}
	if at[0] != at[1] {
		t.Errorf("allocs grow with rows: %g at 2k, %g at 20k", at[0], at[1])
	}
}

var sinkStats *RelStats

func BenchmarkCollect(b *testing.B) {
	tb := appendedEmp(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStats = Collect(tb)
	}
}
