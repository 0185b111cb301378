package opt

import (
	"strings"
	"testing"

	"filterjoin/internal/catalog"
	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/plan"
	"filterjoin/internal/query"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// bigIndexed builds a large table where an equality lookup is far
// cheaper than a scan.
func bigIndexed(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	s := schema.New(
		schema.Column{Table: "Big", Name: "k", Type: value.KindInt},
		schema.Column{Table: "Big", Name: "v", Type: value.KindInt},
	)
	tb := storage.NewTable("Big", s)
	for i := 0; i < 50000; i++ {
		tb.MustInsert(value.NewInt(int64(i/10)), value.NewInt(int64(i)))
	}
	if _, err := tb.CreateIndex("big_k", []int{0}); err != nil {
		t.Fatal(err)
	}
	cat.AddTable(tb)
	return cat
}

func eqQuery() *query.Block {
	return &query.Block{
		Rels:  []query.RelRef{{Name: "Big"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "Big.k"), expr.Int(123))},
	}
}

func TestIndexAccessChosenForEquality(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(eqQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") == nil {
		t.Fatalf("expected an IndexLookup leaf, got %s", p.Kind)
	}
	rows, c := runNode(t, p)
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	for _, r := range rows {
		if r[0].Int() != 123 {
			t.Fatalf("wrong key: %v", r)
		}
	}
	// The lookup must be dramatically cheaper than the 391-page scan.
	if c.PageReads > 10 {
		t.Errorf("index lookup read %d pages", c.PageReads)
	}
}

func TestIndexAccessDisabled(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	o.Disabled["indexaccess"] = true
	p, err := o.OptimizeBlock(eqQuery())
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") != nil {
		t.Error("indexaccess was disabled")
	}
}

func TestIndexAccessWithResidualConjunct(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	b := eqQuery()
	b.Preds = append(b.Preds, expr.NewCmp(expr.LT, expr.NewCol(1, "Big.v"), expr.Int(1235)))
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := runNode(t, p)
	if len(rows) != 5 { // keys 1230..1234 of the ten 123-rows
		t.Fatalf("rows = %d, want 5", len(rows))
	}
}

func TestIndexAccessNotUsedWithoutIndex(t *testing.T) {
	cat := catalog.New()
	s := schema.New(schema.Column{Table: "N", Name: "k", Type: value.KindInt})
	tb := storage.NewTable("N", s)
	for i := 0; i < 100; i++ {
		tb.MustInsert(value.NewInt(int64(i)))
	}
	cat.AddTable(tb)
	o := New(cat, cost.DefaultModel())
	p, err := o.OptimizeBlock(&query.Block{
		Rels:  []query.RelRef{{Name: "N"}},
		Preds: []expr.Expr{expr.Eq(expr.NewCol(0, "N.k"), expr.Int(5))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") != nil {
		t.Error("no index exists, a scan is required")
	}
	rows, _ := runNode(t, p)
	if len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestIndexAccessLiteralOnLeft(t *testing.T) {
	cat := bigIndexed(t)
	o := New(cat, cost.DefaultModel())
	b := &query.Block{
		Rels:  []query.RelRef{{Name: "Big"}},
		Preds: []expr.Expr{expr.Eq(expr.Int(123), expr.NewCol(0, "Big.k"))},
	}
	p, err := o.OptimizeBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Find("IndexLookup") == nil {
		t.Error("literal = column must also use the index")
	}
	rows, _ := runNode(t, p)
	if len(rows) != 10 {
		t.Errorf("rows = %d", len(rows))
	}
}

// tiedIndexCatalog builds S(k, v) with 20 rows and Big(k, v) with 50,000
// rows, where Big.k is unique and Big.v takes 10 values, and indexes
// Big.k and Big.v separately under the given names. Both indexes are
// one column wide and both cover the equi join S ⋈ Big on (k, v).
func tiedIndexCatalog(t testing.TB, kName, vName string) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	mk := func(name string) *storage.Table {
		return storage.NewTable(name, schema.New(
			schema.Column{Table: name, Name: "k", Type: value.KindInt},
			schema.Column{Table: name, Name: "v", Type: value.KindInt},
		))
	}
	big := mk("Big")
	for i := 0; i < 50000; i++ {
		big.MustInsert(value.NewInt(int64(i)), value.NewInt(int64(i%10)))
	}
	for name, col := range map[string]int{kName: 0, vName: 1} {
		if _, err := big.CreateIndex(name, []int{col}); err != nil {
			t.Fatal(err)
		}
	}
	s := mk("S")
	for i := 0; i < 20; i++ {
		s.MustInsert(value.NewInt(int64(i*7)), value.NewInt(int64(i*7%10)))
	}
	cat.AddTable(big)
	cat.AddTable(s)
	return cat
}

// TestIndexChoiceDeterministic is the regression test for an index
// choice that depended on map iteration order: of two equally wide
// covering indexes, the optimizer must always take the one with the
// fewest expected matches per probe (here the unique Big.k), whatever
// the index names, and so produce one plan on every run.
func TestIndexChoiceDeterministic(t *testing.T) {
	for _, names := range [][2]string{{"big_k", "big_v"}, {"big_z", "big_a"}} {
		cat := tiedIndexCatalog(t, names[0], names[1])
		b := &query.Block{
			Rels: []query.RelRef{{Name: "S"}, {Name: "Big"}},
			Preds: []expr.Expr{
				expr.Eq(expr.NewCol(0, "S.k"), expr.NewCol(2, "Big.k")),
				expr.Eq(expr.NewCol(1, "S.v"), expr.NewCol(3, "Big.v")),
			},
		}
		model := cost.DefaultModel()
		first := ""
		for run := 0; run < 100; run++ {
			p, err := New(cat, model).OptimizeBlock(b)
			if err != nil {
				t.Fatal(err)
			}
			got := plan.Format(p, model)
			if run == 0 {
				first = got
				if !strings.Contains(got, "IndexNLJoin") || !strings.Contains(got, "via "+names[0]) {
					t.Fatalf("indexes %v: want an index join via %s, got\n%s", names, names[0], got)
				}
				rows, _ := runNode(t, p)
				if len(rows) != 20 {
					t.Fatalf("indexes %v: %d rows, want 20", names, len(rows))
				}
			} else if got != first {
				t.Fatalf("indexes %v: run %d planned\n%s\nrun 0 planned\n%s", names, run, got, first)
			}
		}
	}
}
