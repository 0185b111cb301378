package filterjoin_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	filterjoin "filterjoin"
	"filterjoin/internal/datagen"
	"filterjoin/internal/schema"
	"filterjoin/internal/storage"
	"filterjoin/internal/value"
)

// fig1DB registers the datagen Fig 1 tables and the DepAvgSal view.
func fig1DB(t *testing.T, clustered bool) *filterjoin.DB {
	t.Helper()
	p := datagen.DefaultFig1()
	p.Clustered = clustered
	cat, err := datagen.Fig1Catalog(p)
	if err != nil {
		t.Fatal(err)
	}
	db := filterjoin.Open(filterjoin.Config{})
	for _, name := range []string{"Emp", "Dept"} {
		ent, err := cat.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		db.RegisterTable(ent.Table)
	}
	if err := db.ExecScript("CREATE VIEW DepAvgSal AS (SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// restrictedViewQuery joins DepAvgSal restricted to one department, the
// shape whose Filter Join rests on the emp_did probe estimate.
const restrictedViewQuery = `SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V
	WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal
	AND E.did = 17 AND E.age < 25 AND D.budget > 10200`

var indexLookupCosts = regexp.MustCompile(`IndexLookup \[Emp E via emp_did[^\n]*est cost=([0-9.]+), act cost=([0-9.]+)`)

// indexLookupEstAct runs EXPLAIN ANALYZE and returns the emp_did
// IndexLookup's estimated and measured cost, and the whole output.
func indexLookupEstAct(t *testing.T, db *filterjoin.DB) (est, act float64, out string) {
	t.Helper()
	out, err := db.ExplainAnalyze(restrictedViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	m := indexLookupCosts.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no emp_did IndexLookup in\n%s", out)
	}
	est, _ = strconv.ParseFloat(m[1], 64)
	act, _ = strconv.ParseFloat(m[2], 64)
	return est, act, out
}

// TestInsertKeepsFilterJoinOnClusteredIndex: one INSERT out of did order
// leaves Emp's clustered run in place, so the probe estimate must stay
// near the pages actually read and the view keep its Filter Join instead
// of flipping to computing all of DepAvgSal.
func TestInsertKeepsFilterJoinOnClusteredIndex(t *testing.T) {
	db := fig1DB(t, true)
	for i, stmt := range []string{"", "INSERT INTO Emp VALUES (900001, 5, 3000.0, 30)"} {
		if stmt != "" {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		est, act, out := indexLookupEstAct(t, db)
		if !strings.Contains(out, "FilterJoin [DepAvgSal") || strings.Contains(out, "GroupBy") {
			t.Fatalf("step %d: view no longer restricted through a Filter Join:\n%s", i, out)
		}
		if est > 2*act || act > 2*est {
			t.Errorf("step %d: IndexLookup est cost %g vs act %g, want within 2x:\n%s", i, est, act, out)
		}
	}
}

// TestInsertKeepsYaoEstimateOnRandomOrder: on a column stored in random
// order the sorted run is shorter than a page, so the probe estimate is
// Yao's, as before sorted runs, before and after an insert. The pinned
// costs are the ones the yes/no clustering flag gave.
func TestInsertKeepsYaoEstimateOnRandomOrder(t *testing.T) {
	db := fig1DB(t, false)
	for i, want := range []string{"44.04", "44.04"} {
		if i > 0 {
			if _, err := db.Exec("INSERT INTO Emp VALUES (900001, 5, 3000.0, 30)"); err != nil {
				t.Fatal(err)
			}
		}
		est, _, out := indexLookupEstAct(t, db)
		if got := strconv.FormatFloat(est, 'f', 2, 64); got != want {
			t.Errorf("step %d: IndexLookup est cost %s, want %s:\n%s", i, got, want, out)
		}
	}
}

// TestInvalidateCachesDropsStats: InvalidateCaches is the hook for bulk
// loads made through the storage API directly, so it must drop the
// collected statistics as well as cached plans.
func TestInvalidateCachesDropsStats(t *testing.T) {
	tb := storage.NewTable("T", schema.New(schema.Column{Table: "T", Name: "k", Type: value.KindInt}))
	for i := 0; i < 10; i++ {
		tb.MustInsert(value.NewInt(int64(i)))
	}
	db := filterjoin.Open(filterjoin.Config{})
	db.RegisterTable(tb)
	const q = "SELECT T.k FROM T WHERE T.k > 5"
	explain := func() string {
		t.Helper()
		out, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := explain(); !strings.Contains(out, "rows=4") {
		t.Fatalf("before the load: want rows=4 in\n%s", out)
	}
	for i := 10; i < 10000; i++ {
		tb.MustInsert(value.NewInt(int64(i)))
	}
	db.InvalidateCaches()
	if out := explain(); strings.Contains(out, "rows=4") || !strings.Contains(out, "rows=999") {
		t.Errorf("after the load and InvalidateCaches: want rows=999x, stale statistics in\n%s", out)
	}
}
