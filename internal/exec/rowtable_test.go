package exec

import (
	"strconv"
	"testing"

	"filterjoin/internal/expr"
)

func TestRowTableInsertLookup(t *testing.T) {
	var rt RowTable
	rt.Init(0)
	keys := []string{"i1|", "i2|", "s3:abc|", "", "n|", "f1.5|"}
	for i, k := range keys {
		id, added := rt.Insert([]byte(k))
		if !added || id != int32(i) {
			t.Fatalf("Insert(%q) = (%d, %v), want (%d, true)", k, id, added, i)
		}
	}
	for i, k := range keys {
		if id, added := rt.Insert([]byte(k)); added || id != int32(i) {
			t.Fatalf("re-Insert(%q) = (%d, %v), want (%d, false)", k, id, added, i)
		}
		if id := rt.Lookup([]byte(k)); id != int32(i) {
			t.Fatalf("Lookup(%q) = %d, want %d", k, id, i)
		}
		if got := string(rt.Key(int32(i))); got != k {
			t.Fatalf("Key(%d) = %q, want %q", i, got, k)
		}
	}
	if rt.Lookup([]byte("i99|")) != -1 {
		t.Fatal("Lookup of absent key should be -1")
	}
	if rt.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", rt.Len(), len(keys))
	}
}

func TestRowTableGrowAndReinit(t *testing.T) {
	var rt RowTable
	rt.Init(0)
	const n = 10_000
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		if id, added := rt.Insert(append(k, '|')); !added || id != int32(i) {
			t.Fatalf("Insert %d = (%d, %v)", i, id, added)
		}
	}
	if rt.Grows() == 0 {
		t.Fatal("unhinted 10k-key build should have grown")
	}
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		if id := rt.Lookup(append(k, '|')); id != int32(i) {
			t.Fatalf("Lookup %d = %d after growth", i, id)
		}
	}
	// Re-Init with an exact hint: same inserts, zero growth.
	rt.Init(n)
	for i := 0; i < n; i++ {
		k := strconv.AppendInt([]byte("i"), int64(i), 10)
		rt.Insert(append(k, '|'))
	}
	if g := rt.Grows(); g != 0 {
		t.Fatalf("hinted build grew %d times, want 0", g)
	}
	if rt.Len() != n {
		t.Fatalf("Len = %d after re-Init, want %d", rt.Len(), n)
	}
}

// TestHashJoinHintedBuildNoRehash pins the pre-sizing contract: a hash
// build whose BuildSizeHint covers the build-side cardinality never
// rehashes, and the same holds for a hinted GroupBy. This is the
// regression guard for threading optimizer cardinality estimates into
// the hash tables.
func TestHashJoinHintedBuildNoRehash(t *testing.T) {
	const n = 5000
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i), int64(i % 7)}
	}
	build := intTable(t, "b", []string{"k", "x"}, rows)
	probe := intTable(t, "p", []string{"k", "y"}, rows[:10])

	j := NewHashJoin(NewTableScan(build, ""), NewTableScan(probe, ""), []int{0}, []int{0}, nil)
	j.BuildSizeHint = n
	ctx := NewContext()
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if g := j.table.ht.Grows(); g != 0 {
		t.Errorf("hinted HashJoin build grew %d times, want 0", g)
	}
	if j.table.ht.Len() != n {
		t.Errorf("build table has %d keys, want %d", j.table.ht.Len(), n)
	}
	if err := j.Close(ctx); err != nil {
		t.Fatal(err)
	}

	g := NewGroupBy(NewTableScan(build, ""), []int{0}, []expr.AggSpec{{Kind: expr.AggCount, Name: "c"}})
	g.SizeHint = n
	if err := g.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if grew := g.ht.Grows(); grew != 0 {
		t.Errorf("hinted GroupBy build grew %d times, want 0", grew)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
