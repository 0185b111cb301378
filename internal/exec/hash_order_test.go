package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"filterjoin/internal/cost"
	"filterjoin/internal/expr"
	"filterjoin/internal/schema"
	"filterjoin/internal/value"
)

// This file holds the hash operators to test-only reference code on
// exact emission order: a nested loop for the joins, and a map plus
// sort.Strings over Row.Key for grouping, distinct projection and key
// sets. Keys mix ints and integral floats (1 vs 1.0), -0.0 and 0.0,
// NULLs and strings, which the operators must treat exactly as the
// canonical key encoding does.

// orderBatches are the batch sizes every operator runs at: the row
// engine, an odd size that splits buckets and groups across batches,
// and the production default.
var orderBatches = []int{1, 3, DefaultBatchSize}

// orderKey draws one key value from a small pool, so keys collide often
// and across kinds.
func orderKey(rng *rand.Rand) value.Value {
	switch rng.Intn(8) {
	case 0:
		return value.Null
	case 1, 2:
		return value.NewInt(int64(rng.Intn(5) - 2))
	case 3, 4:
		return value.NewFloat(float64(rng.Intn(5) - 2))
	case 5:
		return value.NewFloat([]float64{math.Copysign(0, -1), 0.5, -1.5}[rng.Intn(3)])
	default:
		return value.NewString([]string{"1", "a", "-0", ""}[rng.Intn(4)])
	}
}

// orderRows draws n rows (k, v, s): a mixed-kind key, an int payload
// that is sometimes NULL, and a short string for two-column keys.
func orderRows(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		v := value.NewInt(int64(rng.Intn(10)))
		if rng.Intn(6) == 0 {
			v = value.Null
		}
		rows[i] = value.Row{orderKey(rng), v, value.NewString([]string{"x", "y"}[rng.Intn(2)])}
	}
	return rows
}

func orderValues(name string, rows []value.Row) *Values {
	return NewValues(schema.New(
		schema.Column{Table: name, Name: "k", Type: value.KindInt},
		schema.Column{Table: name, Name: "v", Type: value.KindInt},
		schema.Column{Table: name, Name: "s", Type: value.KindString},
	), rows)
}

// exactRow renders r with each value's kind, so 1 and 1.0 (and -0.0 and
// 0.0, through the float's sign) render differently.
func exactRow(r value.Row) string {
	var b strings.Builder
	for i, v := range r {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%s:%s", v.Kind(), v.String())
	}
	return b.String()
}

func exactRows(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = exactRow(r)
	}
	return out
}

// runOrder drains op at the given batch size.
func runOrder(t *testing.T, op Operator, batch int) ([]string, cost.Counter) {
	t.Helper()
	ctx := NewContext()
	ctx.BatchSize = batch
	rows, err := Drain(ctx, op)
	if err != nil {
		t.Fatalf("batch=%d: %v", batch, err)
	}
	return exactRows(rows), *ctx.Counter
}

// checkOrder runs mk at every batch size and requires the reference rows
// in order, and the same counters at every batch size.
func checkOrder(t *testing.T, what string, mk func() Operator, want []string) {
	t.Helper()
	var first cost.Counter
	for i, batch := range orderBatches {
		got, c := runOrder(t, mk(), batch)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("%s batch=%d:\n got %q\nwant %q", what, batch, got, want)
		}
		if i == 0 {
			first = c
		} else if c != first {
			t.Fatalf("%s batch=%d: counters %s, batch=%d %s", what, batch, c.String(), orderBatches[0], first.String())
		}
	}
}

// refHashJoin is the nested-loop reference: probe rows in probe order,
// and for each the matching build rows in build order. Keys match when
// their canonical encodings do (Row.Key).
func refHashJoin(build, probe []value.Row, bk, pk []int, residual expr.Expr, probeFirst bool) []string {
	var out []value.Row
	for _, p := range probe {
		for _, b := range build {
			if b.Key(bk) != p.Key(pk) {
				continue
			}
			joined := b.Concat(p)
			if probeFirst {
				joined = p.Concat(b)
			}
			if residual != nil {
				if ok, err := expr.EvalBool(residual, joined); err != nil || !ok {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	return exactRows(out)
}

// refGroupBy groups by Row.Key through a map, keeps each group's first
// key projection, and emits in sort.Strings order of the keys, with
// COUNT(*) and COUNT(v) per group. No key columns means one group, even
// over no rows.
func refGroupBy(rows []value.Row, gidx []int) []string {
	type group struct {
		key       value.Row
		all, nonN int64
	}
	groups := map[string]*group{}
	var keys []string
	if len(gidx) == 0 {
		groups[""] = &group{key: value.Row{}}
		keys = append(keys, "")
	}
	for _, r := range rows {
		k := r.Key(gidx)
		g := groups[k]
		if g == nil {
			g = &group{key: r.Project(gidx)}
			groups[k] = g
			keys = append(keys, k)
		}
		g.all++
		if !r[1].IsNull() {
			g.nonN++
		}
	}
	sort.Strings(keys)
	var out []value.Row
	for _, k := range keys {
		g := groups[k]
		out = append(out, append(append(value.Row{}, g.key...), value.NewInt(g.all), value.NewInt(g.nonN)))
	}
	return exactRows(out)
}

// refFirstSeen keeps the first row of each key projection, in input
// order, and returns the projections and the set of keys.
func refFirstSeen(rows []value.Row, idx []int) ([]value.Row, map[string]bool) {
	seen := map[string]bool{}
	var out []value.Row
	for _, r := range rows {
		k := r.Key(idx)
		if !seen[k] {
			seen[k] = true
			out = append(out, r.Project(idx))
		}
	}
	return out, seen
}

// TestHashOperatorsMatchReferenceOrder checks the hash operators' exact
// output sequences against the references above: HashJoin and
// ParallelHashJoin (both layouts, with and without a residual) emit in
// probe order with build order within a key, GroupBy in canonical-key
// order, Distinct and KeySet.Rows the first occurrence of each key, and
// ContainsBuf agrees with reference membership.
func TestHashOperatorsMatchReferenceOrder(t *testing.T) {
	// first.v >= second.v over the emitted layout (k v s k v s); NULL
	// payloads make it false.
	residual := expr.NewCmp(expr.GE, expr.NewCol(1, "first.v"), expr.NewCol(4, "second.v"))
	keySets := [][]int{{0}, {0, 2}}
	for trial := 0; trial < 150; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		build := orderRows(rng, rng.Intn(30))
		probe := orderRows(rng, rng.Intn(30))
		keys := keySets[trial%2]

		for _, probeFirst := range []bool{false, true} {
			for _, res := range []expr.Expr{nil, residual} {
				want := refHashJoin(build, probe, keys, keys, res, probeFirst)
				name := fmt.Sprintf("trial %d keys=%v probeFirst=%v residual=%v", trial, keys, probeFirst, res != nil)
				checkOrder(t, "HashJoin "+name, func() Operator {
					l, r := orderValues("l", build), orderValues("r", probe)
					if probeFirst {
						return NewHashJoinProbeFirst(l, r, keys, keys, res)
					}
					return NewHashJoin(l, r, keys, keys, res)
				}, want)
				for _, dop := range []int{1, 3} {
					checkOrder(t, fmt.Sprintf("ParallelHashJoin dop=%d %s", dop, name), func() Operator {
						l, r := orderValues("l", build), orderValues("r", probe)
						if probeFirst {
							return NewParallelHashJoinProbeFirst(l, r, keys, keys, res, dop)
						}
						return NewParallelHashJoin(l, r, keys, keys, res, dop)
					}, want)
				}
			}
		}

		aggs := []expr.AggSpec{
			{Kind: expr.AggCount, Name: "n"},
			{Kind: expr.AggCount, Arg: expr.NewCol(1, "v"), Name: "nv"},
		}
		for _, gidx := range [][]int{{0}, {0, 2}, {}} {
			checkOrder(t, fmt.Sprintf("GroupBy trial %d on %v", trial, gidx), func() Operator {
				return NewGroupBy(orderValues("t", build), gidx, aggs)
			}, refGroupBy(build, gidx))
		}

		// Distinct over (k, s): 1 and 1.0, or -0.0 and 0, are one row.
		ks := []int{0, 2}
		distinctIn := make([]value.Row, len(build))
		for i, r := range build {
			distinctIn[i] = r.Project(ks)
		}
		firstRows, _ := refFirstSeen(distinctIn, []int{0, 1})
		checkOrder(t, fmt.Sprintf("Distinct trial %d", trial), func() Operator {
			return NewDistinct(NewValues(orderValues("t", nil).Schema().Project(ks), distinctIn))
		}, exactRows(firstRows))

		wantKeys, member := refFirstSeen(build, keys)
		for _, batch := range orderBatches {
			ctx := NewContext()
			ctx.BatchSize = batch
			set, err := BuildKeySetSized(ctx, orderValues("t", build), keys, rng.Intn(8))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := exactRows(set.Rows()), exactRows(wantKeys); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("KeySet trial %d batch=%d keys=%v:\n got %q\nwant %q", trial, batch, keys, got, want)
			}
			var buf []byte
			for _, p := range append(probe, build...) {
				var hit bool
				buf, hit = set.ContainsBuf(p, keys, buf)
				if hit != member[p.Key(keys)] {
					t.Fatalf("KeySet trial %d: ContainsBuf(%s) = %v, reference %v", trial, exactRow(p), hit, !hit)
				}
			}
		}
	}
}
