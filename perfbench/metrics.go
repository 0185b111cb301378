package main

import "fmt"

// metric declares one reported metric. BENCHMARK.json lists the same
// names and units; the self-test checks that they agree.
type metric struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are measured with tracing off (--trace 0).
var endToEnd = []metric{
	{"qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.1},
	{"allocs_per_op", "count", "lower", 0.1},
	{"cost_units_per_op", "units", "lower", 0.15},
	{"heap_live_mb", "MB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// execKinds are the plan-node kinds whose executor self time and rows
// the traced run reports one by one; any other kind except FilterJoin
// (reported as core.filterjoin_self_us) is summed under exec.other.
var execKinds = []string{"HashJoin", "IndexNLJoin", "IndexLookup", "TableScan",
	"GroupBy", "ViewScan", "Project", "other"}

// perLayer are measured by the traced replay (--trace 1). Per-op means
// are over the SELECT statements of the traced phase.
var perLayer = func() []metric {
	us := func(n string) metric { return metric{n, "us", "lower", 0} }
	perOp := func(n string) metric { return metric{n, "count/op", "lower", 0} }
	perKop := func(n string) metric { return metric{n, "count/kop", "lower", 0} }
	ms := []metric{
		us("sql.parse_us"), us("sql.normalize_us"), us("sql.bind_us"),
		{"plancache.hit_ratio", "ratio", "higher", 0},
		perKop("plancache.misses"), perKop("plancache.evictions"), perKop("plancache.clears"),
		us("opt.optimize_us"),
		perOp("opt.plans_considered"), perOp("opt.subsets_explored"), perOp("opt.nested_optimizations"),
		perKop("core.coster_builds"),
		{"core.coster_hit_ratio", "ratio", "higher", 0},
		us("core.filterjoin_self_us"), perOp("core.runtime_nested_optimizations"),
		us("exec.run_us"),
	}
	for _, k := range execKinds {
		ms = append(ms, us(fmt.Sprintf("exec.%s.self_us", k)), perOp(fmt.Sprintf("exec.%s.rows", k)))
	}
	for _, c := range []string{"page_reads", "page_writes", "cpu_tuples", "net_bytes", "net_msgs", "func_calls"} {
		ms = append(ms, perOp("cost."+c))
	}
	return append(ms,
		us("stats.rebuild_us"), us("storage.insert_us_per_row"),
		metric{"write_latency_p50_ms", "ms", "lower", 0},
		us("engine.other_us"),
		perKop("runtime.gc_per_kop"),
		metric{"runtime.gc_pause_ms", "ms/kop", "lower", 0},
		metric{"trace.untraced_qps", "1/s", "higher", 0},
		metric{"trace.traced_qps", "1/s", "higher", 0},
		metric{"trace.overhead_ratio", "ratio", "lower", 0},
		metric{"trace.coverage", "ratio", "higher", 0},
	)
}()

// pick returns specs' values from vals, in declaration order.
func pick(specs []metric, vals map[string]float64) []reading {
	out := make([]reading, len(specs))
	for i, m := range specs {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: no value for metric " + m.name)
		}
		out[i] = reading{m, v}
	}
	return out
}
