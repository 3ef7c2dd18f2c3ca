package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the index sees, and every
// workload reports every one of them. Apart from setup_s they are modeled
// PIM-system time: the simulated UPMEM server's seconds, which the paper's
// throughput figures plot. Host wall-clock throughput and serving latency
// are reported per layer by the traced run (see the package comment).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"modeled_insert_pts_per_s", "1/s"},
	{"modeled_delete_pts_per_s", "1/s"},
	{"modeled_search_q_per_s", "1/s"},
	{"modeled_knn_q_per_s", "1/s"},
	{"modeled_box_count_q_per_s", "1/s"},
	{"modeled_s", "s"},
}

// modeledNames maps an operation to its end-to-end modeled throughput.
var modeledNames = map[int]string{opInsert: "modeled_insert_pts_per_s", opDelete: "modeled_delete_pts_per_s",
	opSearch: "modeled_search_q_per_s", opKNN: "modeled_knn_q_per_s", opBoxCount: "modeled_box_count_q_per_s"}

// Operation names as the per-layer metrics spell them.
var (
	coreOps  = []string{"insert", "delete", "search", "knn", "box_count", "box_fetch"}
	shardOps = []string{"insert", "delete", "search", "knn", "box_count"}
	steps    = []string{"low", "high"}
)

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports zeros (skew-sharded has no box-fetch, only serve-tree
// has a serving pipeline).
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit string) { defs = append(defs, metricDef{name, unit}) }
	for _, op := range coreOps {
		add("core."+op+".busy_s", "s")
		add("core."+op+".calls", "count")
		add("core."+op+".items_per_call", "count")
		add("core."+op+".items_per_s", "1/s")
	}
	for _, op := range coreOps {
		add("pim."+op+".rounds_per_call", "count")
		add("pim."+op+".chan_bytes_per_item", "B")
		add("pim."+op+".util", "frac")
		add("pim."+op+".cpu_s", "s")
		add("pim."+op+".pim_s", "s")
		add("pim."+op+".comm_s", "s")
		add("pim."+op+".wall_per_round_us", "us")
	}
	for _, op := range shardOps {
		add("shard."+op+".busy_s", "s")
		add("shard."+op+".router_self_s", "s")
		add("shard."+op+".straggler_ratio", "ratio")
	}
	add("shard.knn.fanout_per_query", "count")
	add("shard.box_count.fanout_per_query", "count")
	add("shard.knn.prune_frac", "frac")
	add("shard.imbalance", "ratio")
	add("shard.rebalances", "count")
	add("shard.migrated_points", "count")
	add("shard.rebalance_modeled_s", "s")
	for _, st := range steps {
		for _, stage := range stageNames {
			add("serve."+st+"."+stage+".p50_ms", "ms")
			add("serve."+st+"."+stage+".p999_ms", "ms")
		}
	}
	for _, st := range steps {
		add("serve."+st+".p50_ms", "ms")
		add("serve."+st+".p999_ms", "ms")
		add("serve."+st+".samples", "count")
	}
	add("serve.capacity_rps", "1/s")
	add("serve.reqs_per_epoch", "count")
	add("serve.queue_ops_max", "count")
	add("serve.shed", "count")
	add("serve.errors", "count")
	add("serve.fence_violations", "count")
	add("loadgen.late_p50_ms", "ms")
	add("loadgen.late_max_ms", "ms")
	add("obs.trace_overhead_frac", "frac")
	return defs
}

// stageNames mirrors serve.StageNames (checked by a self-test).
var stageNames = []string{"admit", "queue", "build", "fence", "exec", "reply"}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values by name; emit checks it against a list.
type report map[string]float64

// result is one run's measurements: metric values plus how many
// operations were attempted and how many failed.
type result struct {
	m                 report
	attempted, failed int
}

// emit returns the metrics object for defs, failing if any is missing or
// not finite.
func (r report) emit(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// fill sets every def in defs that r lacks to zero: the layer did not run.
func (r report) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r[d.Name]; !ok {
			r[d.Name] = 0
		}
	}
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailQuantile is quantile capped so that at least ten samples lie above
// the reported one: with fewer than 10k samples a "p99.9" falls back to the
// highest percentile the sample count supports.
func tailQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-11))]
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
