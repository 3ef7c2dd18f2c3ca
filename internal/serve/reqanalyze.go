package serve

import (
	"fmt"
	"io"
	"sort"

	"pimzdtree/internal/stats"
)

// Stage-attribution analysis of a slow-request dump: the post-hoc view of
// where captured requests spent their wall time. The report is a pure
// function of the dump (sorted aggregation, total-ordered tiebreaks), so
// analyzing the same dump file is byte-identical at any GOMAXPROCS.

// reqOpAgg accumulates one op's captured records.
type reqOpAgg struct {
	total  []float64
	stages [NumStages][]float64
}

// WriteAnalysis renders the stage-attribution report: per-op p50/p99 of
// total wall and each stage, the dominant stage per op, and the top
// fan-out offenders with the shard that cost them most. topN bounds the
// offender table (<= 0: 10).
func (d *RequestDump) WriteAnalysis(w io.Writer, topN int) {
	if topN <= 0 {
		topN = 10
	}
	fmt.Fprintf(w, "slow-request analysis: %d captured of %d observed\n",
		len(d.Slow), d.Observed)
	if len(d.Slow) == 0 {
		return
	}
	stages := d.Stages
	if len(stages) == 0 {
		stages = StageNames[:]
	}

	byOp := make(map[string]*reqOpAgg)
	var opNames []string
	for i := range d.Slow {
		r := &d.Slow[i]
		a, ok := byOp[r.Op]
		if !ok {
			a = &reqOpAgg{}
			byOp[r.Op] = a
			opNames = append(opNames, r.Op)
		}
		a.total = append(a.total, r.TotalSeconds)
		for s := 0; s < NumStages && s < len(stages); s++ {
			a.stages[s] = append(a.stages[s], r.StageSeconds[s])
		}
	}
	sort.Strings(opNames)

	fmt.Fprintf(w, "\nper-op stage attribution over captured requests (us):\n")
	fmt.Fprintf(w, "%-12s  %5s  %10s  %10s", "op", "count", "p50 total", "p99 total")
	for _, s := range stages {
		fmt.Fprintf(w, "  %9s", "p99 "+s)
	}
	fmt.Fprintf(w, "  %-8s\n", "dominant")
	for _, name := range opNames {
		a := byOp[name]
		sort.Float64s(a.total)
		// Dominant stage: largest p99 contribution; exact ties keep the
		// earlier pipeline stage, so the column is deterministic.
		dom, best := 0, -1.0
		p99 := make([]float64, len(stages))
		for s := range stages {
			sort.Float64s(a.stages[s])
			p99[s] = stats.Quantile(a.stages[s], 0.99)
			if p99[s] > best {
				dom, best = s, p99[s]
			}
		}
		fmt.Fprintf(w, "%-12s  %5d  %10.2f  %10.2f", name, len(a.total),
			stats.Quantile(a.total, 0.50)*1e6, stats.Quantile(a.total, 0.99)*1e6)
		for s := range stages {
			fmt.Fprintf(w, "  %9.2f", p99[s]*1e6)
		}
		fmt.Fprintf(w, "  %-8s\n", stages[dom])
	}

	// Fan-out offenders: widest fan-out first (ties: slower first, then
	// earlier capture), with the costliest shard of each serving batch.
	var fanned []*RequestRecord
	for i := range d.Slow {
		if d.Slow[i].FanOut > 0 {
			fanned = append(fanned, &d.Slow[i])
		}
	}
	if len(fanned) == 0 {
		return
	}
	sort.Slice(fanned, func(i, j int) bool {
		a, b := fanned[i], fanned[j]
		if a.FanOut != b.FanOut {
			return a.FanOut > b.FanOut
		}
		if a.TotalSeconds != b.TotalSeconds {
			return a.TotalSeconds > b.TotalSeconds
		}
		return a.Seq < b.Seq
	})
	if len(fanned) > topN {
		fanned = fanned[:topN]
	}
	fmt.Fprintf(w, "\ntop fan-out offenders (widest per-query shard fan-out):\n")
	fmt.Fprintf(w, "%-12s  %6s  %6s  %7s  %10s  %-22s\n",
		"op", "fanout", "shards", "pruned", "total us", "costliest shard")
	for _, r := range fanned {
		fmt.Fprintf(w, "%-12s  %6d  %6d  %7d  %10.2f  %-22s\n",
			r.Op, r.FanOut, len(r.FanSpans), r.FanPruned,
			r.TotalSeconds*1e6, costliestShard(r))
	}
}

// costliestShard names the span with the largest wall share of a record's
// serving batch (ties keep the lowest shard index).
func costliestShard(r *RequestRecord) string {
	if len(r.FanSpans) == 0 {
		return "-"
	}
	best := 0
	for i := 1; i < len(r.FanSpans); i++ {
		if r.FanSpans[i].WallSeconds > r.FanSpans[best].WallSeconds {
			best = i
		}
	}
	sp := &r.FanSpans[best]
	return fmt.Sprintf("shard %d (%d q, %.0f us)", sp.Shard, sp.Queries, sp.WallSeconds*1e6)
}
