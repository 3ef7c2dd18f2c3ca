package obs

import (
	"sort"

	"pimzdtree/internal/stats"
)

// Dist summarizes a per-module load distribution. Quantiles use the
// nearest-rank rule of stats.Quantile over the active modules only (idle
// modules are not part of the round).
type Dist struct {
	P50  int64
	P99  int64
	Max  int64
	Mean float64
}

// LoadProfile is one sampled per-round snapshot of the module loads — the
// per-DPU skew attribution of the UPMEM benchmarking studies, recorded per
// round so imbalance can be tied to the exact phase that produced it.
type LoadProfile struct {
	Active    int  // modules that participated in the round
	Cycles    Dist // per-module compute cycles
	Bytes     Dist // per-module channel bytes (recv + send)
	Imbalance float64
}

// NewLoadProfile summarizes per-module cycle and byte loads. Imbalance is
// the paper's factor max/mean over cycle loads (1.0 = perfectly balanced;
// when no module did compute work, byte loads are used so pure-transfer
// rounds still report their skew). The input slices may be in any order
// and are not modified.
func NewLoadProfile(cycles, bytes []int64) LoadProfile {
	p := LoadProfile{
		Active: len(cycles),
		Cycles: newDist(cycles),
		Bytes:  newDist(bytes),
	}
	switch {
	case p.Cycles.Mean > 0:
		p.Imbalance = float64(p.Cycles.Max) / p.Cycles.Mean
	case p.Bytes.Mean > 0:
		p.Imbalance = float64(p.Bytes.Max) / p.Bytes.Mean
	}
	return p
}

// newDist computes the summary of one load vector.
func newDist(loads []int64) Dist {
	if len(loads) == 0 {
		return Dist{}
	}
	sorted := append([]int64(nil), loads...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total int64
	for _, l := range sorted {
		total += l
	}
	return Dist{
		P50:  stats.Quantile(sorted, 0.50),
		P99:  stats.Quantile(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
		Mean: float64(total) / float64(len(sorted)),
	}
}
