package serve

import (
	"reflect"
	"testing"

	"pimzdtree/internal/obs"
)

// offerWalls offers one search request per wall time and returns the
// captured sequences in snapshot order.
func offerWalls(tr *RequestTracer, walls ...float64) []uint64 {
	for _, w := range walls {
		tr.offer(NewRequest(OpSearch), w)
	}
	var seqs []uint64
	for _, rec := range tr.Snapshot().Slow {
		seqs = append(seqs, rec.Seq)
	}
	return seqs
}

// TestRequestTracerTopKRetention mirrors TestFlightTopKRetention: the
// slow-request set follows the shared obs.TopK rule.
func TestRequestTracerTopKRetention(t *testing.T) {
	cases := []struct {
		name  string
		cfg   RequestTraceConfig
		walls []float64
		want  []uint64
	}{
		{"evicts the cheapest", RequestTraceConfig{SlowK: 2}, []float64{0.030, 0.010, 0.050, 0.020, 0.040}, []uint64{3, 5}},
		{"tie keeps the incumbent", RequestTraceConfig{SlowK: 2}, []float64{0.005, 0.009, 0.005}, []uint64{2, 1}},
		{"ties snapshot by seq", RequestTraceConfig{SlowK: 3}, []float64{0.005, 0.005, 0.005, 0.005}, []uint64{1, 2, 3}},
		{"threshold", RequestTraceConfig{SlowWallSeconds: 0.02, SlowK: 8}, []float64{0.010, 0.030, 0.015, 0.050, 0.020}, []uint64{4, 2, 5}},
	}
	for _, tc := range cases {
		tr := NewRequestTracer(tc.cfg)
		if got := offerWalls(tr, tc.walls...); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: captured %v, want %v", tc.name, got, tc.want)
		}
		if d := tr.Snapshot(); d.Observed != int64(len(tc.walls)) {
			t.Errorf("%s: observed %d, want %d", tc.name, d.Observed, len(tc.walls))
		}
	}
}

// TestRequestTracerReusesSlots pins the allocation contract: a full slow
// set admits a slower request into the evicted record's fan-span buffer,
// and snapshots never alias it.
func TestRequestTracerReusesSlots(t *testing.T) {
	tr := NewRequestTracer(RequestTraceConfig{SlowK: 1})
	r := NewRequest(OpKNN)
	r.fanSpans = []obs.FanoutSpan{{Shard: 1}, {Shard: 2}}
	tr.offer(r, 0.001)
	snap := tr.Snapshot()
	wall := 0.001
	if allocs := testing.AllocsPerRun(100, func() {
		wall *= 2 // always the new slowest
		tr.offer(r, wall)
	}); allocs != 0 {
		t.Fatalf("slot reuse allocates %.1f objects/offer, want 0", allocs)
	}
	other := NewRequest(OpSearch)
	other.fanSpans = []obs.FanoutSpan{{Shard: 7}}
	tr.offer(other, 2*wall) // rewrites the slot's fan-span buffer in place
	if got := tr.Snapshot().Slow[0]; got.Op != "search" || len(got.FanSpans) != 1 || got.FanSpans[0].Shard != 7 {
		t.Fatalf("slot not overwritten: %+v", got)
	}
	if got := snap.Slow[0]; len(got.FanSpans) != 2 || got.FanSpans[0].Shard != 1 || got.Op != "knn" {
		t.Fatalf("snapshot changed after slot reuse: %+v", got)
	}
}
