package obs

import (
	"reflect"
	"testing"
)

func TestTopKRule(t *testing.T) {
	cases := []struct {
		name  string
		k     int
		costs []float64 // offered with sequences 1, 2, ...
		want  []uint64  // held sequences in snapshot order
	}{
		{"fills below k", 3, []float64{1, 3, 2}, []uint64{2, 3, 1}},
		{"evicts the cheapest", 2, []float64{30, 10, 50, 20, 40}, []uint64{3, 5}},
		{"tie keeps the incumbent", 2, []float64{5, 5, 5}, []uint64{1, 2}},
		{"tie after a slower keeps the incumbent", 2, []float64{5, 9, 5}, []uint64{2, 1}},
		{"tied cheapest: the later one goes", 2, []float64{5, 5, 7}, []uint64{3, 1}},
		{"k of one", 1, []float64{2, 1, 2, 3}, []uint64{4}},
		{"k of zero holds nothing", 0, []float64{1}, []uint64{}},
	}
	for _, tc := range cases {
		c := NewTopK[uint64](tc.k)
		for i, cost := range tc.costs {
			if slot := c.Offer(cost, uint64(i+1)); slot != nil {
				*slot = uint64(i + 1)
			}
		}
		got := c.Snapshot(func(v uint64) uint64 { return v })
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: held %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTopKReusesEvictedSlot(t *testing.T) {
	c := NewTopK[[]int](1)
	*c.Offer(1, 1) = append(make([]int, 0, 8), 1)
	if c.Offer(1, 2) != nil {
		t.Fatal("equal cost admitted into a full capture")
	}
	slot := c.Offer(2, 3)
	if slot == nil || len(*slot) != 1 || (*slot)[0] != 1 {
		t.Fatalf("winner's slot = %v, want the evicted item", slot)
	}
	seq := uint64(3)
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		s := c.Offer(float64(seq), seq) // always the new slowest
		*s = append((*s)[:0], 2, 3)
		c.Offer(0, seq) // never admitted
	})
	if allocs != 0 {
		t.Fatalf("full capture allocated %v times per offer pair", allocs)
	}
	// Snapshot clones, so later reuse cannot reach a returned item.
	snap := c.Snapshot(func(v []int) []int { return append([]int(nil), v...) })
	(*c.Offer(1e9, seq+1))[0] = 99
	if snap[0][0] != 2 {
		t.Fatalf("snapshot aliased its slot: %v", snap)
	}
}
