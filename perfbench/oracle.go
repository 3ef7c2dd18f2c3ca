package main

import (
	"fmt"
	"sort"

	"pimzdtree/internal/core"
	"pimzdtree/internal/geom"
)

// pointSet is the brute-force reference: the multiset union of its parts.
type pointSet [][]geom.Point

func (s pointSet) each(fn func(p geom.Point)) {
	for _, part := range s {
		for _, p := range part {
			fn(p)
		}
	}
}

func (s pointSet) count(p geom.Point) int {
	n := 0
	s.each(func(q geom.Point) {
		if q.Equal(p) {
			n++
		}
	})
	return n
}

// knnDists returns the k smallest squared l2 distances from q, ascending.
func (s pointSet) knnDists(q geom.Point, k int) []uint64 {
	best := make([]uint64, 0, k+1)
	s.each(func(p geom.Point) {
		d := geom.DistL2Sq(p, q)
		if len(best) == k && d >= best[k-1] {
			return
		}
		i := sort.Search(len(best), func(i int) bool { return best[i] > d })
		best = append(best, 0)
		copy(best[i+1:], best[i:])
		best[i] = d
		if len(best) > k {
			best = best[:k]
		}
	})
	return best
}

func (s pointSet) boxPoints(b geom.Box) []geom.Point {
	var out []geom.Point
	s.each(func(p geom.Point) {
		if b.Contains(p) {
			out = append(out, p)
		}
	})
	return out
}

// checkKNN compares one kNN answer against brute force: same length,
// sorted under the tree's total order, same distance sequence.
func (s pointSet) checkKNN(q geom.Point, k int, got []core.Neighbor) error {
	want := s.knnDists(q, k)
	if len(got) != len(want) {
		return fmt.Errorf("knn %v: %d neighbors, want %d", q, len(got), len(want))
	}
	for i, nb := range got {
		if nb.Dist != want[i] {
			return fmt.Errorf("knn %v: neighbor %d at distance %d, want %d", q, i, nb.Dist, want[i])
		}
		if geom.DistL2Sq(nb.Point, q) != nb.Dist {
			return fmt.Errorf("knn %v: neighbor %v reports distance %d", q, nb.Point, nb.Dist)
		}
		if i > 0 && core.NeighborLess(nb, got[i-1]) {
			return fmt.Errorf("knn %v: neighbors out of order at %d", q, i)
		}
	}
	return nil
}

func (s pointSet) checkBoxCount(b geom.Box, got int64) error {
	if want := int64(len(s.boxPoints(b))); got != want {
		return fmt.Errorf("box count %v: %d, want %d", b, got, want)
	}
	return nil
}

func (s pointSet) checkBoxFetch(b geom.Box, got []geom.Point) error {
	want := s.boxPoints(b)
	if len(got) != len(want) {
		return fmt.Errorf("box fetch %v: %d points, want %d", b, len(got), len(want))
	}
	sortPoints(got)
	sortPoints(want)
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Errorf("box fetch %v: point %d is %v, want %v", b, i, got[i], want[i])
		}
	}
	return nil
}

func (s pointSet) checkMember(p geom.Point, got bool) error {
	if want := s.count(p) > 0; got != want {
		return fmt.Errorf("search %v: found=%v, want %v", p, got, want)
	}
	return nil
}

func sortPoints(pts []geom.Point) {
	sort.Slice(pts, func(i, j int) bool { return lessPoint(pts[i], pts[j]) })
}

func lessPoint(a, b geom.Point) bool {
	for d := uint8(0); d < a.Dims; d++ {
		if a.Coords[d] != b.Coords[d] {
			return a.Coords[d] < b.Coords[d]
		}
	}
	return false
}

// sameMultiset reports whether a and b hold the same points with the same
// multiplicities (both are sorted in place).
func sameMultiset(a, b []geom.Point) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d points, want %d", len(a), len(b))
	}
	sortPoints(a)
	sortPoints(b)
	for i := range a {
		if !a[i].Equal(b[i]) {
			return fmt.Errorf("point %d is %v, want %v", i, a[i], b[i])
		}
	}
	return nil
}
