package pimzdtree

import (
	"math/rand"
	"sort"
	"testing"

	"pimzdtree/internal/costmodel"
)

func smallMachine() *Machine {
	m := costmodel.UPMEMServer()
	m.PIMModules = 32
	return &m
}

func randPts(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = P3(rng.Uint32()%(1<<16), rng.Uint32()%(1<<16), rng.Uint32()%(1<<16))
	}
	return pts
}

func TestPublicAPIRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPts(rng, 5000)
	idx := New(Options{Dims: 3, Machine: smallMachine()}, pts...)
	if idx.Size() != 5000 {
		t.Fatalf("size %d", idx.Size())
	}
	if !idx.Contains(pts[0]) {
		t.Fatal("Contains")
	}
	idx.Insert(randPts(rng, 500))
	if idx.Size() != 5500 {
		t.Fatal("insert")
	}
	idx.Delete(pts[:100])
	if idx.Size() != 5400 {
		t.Fatal("delete")
	}
}

func TestPublicKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randPts(rng, 3000)
	idx := New(Options{Dims: 3, Machine: smallMachine()}, pts...)
	q := randPts(rng, 10)
	res := idx.KNN(q, 5)
	for i := range q {
		if len(res[i]) != 5 {
			t.Fatalf("query %d returned %d", i, len(res[i]))
		}
		// Verify against a brute-force scan.
		dists := make([]uint64, len(pts))
		for j, p := range pts {
			var sum uint64
			for d := 0; d < 3; d++ {
				var diff uint64
				if p.Coords[d] > q[i].Coords[d] {
					diff = uint64(p.Coords[d] - q[i].Coords[d])
				} else {
					diff = uint64(q[i].Coords[d] - p.Coords[d])
				}
				sum += diff * diff
			}
			dists[j] = sum
		}
		sort.Slice(dists, func(a, b int) bool { return dists[a] < dists[b] })
		for j := 0; j < 5; j++ {
			if res[i][j].Dist != dists[j] {
				t.Fatalf("query %d: dist[%d] = %d, want %d", i, j, res[i][j].Dist, dists[j])
			}
		}
	}
}

func TestPublicBoxOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPts(rng, 4000)
	idx := New(Options{Dims: 3, Machine: smallMachine(), Tuning: SkewResistant}, pts...)
	box := NewBox(P3(0, 0, 0), P3(1<<15, 1<<15, 1<<15))
	counts := idx.BoxCount([]Box{box})
	fetched := idx.BoxFetch([]Box{box})
	if counts[0] != int64(len(fetched[0])) {
		t.Fatalf("count %d != fetch %d", counts[0], len(fetched[0]))
	}
	var want int64
	for _, p := range pts {
		if box.Contains(p) {
			want++
		}
	}
	if counts[0] != want {
		t.Fatalf("count %d, want %d", counts[0], want)
	}
}

func TestPublicMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	idx := New(Options{Dims: 3, Machine: smallMachine()}, randPts(rng, 2000)...)
	if idx.ModeledSeconds() <= 0 {
		t.Fatal("no modeled time after build")
	}
	idx.ResetMetrics()
	if idx.Metrics().Rounds != 0 {
		t.Fatal("reset failed")
	}
	idx.KNN(randPts(rng, 10), 3)
	m := idx.Metrics()
	if m.Rounds == 0 || m.TotalSeconds() <= 0 {
		t.Fatalf("metrics not accumulated: %+v", m)
	}
}

func TestPublicPoints(t *testing.T) {
	idx := New(Options{Dims: 2, Machine: smallMachine()},
		P2(3, 3), P2(1, 1), P2(2, 2))
	got := idx.Points()
	if len(got) != 3 {
		t.Fatal("Points")
	}
}

func TestDefaultMachineIsUPMEM(t *testing.T) {
	idx := New(Options{Dims: 2})
	_ = idx
	// Constructing with the default 2048-module machine must work.
	idx.Insert([]Point{P2(1, 2)})
	if idx.Size() != 1 {
		t.Fatal("default machine insert")
	}
}

func TestPublicKNNWithMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, 2000)
	idx := New(Options{Dims: 3, Machine: smallMachine()}, pts...)
	q := randPts(rng, 5)
	for _, m := range []Metric{L1, L2, LInf} {
		res := idx.KNNWithMetric(q, 3, m)
		for i := range q {
			if len(res[i]) != 3 {
				t.Fatalf("metric %v query %d returned %d", m, i, len(res[i]))
			}
			for j := 1; j < len(res[i]); j++ {
				if res[i][j].Dist < res[i][j-1].Dist {
					t.Fatalf("metric %v results unsorted", m)
				}
			}
		}
	}
}

func TestPublicStatsAndThresholds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	idx := New(Options{Dims: 3, Machine: smallMachine()}, randPts(rng, 20000)...)
	st := idx.Stats()
	if st.Points != 20000 {
		t.Fatalf("stats points = %d", st.Points)
	}
	if st.L1Chunks == 0 || st.StoredTotal == 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	theta0, theta1, b := idx.Thresholds()
	if theta0 <= 0 || theta1 <= 0 || b <= 0 {
		t.Fatalf("thresholds %d %d %d", theta0, theta1, b)
	}
}

func TestPublicLeafCapOption(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	idx := New(Options{Dims: 3, Machine: smallMachine(), LeafCap: 4}, randPts(rng, 2000)...)
	if idx.Size() != 2000 {
		t.Fatal("leafcap build")
	}
	res := idx.KNN(randPts(rng, 5), 3)
	for _, ns := range res {
		if len(ns) != 3 {
			t.Fatal("kNN with small leaves")
		}
	}
}
