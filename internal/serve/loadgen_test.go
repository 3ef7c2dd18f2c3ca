package serve

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/workload"
)

func TestSaturationSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	e, data := testEngine(t, ModePipeline, 10000)
	boxes := workload.QueryBoxes(9, data, 64, 32)

	rep := RunSaturation(SaturationConfig{
		Engine:       e,
		Seed:         1,
		Data:         data,
		Boxes:        boxes,
		Offered:      []float64{200, 1000},
		StepDuration: 250 * time.Millisecond,
	})
	if rep.Mode != "pipeline" {
		t.Fatalf("mode %q", rep.Mode)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points: %d", len(rep.Points))
	}
	for i, pt := range rep.Points {
		if pt.Completed == 0 {
			t.Fatalf("step %d completed nothing: %+v", i, pt)
		}
		if pt.Errors > 0 {
			t.Fatalf("step %d had %d request errors", i, pt.Errors)
		}
		if pt.P50 < 0 || pt.P99 < pt.P50 || pt.P999 < pt.P99 {
			t.Fatalf("step %d quantiles not monotone: %+v", i, pt)
		}
	}
	// An idle-capable engine must sustain the gentle first step.
	if !rep.Points[0].Sustained() {
		t.Fatalf("200 rps not sustained: %+v", rep.Points[0])
	}
	if v := e.FenceViolations(); v != 0 {
		t.Fatalf("%d fence violations", v)
	}
}

func TestParseMix(t *testing.T) {
	def := DefaultMix()
	got, err := ParseMix(def.String(), def.K)
	if err != nil || got != def {
		t.Fatalf("default mix round trip: %+v, %v; want %+v", got, err, def)
	}
	got, err = ParseMix(" knn=3, search=1 ,knn=2", 4)
	if want := (OpMix{SearchW: 1, KNNW: 5, K: 4}); err != nil || got != want {
		t.Fatalf("reordered mix: %+v, %v; want %+v", got, err, want)
	}
	// k only matters when the mix can draw a kNN request.
	if _, err := ParseMix("search=1,knn=0", 0); err != nil {
		t.Fatalf("k=0 without knn weight rejected: %v", err)
	}
	for _, tc := range []struct {
		mix, wantErr string
		k            int
	}{
		{"search70", "bad mix entry", 8},
		{"search=x", "bad weight", 8},
		{"search=-1", "bad weight", 8},
		{"scan=5", "unknown op", 8},
		{"search=0,box=0", "zero total", 8},
		{"search=5,knn=1", "k=0", 0},
		{"knn=1", "k=-2", -2},
	} {
		_, err := ParseMix(tc.mix, tc.k)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseMix(%q, %d) = %v, want error containing %q", tc.mix, tc.k, err, tc.wantErr)
		}
	}
}

func TestMixRequestBuilder(t *testing.T) {
	pool := []geom.Point{geom.P3(1, 2, 3)}
	pick := func() geom.Point { return pool[0] }
	rng := rand.New(rand.NewSource(1))

	knn := OpMix{KNNW: 1, K: 5}.Request(rng, 3, pick, nil)
	if knn.Op != OpKNN || knn.K != 5 || len(knn.Pts) != 3 || knn.Pts[2] != pool[0] {
		t.Fatalf("knn request = %+v", knn)
	}
	// A box draw with no box pool degrades to a search.
	if r := (OpMix{BoxW: 1}).Request(rng, 1, pick, nil); r.Op != OpSearch || len(r.Pts) != 1 {
		t.Fatalf("box without pool = %+v", r)
	}
	box := geom.Box{Lo: geom.P3(0, 0, 0), Hi: geom.P3(9, 9, 9)}
	if r := (OpMix{BoxW: 1}).Request(rng, 1, pick, []geom.Box{box}); r.Op != OpBox || len(r.Boxes) != 1 || len(r.Pts) != 0 {
		t.Fatalf("box request = %+v", r)
	}
}
