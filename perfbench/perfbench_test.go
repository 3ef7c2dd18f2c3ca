package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pimzdtree/internal/geom"
	"pimzdtree/internal/serve"
)

// Tiny sizes: every code path of the full workloads in well under a second
// of measurement each.
var (
	tinyBatch = batchSize{Warm: 20_000, Insert: 1_000, KNN: 50, Boxes: 50, Fetch: 20, Indexes: 2, Fixed: 2}
	tinyServe = serveSize{Warm: 20_000, Modules: 32, WarmUp: 200, LowRPS: 500, HighRPS: 2_000, MinStepReqs: 200,
		Burst: 500, Bursts: 2}
)

func tinyRun(t *testing.T, name string, traced bool, tr *tracer) *result {
	t.Helper()
	var res *result
	var err error
	switch name {
	case "uniform-batch":
		res, err = runBatch(batchWorkload{size: tinyBatch, modules: 16}, 3, 0.3, traced, tr)
	case "skew-sharded":
		res, err = runBatch(batchWorkload{sharded: true, size: tinyBatch, modules: 16}, 3, 0.3, traced, tr)
	case "serve-tree":
		res, err = runServe(tinyServe, 3, 1, traced, tr)
	}
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", name, traced, err)
	}
	return res
}

// benchmarkFile is BENCHMARK.json's metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile pins the emitted names and units to the
// ones BENCHMARK.json declares, and the workload list to the runners.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics emitted, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: emitted %s [%s], BENCHMARK.json has %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer(), bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	for i, name := range serve.StageNames {
		if stageNames[i] != name {
			t.Errorf("stage %d is %s in the engine, %s here", i, name, stageNames[i])
		}
	}
}

// TestEveryMetricEmitted runs each workload at tiny size, untraced and
// traced, and checks every metric is emitted with its unit, end-to-end
// metrics are positive, and the span tree nests with non-negative self
// times.
func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, false, nil)
			ms, err := res.m.emit(endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range endToEnd {
				if ms[d.Name].Unit != d.Unit || ms[d.Name].Value <= 0 {
					t.Errorf("%s = %v [%s], want a positive value in %s", d.Name, ms[d.Name].Value, ms[d.Name].Unit, d.Unit)
				}
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}

			tr := newTracer()
			res = tinyRun(t, name, true, tr)
			res.m.fill(perLayer())
			if _, err := res.m.emit(perLayer()); err != nil {
				t.Fatal(err)
			}
			if len(tr.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkNesting(tr.spans); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeChrome(path, tr.spans, map[string]any{"workload": name}); err != nil {
				t.Fatal(err)
			}
			if n, err := readChrome(path); err != nil || n != len(tr.spans) {
				t.Fatalf("dump has %d events (%v), want %d", n, err, len(tr.spans))
			}
		})
	}
}

// TestSelfTimes checks self time on a hand-built span tree, including
// overlapping children (the per-shard spans of one fork-join call).
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "call", Start: 10, End: 60, Parent: 0},
		{Name: "shard0", Start: 10, End: 40, Parent: 1},
		{Name: "shard1", Start: 10, End: 50, Parent: 1},
		{Name: "call", Start: 70, End: 90, Parent: 0},
	}
	want := []int64{30, 10, 30, 40, 20}
	for i, v := range selfTimes(spans) {
		if v != want[i] {
			t.Errorf("span %d self = %d, want %d", i, v, want[i])
		}
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	spans[2].End = 200_000 // escapes its parent by more than the slack
	if checkNesting(spans) == nil {
		t.Fatal("a child outside its parent passed the nesting check")
	}
}

// stallBackend blocks one search batch once armed, standing in for a
// backend hiccup.
type stallBackend struct {
	serve.Backend
	armAt, stall time.Duration
	origin       time.Time

	once       sync.Once
	mu         sync.Mutex
	start, end time.Time
}

func (b *stallBackend) SearchBatch(pts []geom.Point) []bool {
	if time.Since(b.origin) >= b.armAt {
		b.once.Do(func() {
			s := time.Now()
			time.Sleep(b.stall)
			b.mu.Lock()
			b.start, b.end = s, time.Now()
			b.mu.Unlock()
		})
	}
	return b.Backend.SearchBatch(pts)
}

// TestStallChargedToDueRequests stalls the backend for 300 ms mid-step and
// checks that every request due during the stall is charged at least the
// rest of the stall: the load generator keeps sending on schedule and times from
// the due time, not from whenever it got around to submitting.
func TestStallChargedToDueRequests(t *testing.T) {
	s := newServeRun(tinyServe, 5)
	if err := s.setup(); err != nil {
		t.Fatal(err)
	}
	defer s.shutdown()
	sb := &stallBackend{Backend: s.be.inner, armAt: 200 * time.Millisecond, stall: 300 * time.Millisecond, origin: time.Now()}
	s.be.inner = sb
	res, err := s.step(1000, 800*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	sb.mu.Lock()
	stallStart, stallEnd := sb.start, sb.end
	sb.mu.Unlock()
	if stallEnd.IsZero() {
		t.Fatal("the backend never stalled")
	}
	charged := 0
	for i, d := range res.dues {
		due := res.start.Add(d)
		if due.Before(stallStart) || !due.Before(stallEnd) {
			continue
		}
		owed := stallEnd.Sub(due).Seconds() * 1e3
		if res.byDue[i] < owed-1 {
			t.Errorf("request due %.1f ms into the stall: latency %.2f ms, owed at least %.2f ms",
				due.Sub(stallStart).Seconds()*1e3, res.byDue[i], owed)
		}
		charged++
	}
	if charged < 100 {
		t.Fatalf("only %d requests were due during the stall", charged)
	}
}
