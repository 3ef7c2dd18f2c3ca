package obs

import (
	"bytes"
	"strings"
	"testing"
)

// Helpers driving the flight recorder the way pim.System does: an op span
// wrapping RecordRound calls with explicit straggler attribution.

func flightRec(cfg FlightConfig) (*Recorder, *FlightRecorder) {
	rec := New()
	f := NewFlightRecorder(cfg)
	rec.SetFlight(f)
	return rec, f
}

// runOp records one op of the given rounds; each round entry is
// (maxCycles, straggler module).
func runOp(rec *Recorder, name string, rounds ...[2]int64) {
	rec.BeginOp(name)
	for _, r := range rounds {
		rec.RecordRound(RoundInfo{
			ActiveModules: 4,
			MaxCycles:     r[0],
			TotalCycles:   r[0] * 2,
			BytesToPIM:    64,
			BytesFromPIM:  32,
			Seconds:       float64(r[0]) * 1e-9,
			Straggler:     int(r[1]),
		}, float64(r[0])*0.6e-9, float64(r[0])*0.4e-9, nil)
	}
	rec.EndOp()
}

func TestFlightNilSafe(t *testing.T) {
	var f *FlightRecorder
	if f.Enabled() {
		t.Fatal("nil flight recorder reports enabled")
	}
	if f.LastTrace() != 0 {
		t.Fatal("nil LastTrace != 0")
	}
	if got := f.SlowOps(); got != nil {
		t.Fatalf("nil SlowOps = %v", got)
	}
	d := f.Snapshot()
	if d.Format != FlightDumpFormat || len(d.Ring) != 0 || len(d.Slow) != 0 {
		t.Fatalf("nil Snapshot = %+v", d)
	}
	if f.opOpen() {
		t.Fatal("nil flight recorder reports an open op")
	}
	rec := New()
	rec.SetFlight(nil) // explicit detach is a no-op
	runOp(rec, "search", [2]int64{10, 1})
	events := rec.Events()
	if len(events) == 0 || events[0].Trace != 0 {
		t.Fatalf("detached flight recorder still assigned traces: %+v", events)
	}
}

func TestFlightTraceIDsMonotone(t *testing.T) {
	rec, f := flightRec(FlightConfig{})
	for i := 0; i < 5; i++ {
		runOp(rec, "search", [2]int64{10, 1})
		if got := f.LastTrace(); got != uint64(i+1) {
			t.Fatalf("after op %d: LastTrace = %d, want %d", i, got, i+1)
		}
	}
	// Op spans carry their trace; nested phases do not.
	events := rec.Events()
	var ops int
	for _, e := range events {
		if e.Kind == KindOp && e.Trace != 0 {
			ops++
		}
		if e.Kind != KindOp && e.Trace != 0 {
			t.Fatalf("non-op event %s carries trace %d", e.Name, e.Trace)
		}
	}
	if ops != 5 {
		t.Fatalf("traced op spans = %d, want 5", ops)
	}
}

func TestFlightRingEvictionOrder(t *testing.T) {
	rec, f := flightRec(FlightConfig{Ring: 3, SlowK: 1})
	for i := 1; i <= 5; i++ {
		runOp(rec, "search", [2]int64{int64(i), 1})
	}
	d := f.Snapshot()
	if d.Captured != 5 {
		t.Fatalf("captured = %d, want 5", d.Captured)
	}
	if d.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", d.Dropped)
	}
	if len(d.Ring) != 3 {
		t.Fatalf("ring length = %d, want 3", len(d.Ring))
	}
	// Oldest first: traces 3, 4, 5 survive.
	for i, want := range []uint64{3, 4, 5} {
		if d.Ring[i].Trace != want {
			t.Fatalf("ring[%d].Trace = %d, want %d", i, d.Ring[i].Trace, want)
		}
	}
}

func TestFlightRingRoundTruncation(t *testing.T) {
	rec, f := flightRec(FlightConfig{RingRounds: 2, SlowK: 4})
	rounds := make([][2]int64, 5)
	for i := range rounds {
		rounds[i] = [2]int64{int64(10 + i), int64(i % 3)}
	}
	runOp(rec, "knn", rounds...)
	d := f.Snapshot()
	if len(d.Ring) != 1 {
		t.Fatalf("ring length = %d, want 1", len(d.Ring))
	}
	r := d.Ring[0]
	if !r.Truncated || len(r.RoundDetail) != 2 || r.Rounds != 5 {
		t.Fatalf("ring record = truncated %v, detail %d, rounds %d; want true, 2, 5",
			r.Truncated, len(r.RoundDetail), r.Rounds)
	}
	// The slow copy keeps full detail.
	if len(d.Slow) != 1 {
		t.Fatalf("slow length = %d, want 1", len(d.Slow))
	}
	s := d.Slow[0]
	if s.Truncated || len(s.RoundDetail) != 5 {
		t.Fatalf("slow record = truncated %v, detail %d; want false, 5", s.Truncated, len(s.RoundDetail))
	}
}

func TestFlightTopKRetention(t *testing.T) {
	rec, f := flightRec(FlightConfig{SlowK: 2})
	// Modeled time scales with MaxCycles; traces 1..5 with cycles 30,10,50,20,40.
	for _, c := range []int64{30, 10, 50, 20, 40} {
		runOp(rec, "search", [2]int64{c, 0})
	}
	slow := f.SlowOps()
	if len(slow) != 2 {
		t.Fatalf("slow set size = %d, want 2", len(slow))
	}
	// Slowest first: cycles 50 (trace 3) then 40 (trace 5).
	if slow[0].Trace != 3 || slow[1].Trace != 5 {
		t.Fatalf("slow traces = %d, %d; want 3, 5", slow[0].Trace, slow[1].Trace)
	}
}

func TestFlightModeledThreshold(t *testing.T) {
	// 1000 cycles at the runOp scale is 1e-6 modeled seconds; threshold
	// between the two op sizes captures only the big one.
	rec, f := flightRec(FlightConfig{SlowModeledSeconds: 5e-7, SlowK: 8})
	runOp(rec, "small", [2]int64{100, 0})
	runOp(rec, "big", [2]int64{1000, 0})
	runOp(rec, "small", [2]int64{100, 0})
	slow := f.SlowOps()
	if len(slow) != 1 || slow[0].Op != "big" {
		t.Fatalf("slow set = %+v, want exactly the big op", slow)
	}
}

func TestFlightStragglerAttribution(t *testing.T) {
	rec, f := flightRec(FlightConfig{})
	// Module 7 straggles twice, module 2 once, one balanced round (-1).
	runOp(rec, "search",
		[2]int64{10, 7}, [2]int64{11, 2}, [2]int64{12, 7}, [2]int64{13, -1})
	d := f.Snapshot()
	r := d.Ring[0]
	if r.Straggler != 7 || r.StragglerRounds != 2 {
		t.Fatalf("straggler = %d (%d rounds), want 7 (2 rounds)", r.Straggler, r.StragglerRounds)
	}
	if r.RoundDetail[3].Straggler != -1 {
		t.Fatalf("balanced round straggler = %d, want -1", r.RoundDetail[3].Straggler)
	}

	// Ties resolve to the lowest module id regardless of first-seen order.
	runOp(rec, "knn", [2]int64{10, 9}, [2]int64{11, 3}, [2]int64{12, 9}, [2]int64{13, 3})
	d = f.Snapshot()
	r = d.Ring[1]
	if r.Straggler != 3 || r.StragglerRounds != 2 {
		t.Fatalf("tied straggler = %d (%d rounds), want 3 (2 rounds)", r.Straggler, r.StragglerRounds)
	}

	// No round with a unique straggler: op-level straggler is -1.
	runOp(rec, "box", [2]int64{10, -1}, [2]int64{11, -1})
	d = f.Snapshot()
	r = d.Ring[2]
	if r.Straggler != -1 || r.StragglerRounds != 0 {
		t.Fatalf("balanced-op straggler = %d (%d rounds), want -1 (0)", r.Straggler, r.StragglerRounds)
	}
}

func TestFlightSnapshotIsolation(t *testing.T) {
	rec, f := flightRec(FlightConfig{})
	runOp(rec, "search", [2]int64{10, 1}, [2]int64{20, 2})
	d := f.Snapshot()
	d.Ring[0].RoundDetail[0].MaxCycles = 999
	d.Slow[0].Op = "mutated"
	d2 := f.Snapshot()
	if d2.Ring[0].RoundDetail[0].MaxCycles != 10 || d2.Slow[0].Op != "search" {
		t.Fatal("snapshot mutation leaked into the recorder")
	}
}

func TestFlightDumpRoundTrip(t *testing.T) {
	rec, f := flightRec(FlightConfig{SlowK: 2})
	runOp(rec, "search", [2]int64{10, 1})
	runOp(rec, "knn", [2]int64{20, 2}, [2]int64{30, 2})
	var buf bytes.Buffer
	if err := WriteDump(&buf, f.Snapshot()); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	d, err := ReadDump[FlightDump](bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if d.Format != FlightDumpFormat {
		t.Fatalf("format = %q", d.Format)
	}
	want := f.Snapshot()
	if len(d.Ring) != len(want.Ring) || len(d.Slow) != len(want.Slow) || d.Captured != want.Captured {
		t.Fatalf("round-trip mismatch: %+v vs %+v", d, want)
	}
	if d.Ring[1].Op != "knn" || d.Ring[1].Straggler != 2 || len(d.Ring[1].RoundDetail) != 2 {
		t.Fatalf("round-trip record = %+v", d.Ring[1])
	}
}

func TestFlightAnalyzeDeterministic(t *testing.T) {
	rec, f := flightRec(FlightConfig{SlowK: 4})
	runOp(rec, "search", [2]int64{10, 1}, [2]int64{20, 1})
	runOp(rec, "knn", [2]int64{30, 2}, [2]int64{40, -1})
	runOp(rec, "search", [2]int64{15, 3})
	d := f.Snapshot()
	var a, b bytes.Buffer
	d.WriteAnalysis(&a, 10)
	d.WriteAnalysis(&b, 10)
	if a.String() != b.String() {
		t.Fatal("WriteAnalysis is not deterministic for the same dump")
	}
	out := a.String()
	for _, want := range []string{"per-op modeled-latency attribution", "top straggler modules", "round imbalance", "knn", "search"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis missing %q:\n%s", want, out)
		}
	}
	// Ring and slow share traces; records must not be double-counted.
	if !strings.Contains(out, "analysis: 3 records") {
		t.Fatalf("expected 3 deduplicated records:\n%s", out)
	}
}

func TestFlightStreamingRecorderSkipsRoundEvents(t *testing.T) {
	// A flight-only recorder (streaming, no sink) must keep per-op records
	// without accumulating round events.
	rec, f := flightRec(FlightConfig{})
	rec.SetRetainEvents(false)
	runOp(rec, "search", [2]int64{10, 1}, [2]int64{20, 2})
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("streaming recorder retained %d events", n)
	}
	d := f.Snapshot()
	if len(d.Ring) != 1 || d.Ring[0].Rounds != 2 || len(d.Ring[0].RoundDetail) != 2 {
		t.Fatalf("flight record incomplete: %+v", d.Ring)
	}
	// Totals still accumulate.
	total, rounds := rec.Totals()
	if rounds != 2 || total.PIMSeconds == 0 {
		t.Fatalf("totals = %+v, %d rounds", total, rounds)
	}
}
