package pim

import (
	"strings"
	"sync/atomic"
	"testing"

	"pimzdtree/internal/costmodel"
	"pimzdtree/internal/obs"
)

func newTestSystem(p int) *System {
	m := costmodel.UPMEMServer()
	m.PIMModules = p
	return NewSystem(m)
}

func TestNewSystemPanicsWithoutModules(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSystem(costmodel.BaselineServer())
}

func TestRoundRunsAllActiveModules(t *testing.T) {
	s := newTestSystem(64)
	var ran atomic.Int64
	active := []int{3, 7, 11, 63}
	st := s.Round(active, func(m *Module) {
		ran.Add(1)
		m.Work(int64(m.ID))
	})
	if ran.Load() != int64(len(active)) {
		t.Fatalf("handlers ran %d times", ran.Load())
	}
	if st.MaxCycles != 63 {
		t.Fatalf("MaxCycles = %d, want 63", st.MaxCycles)
	}
	if st.TotalCycles != 3+7+11+63 {
		t.Fatalf("TotalCycles = %d", st.TotalCycles)
	}
	if st.ActiveModules != 4 {
		t.Fatalf("ActiveModules = %d", st.ActiveModules)
	}
}

func TestRoundAccumulatesMetrics(t *testing.T) {
	s := newTestSystem(16)
	s.Round([]int{0, 1}, func(m *Module) {
		m.Recv(100)
		m.Work(50)
		m.Send(30)
	})
	s.Round([]int{2}, func(m *Module) {
		m.Work(10)
	})
	got := s.Metrics()
	if got.Rounds != 2 {
		t.Fatalf("Rounds = %d", got.Rounds)
	}
	if got.BytesToPIM != 200 || got.BytesFromPIM != 60 {
		t.Fatalf("traffic = %d/%d", got.BytesToPIM, got.BytesFromPIM)
	}
	if got.PIMCycleSum != 60 { // max 50 + max 10
		t.Fatalf("PIMCycleSum = %d", got.PIMCycleSum)
	}
	if got.PIMCycleTotal != 110 {
		t.Fatalf("PIMCycleTotal = %d", got.PIMCycleTotal)
	}
	if got.ChannelBytes() != 260 {
		t.Fatalf("ChannelBytes = %d", got.ChannelBytes())
	}
}

func TestRoundCountersResetBetweenRounds(t *testing.T) {
	s := newTestSystem(4)
	s.Round([]int{0}, func(m *Module) { m.Work(100) })
	st := s.Round([]int{0}, func(m *Module) { m.Work(1) })
	if st.MaxCycles != 1 {
		t.Fatalf("cycles leaked across rounds: %d", st.MaxCycles)
	}
}

func TestEmptyRoundStillCountsMux(t *testing.T) {
	s := newTestSystem(4)
	st := s.Round(nil, func(m *Module) {})
	if st.Seconds <= 0 {
		t.Fatal("empty round should cost mux time")
	}
	if got := s.Metrics(); got.Rounds != 1 {
		t.Fatal("round not counted")
	}
}

func TestPIMAndCommSecondsSplit(t *testing.T) {
	s := newTestSystem(8)
	s.Round([]int{0}, func(m *Module) {
		m.Work(1_000_000)
		m.Send(1 << 20)
	})
	got := s.Metrics()
	if got.PIMSeconds <= 0 || got.CommSeconds <= 0 {
		t.Fatalf("breakdown = %+v", got)
	}
	wantPIM := 1_000_000 / (s.Machine.PIMHz * s.Machine.PIMIPC)
	if diff := got.PIMSeconds - wantPIM; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("PIMSeconds = %g, want %g", got.PIMSeconds, wantPIM)
	}
	if got.TotalSeconds() != got.CPUSeconds+got.PIMSeconds+got.CommSeconds {
		t.Fatal("TotalSeconds mismatch")
	}
}

func TestDirectAPIReducesRoundTime(t *testing.T) {
	direct := newTestSystem(2048)
	sdk := newTestSystem(2048)
	sdk.DirectAPI = false
	all := direct.AllModules()
	h := func(m *Module) { m.Work(1) }
	td := direct.Round(all, h)
	ts := sdk.Round(all, h)
	if ts.Seconds <= td.Seconds {
		t.Fatalf("SDK round %g should be slower than direct %g", ts.Seconds, td.Seconds)
	}
}

func TestCPUPhase(t *testing.T) {
	s := newTestSystem(4)
	s.CPUPhase(1000, 2000, 3)
	got := s.Metrics()
	if got.CPUWork != 1000 || got.CPUTraffic != 2000 || got.CPUChase != 3 {
		t.Fatalf("CPU metrics = %+v", got)
	}
	if got.CPUSeconds <= 0 {
		t.Fatal("CPU seconds not accumulated")
	}
	if got.BusBytes() != 2000 {
		t.Fatalf("BusBytes = %d", got.BusBytes())
	}
}

func TestMetricsSub(t *testing.T) {
	s := newTestSystem(4)
	s.CPUPhase(100, 0, 0)
	before := s.Metrics()
	s.Round([]int{1}, func(m *Module) { m.Work(7); m.Send(8) })
	delta := s.Metrics().Sub(before)
	if delta.CPUWork != 0 {
		t.Fatalf("delta.CPUWork = %d", delta.CPUWork)
	}
	if delta.Rounds != 1 || delta.PIMCycleSum != 7 || delta.BytesFromPIM != 8 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestResetMetrics(t *testing.T) {
	s := newTestSystem(4)
	s.Module(2).StoreBytes(500)
	s.CPUPhase(10, 0, 0)
	s.ResetMetrics()
	if got := s.Metrics(); got.CPUWork != 0 || got.Rounds != 0 {
		t.Fatal("metrics not reset")
	}
	if total, _ := s.StoredBytesTotal(); total != 500 {
		t.Fatal("stored bytes should survive reset")
	}
}

func TestStoredBytes(t *testing.T) {
	s := newTestSystem(4)
	s.Module(0).StoreBytes(100)
	s.Module(1).StoreBytes(300)
	s.Module(0).StoreBytes(-50)
	total, max := s.StoredBytesTotal()
	if total != 350 || max != 300 {
		t.Fatalf("total=%d max=%d", total, max)
	}
	if s.Module(0).StoredBytes() != 50 {
		t.Fatal("per-module footprint wrong")
	}
}

func TestBroadcast(t *testing.T) {
	s := newTestSystem(32)
	st := s.Broadcast(64)
	if st.BytesToPIM != 64*32 {
		t.Fatalf("broadcast bytes = %d", st.BytesToPIM)
	}
	if st.ActiveModules != 32 {
		t.Fatal("broadcast should touch all modules")
	}
}

func TestModuleOfDeterministicAndSpread(t *testing.T) {
	s := newTestSystem(256)
	if s.ModuleOf(12345) != s.ModuleOf(12345) {
		t.Fatal("ModuleOf not deterministic")
	}
	// Sequential keys should spread across many modules.
	seen := map[int]bool{}
	for k := uint64(0); k < 1024; k++ {
		seen[s.ModuleOf(k)] = true
	}
	if len(seen) < 200 {
		t.Fatalf("sequential keys landed on only %d of 256 modules", len(seen))
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip many output bits on average.
	var totalFlips int
	for bit := 0; bit < 64; bit++ {
		h1 := Hash64(0)
		h2 := Hash64(1 << bit)
		diff := h1 ^ h2
		for ; diff != 0; diff &= diff - 1 {
			totalFlips++
		}
	}
	if avg := float64(totalFlips) / 64; avg < 24 || avg > 40 {
		t.Fatalf("avalanche average %f bits, want ~32", avg)
	}
}

func TestImbalanced(t *testing.T) {
	// 10 modules, loads {30,1,...}: mean over P=10 of total 39 is 3.9;
	// max 30 > 11.7 -> imbalanced.
	loads := []int{30, 1, 2, 3, 3, 0, 0, 0, 0, 0}
	if !Imbalanced(loads, 10) {
		t.Fatal("should be imbalanced")
	}
	// Even loads are balanced.
	even := make([]int, 10)
	for i := range even {
		even[i] = 5
	}
	if Imbalanced(even, 10) {
		t.Fatal("even loads flagged imbalanced")
	}
	if Imbalanced(nil, 10) {
		t.Fatal("empty loads flagged imbalanced")
	}
	if Imbalanced(make([]int, 10), 10) {
		t.Fatal("all-idle loads flagged imbalanced")
	}
}

func TestAllModules(t *testing.T) {
	s := newTestSystem(5)
	ids := s.AllModules()
	if len(ids) != 5 || ids[0] != 0 || ids[4] != 4 {
		t.Fatalf("AllModules = %v", ids)
	}
}

func TestString(t *testing.T) {
	s := newTestSystem(5)
	if s.String() != "pim.System{P=5, direct=true}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestModulesIsolatedAcrossHandlers(t *testing.T) {
	// Each handler only writes its own module; verify sums are per-module.
	s := newTestSystem(100)
	s.Round(s.AllModules(), func(m *Module) {
		m.Work(int64(m.ID + 1))
	})
	got := s.Metrics()
	if got.PIMCycleSum != 100 {
		t.Fatalf("max cycles = %d, want 100", got.PIMCycleSum)
	}
	if got.PIMCycleTotal != 5050 {
		t.Fatalf("total cycles = %d, want 5050", got.PIMCycleTotal)
	}
}

// tracedSystem returns a test system reporting its rounds to a fresh
// recorder.
func tracedSystem(p int) (*System, *obs.Recorder) {
	s := newTestSystem(p)
	rec := obs.New()
	s.SetRecorder(rec)
	return s, rec
}

// recordedRounds returns the round payloads of the recorder's retained
// events, in execution order.
func recordedRounds(rec *obs.Recorder) []obs.RoundInfo {
	var out []obs.RoundInfo
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRound {
			out = append(out, *e.Round)
		}
	}
	return out
}

func TestTraceRecordsRounds(t *testing.T) {
	s, rec := tracedSystem(8)
	s.Round([]int{0, 1}, func(m *Module) { m.Work(10); m.Recv(4); m.Send(2) })
	s.Round([]int{2}, func(m *Module) { m.Work(5) })
	tr := recordedRounds(rec)
	if len(tr) != 2 {
		t.Fatalf("recorder has %d rounds", len(tr))
	}
	if tr[0].Seq != 1 || tr[1].Seq != 2 {
		t.Fatal("sequence numbers wrong")
	}
	if tr[0].ActiveModules != 2 || tr[0].MaxCycles != 10 || tr[0].BytesToPIM != 8 {
		t.Fatalf("round 0 = %+v", tr[0])
	}
	s.SetRecorder(nil)
	s.Round([]int{0}, func(m *Module) {})
	if len(recordedRounds(rec)) != 2 {
		t.Fatal("detached recorder still recording")
	}
}

func TestTraceUnlimitedKeepsAll(t *testing.T) {
	s, rec := tracedSystem(4)
	for i := 0; i < 50; i++ {
		s.Round([]int{0}, func(m *Module) {})
	}
	tr := recordedRounds(rec)
	if len(tr) != 50 {
		t.Fatalf("recorder has %d rounds, want 50", len(tr))
	}
	for i, e := range tr {
		if e.Seq != int64(i+1) {
			t.Fatalf("round %d seq = %d", i, e.Seq)
		}
	}
}

func TestTraceUtilization(t *testing.T) {
	s, rec := tracedSystem(4)
	loads := []int64{100, 50, 25, 25}
	s.Round(s.AllModules(), func(m *Module) { m.Work(loads[m.ID]) })
	tr := recordedRounds(rec)
	if len(tr) != 1 {
		t.Fatalf("recorder has %d rounds", len(tr))
	}
	if u := tr[0].Utilization(); u != 0.5 {
		t.Fatalf("utilization = %f", u)
	}
}

func TestTraceUtilizationEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		ri   obs.RoundInfo
		want float64
	}{
		{"zero max cycles", obs.RoundInfo{ActiveModules: 4, MaxCycles: 0, TotalCycles: 0}, 0},
		{"zero modules", obs.RoundInfo{ActiveModules: 0, MaxCycles: 10, TotalCycles: 10}, 0},
		{"both zero", obs.RoundInfo{}, 0},
		{"perfect balance", obs.RoundInfo{ActiveModules: 2, MaxCycles: 5, TotalCycles: 10}, 1},
		{"single module", obs.RoundInfo{ActiveModules: 1, MaxCycles: 7, TotalCycles: 7}, 1},
	}
	for _, tc := range cases {
		if got := tc.ri.Utilization(); got != tc.want {
			t.Errorf("%s: utilization = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestWriteTrace(t *testing.T) {
	s, rec := tracedSystem(4)
	s.Round([]int{0}, func(m *Module) { m.Work(7) })
	var buf strings.Builder
	rec.WriteRounds(&buf)
	if !strings.Contains(buf.String(), "round") || !strings.Contains(buf.String(), "7") {
		t.Fatalf("round table missing content:\n%s", buf.String())
	}
}
