package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimzdtree/internal/obs"
	"pimzdtree/internal/serve"
)

// slowReq builds a record whose stages sum exactly to total.
func slowReq(seq uint64, total float64) serve.RequestRecord {
	r := serve.RequestRecord{Seq: seq, Op: "search", TotalSeconds: total}
	r.StageSeconds[1] = total / 4
	r.StageSeconds[4] = total - total/4
	return r
}

func requestDump(observed int64, recs ...serve.RequestRecord) *serve.RequestDump {
	return &serve.RequestDump{
		Format:   serve.RequestDumpFormat,
		Stages:   serve.StageNames[:],
		Observed: observed,
		Slow:     recs,
	}
}

func TestCheckRequestDump(t *testing.T) {
	if err := checkRequestDump(requestDump(5, slowReq(2, 3e-3), slowReq(1, 1e-3), slowReq(4, 1e-3))); err != nil {
		t.Fatalf("valid dump rejected: %v", err)
	}
	skewed := slowReq(1, 2e-3)
	skewed.StageSeconds[0] += 1e-6
	for _, tc := range []struct {
		name    string
		d       *serve.RequestDump
		wantErr string
	}{
		{"faster first", requestDump(5, slowReq(1, 1e-3), slowReq(2, 3e-3)), "slowest-first"},
		{"tie out of seq order", requestDump(5, slowReq(4, 1e-3), slowReq(1, 1e-3)), "slowest-first"},
		{"more than observed", requestDump(1, slowReq(1, 2e-3), slowReq(2, 1e-3)), "exceed"},
		{"stages miss total", requestDump(1, skewed), "stages sum"},
	} {
		err := checkRequestDump(tc.d)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCheckFlightDispatchesOnFormat(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, dump any) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteDump(f, dump); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	tracer := serve.NewRequestTracer(serve.RequestTraceConfig{})
	if err := checkFlight(write("req.json", tracer.Snapshot())); err != nil {
		t.Fatalf("request dump: %v", err)
	}
	fr := obs.NewFlightRecorder(obs.FlightConfig{})
	if err := checkFlight(write("flight.json", fr.Snapshot())); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	bad := requestDump(0, slowReq(1, 1e-3))
	if err := checkFlight(write("bad.json", bad)); err == nil {
		t.Fatal("request dump with more records than observed accepted")
	}
	if err := checkFlight(write("other.json", map[string]string{"format": "x"})); err == nil ||
		!strings.Contains(err.Error(), "format") {
		t.Fatalf("unknown format: err = %v", err)
	}
}
