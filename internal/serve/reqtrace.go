package serve

import (
	"sync"

	"pimzdtree/internal/obs"
)

// Bounded slow-request capture: the request-level sibling of the
// flight recorder's slow-op set. Requests whose total wall time reaches
// the threshold (or, with no threshold, rank in the top K outright) are
// retained with their full stage decomposition, the flight-recorder
// trace IDs of the coalesced batches that served them, and — for
// sharded backends with fan-out capture on — the per-shard fan-out
// breakdown. /snapshot/slowrequests serves the dump;
// `pimzd-trace analyze -requests` turns it into a stage-attribution
// report.
//
// A nil *RequestTracer is the disabled state: every method is nil-safe,
// mirroring *obs.FlightRecorder.

// RequestDumpFormat identifies the JSON dump schema version.
const RequestDumpFormat = "pimzd-requests-v1"

// RequestTraceConfig sizes a RequestTracer, mirroring the slow-capture
// knobs of obs.FlightConfig.
type RequestTraceConfig struct {
	// SlowWallSeconds, when > 0, captures any request whose total wall
	// time reaches it. With the threshold zero the capturer keeps the
	// top K by wall time outright.
	SlowWallSeconds float64
	// SlowK bounds the retained slow-request set (<= 0: 16).
	SlowK int
}

// RequestRecord is one captured slow request.
type RequestRecord struct {
	// Seq is the tracer-global capture sequence (monotone; ties in wall
	// time resolve by it).
	Seq uint64 `json:"seq"`
	// ID is the client-echoed request ID (0 when the client sent none).
	ID uint64 `json:"id,omitempty"`
	Op string `json:"op"`
	// Err is the completion error, if any.
	Err string `json:"error,omitempty"`
	// Ops is the request's point-op count (batch size).
	Ops int `json:"ops"`
	K   int `json:"k,omitempty"`
	// Epoch is the update epoch the request observed.
	Epoch uint64 `json:"epoch"`
	// Trace / FirstTrace are the flight-recorder trace IDs of the last /
	// first coalesced tree batch that served the request — resolvable in
	// /snapshot/flightrecorder while the ring still holds them.
	Trace      uint64 `json:"trace,omitempty"`
	FirstTrace uint64 `json:"first_trace,omitempty"`
	// TotalSeconds is the admitted→replied wall time; StageSeconds is its
	// exact decomposition (index-aligned with the dump's "stages" list and
	// summing to TotalSeconds).
	TotalSeconds float64            `json:"total_seconds"`
	StageSeconds [NumStages]float64 `json:"stage_seconds"`

	// Fan-out breakdown (sharded backends with capture on; zero/empty
	// otherwise). FanOut is the largest per-query shard fan-out among the
	// request's queries; FanPruned counts shard probes the block BVH
	// excluded in its serving batch; FanSpans is that batch's per-shard
	// cost breakdown.
	FanOut    int              `json:"fan_out,omitempty"`
	FanPruned int              `json:"fan_pruned,omitempty"`
	FanSpans  []obs.FanoutSpan `json:"fan_spans,omitempty"`
}

// RequestDump is the /snapshot/slowrequests JSON document: capture
// totals plus the slow set, slowest first.
type RequestDump struct {
	Format string `json:"format"`
	// Stages names the stage_seconds indices.
	Stages []string `json:"stages"`
	// Observed counts requests ever offered to the tracer.
	Observed int64           `json:"observed"`
	Slow     []RequestRecord `json:"slow"`
}

// RequestTracer is the bounded slow-request store. Create with
// NewRequestTracer and hand to the engine via Config.Requests.
type RequestTracer struct {
	cfg RequestTraceConfig

	mu       sync.Mutex
	seq      uint64
	observed int64
	slow     obs.TopK[RequestRecord] // slots reuse fan-span slices
}

// NewRequestTracer returns an enabled tracer.
func NewRequestTracer(cfg RequestTraceConfig) *RequestTracer {
	if cfg.SlowK <= 0 {
		cfg.SlowK = 16
	}
	return &RequestTracer{cfg: cfg, slow: obs.NewTopK[RequestRecord](cfg.SlowK)}
}

// Enabled reports whether requests are being captured.
func (t *RequestTracer) Enabled() bool { return t != nil }

// offer considers one finished request for capture. wall is the sealed
// total; the request's stamps, fan-out fields and Resp are final. The
// fast path (request under the threshold with a full slow set) takes the
// lock, compares, and returns without allocating.
func (t *RequestTracer) offer(r *Request, wall float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observed++
	t.seq++
	if t.cfg.SlowWallSeconds > 0 && wall < t.cfg.SlowWallSeconds {
		return
	}
	slot := t.slow.Offer(wall, t.seq)
	if slot == nil {
		return
	}
	spans := slot.FanSpans
	*slot = RequestRecord{
		Seq:          t.seq,
		ID:           r.ID,
		Op:           r.Op.String(),
		Ops:          int(r.opCount()),
		K:            r.K,
		Epoch:        r.Resp.Epoch,
		Trace:        r.Resp.Trace,
		FirstTrace:   r.firstTrace,
		TotalSeconds: wall,
		FanOut:       int(r.fanMax),
		FanPruned:    int(r.fanPruned),
		FanSpans:     append(spans[:0], r.fanSpans...),
	}
	if r.Resp.Err != nil {
		slot.Err = r.Resp.Err.Error()
	}
	for s := 0; s < NumStages; s++ {
		slot.StageSeconds[s] = r.stageSeconds(s)
	}
}

// Snapshot returns a deep-copied dump, slowest first (ties by ascending
// capture sequence — a total order, so snapshots are reproducible).
func (t *RequestTracer) Snapshot() RequestDump {
	d := RequestDump{Format: RequestDumpFormat, Stages: StageNames[:]}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d.Observed = t.observed
	d.Slow = t.slow.Snapshot(func(rec RequestRecord) RequestRecord {
		rec.FanSpans = append([]obs.FanoutSpan(nil), rec.FanSpans...)
		return rec
	})
	return d
}
