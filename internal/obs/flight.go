package obs

import (
	"sync"
	"time"
)

// Per-operation tracing: every top-level batch operation recorded through a
// Recorder with an attached FlightRecorder gets a trace ID and a compact
// OpRecord — wall time, the modeled CPU/PIM/comm decomposition, round count,
// peak active-module count, and the per-round straggler attribution derived
// from the dense module loads the simulator already computes. Records land
// in an always-on bounded ring (the flight recorder proper: what were the
// last N operations doing), and operations that exceed a latency threshold
// (or rank in the top K by latency) are retained with their full round
// detail by the slow-op capturer.
//
// Determinism contract: everything except WallSeconds derives from modeled
// quantities, so two identical runs produce identical records (and
// identical `pimzd-trace analyze` reports, which ignore wall time). Wall
// time is the one real-clock field — it is what a production operator
// tail-samples on, and it never feeds a golden-tested export.
//
// Concurrency: the writer side (beginOp/addRound/endOp) is invoked by
// exactly one Recorder under its lock, so the in-flight scratch needs no
// lock of its own; the published ring and slow list are guarded by fr.mu so
// admin scrapes can snapshot while batches run. A nil *FlightRecorder is
// the disabled state: every method is nil-safe, mirroring *Recorder.

// FlightDumpFormat identifies the JSON dump schema version.
const FlightDumpFormat = "pimzd-flight-v1"

// FlightConfig sizes a FlightRecorder.
type FlightConfig struct {
	// Ring is the flight-recorder ring capacity in records (<= 0: 256).
	Ring int
	// RingRounds caps the per-record round detail kept in the ring; rounds
	// past the cap are counted but not detailed (<= 0: 64). Slow-op records
	// always keep full detail (up to MaxRounds).
	RingRounds int
	// MaxRounds bounds the in-flight round-detail scratch, a safety net for
	// pathological single ops (<= 0: 4096).
	MaxRounds int
	// SlowWallSeconds, when > 0, captures any op whose wall time reaches it.
	SlowWallSeconds float64
	// SlowModeledSeconds, when > 0, captures any op whose modeled total
	// (CPU+PIM+comm) reaches it.
	SlowModeledSeconds float64
	// SlowK bounds the retained slow-op set (<= 0: 16). With both
	// thresholds zero the capturer keeps the top K by latency outright.
	SlowK int
}

func (c *FlightConfig) fill() {
	if c.Ring <= 0 {
		c.Ring = 256
	}
	if c.RingRounds <= 0 {
		c.RingRounds = 64
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 4096
	}
	if c.SlowK <= 0 {
		c.SlowK = 16
	}
}

// FlightRound is one BSP round of an operation's record.
type FlightRound struct {
	Seq          int64   `json:"seq"` // recorder-global round sequence
	Active       int     `json:"active"`
	MaxCycles    int64   `json:"max_cycles"`
	TotalCycles  int64   `json:"total_cycles"`
	BytesToPIM   int64   `json:"bytes_to_pim"`
	BytesFromPIM int64   `json:"bytes_from_pim"`
	PIMSeconds   float64 `json:"pim_seconds"`
	CommSeconds  float64 `json:"comm_seconds"`
	// Straggler is the round's unique slowest module (most cycles; channel
	// bytes break ties and stand in for pure-transfer rounds), or -1 when
	// the round was balanced (no unique maximum) or idle.
	Straggler int `json:"straggler"`
}

// OpRecord is the compact per-operation trace record.
type OpRecord struct {
	Trace       uint64  `json:"trace"` // monotone per-recorder trace ID
	Op          string  `json:"op"`
	WallSeconds float64 `json:"wall_seconds"` // real time (non-deterministic)
	CPUSeconds  float64 `json:"cpu_seconds"`  // modeled decomposition
	PIMSeconds  float64 `json:"pim_seconds"`
	CommSeconds float64 `json:"comm_seconds"`
	Rounds      int64   `json:"rounds"`
	MaxActive   int     `json:"max_active_modules"`

	// Straggler is the module that was the per-round straggler most often
	// within this op (-1 when no round had one); StragglerRounds counts how
	// many rounds it was. Ties resolve to the lowest module id.
	Straggler       int   `json:"straggler"`
	StragglerRounds int64 `json:"straggler_rounds"`

	RoundDetail []FlightRound `json:"round_detail,omitempty"`
	// Truncated marks a record whose RoundDetail was capped (ring records
	// past RingRounds, or any op past MaxRounds).
	Truncated bool `json:"truncated,omitempty"`
}

// ModeledSeconds returns the record's modeled end-to-end time.
func (r *OpRecord) ModeledSeconds() float64 {
	return r.CPUSeconds + r.PIMSeconds + r.CommSeconds
}

// FlightDump is the JSON snapshot of a FlightRecorder: the ring oldest
// first, the slow-op set slowest first, and the capture totals.
type FlightDump struct {
	Format   string     `json:"format"`
	Captured int64      `json:"captured"` // ops ever recorded
	Dropped  int64      `json:"dropped"`  // ring records overwritten
	Ring     []OpRecord `json:"ring"`
	Slow     []OpRecord `json:"slow"`
}

// FlightRecorder is the bounded per-op record store. Create with
// NewFlightRecorder and attach to a Recorder with SetFlight; nil disables
// per-op tracing at the cost of one pointer test per op.
type FlightRecorder struct {
	cfg FlightConfig

	mu       sync.Mutex
	seq      uint64 // last assigned trace ID
	captured int64
	dropped  int64
	ring     []OpRecord // capacity cfg.Ring; slots reuse round slices
	ringLen  int
	ringNext int            // slot the next record lands in
	slow     TopK[OpRecord] // slots reuse round slices

	// In-flight scratch, written only by the owning Recorder (under its
	// lock). Round slices and straggler-count lanes are reused, so the
	// steady state allocates nothing.
	curOpen      bool
	cur          OpRecord
	curRounds    []FlightRound
	wallStart    time.Time
	stragCount   []int32 // per-module straggler-round counts (sparse reset)
	stragTouched []int32 // modules touched this op
}

// NewFlightRecorder returns an enabled flight recorder.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg.fill()
	return &FlightRecorder{
		cfg:  cfg,
		ring: make([]OpRecord, cfg.Ring),
		slow: NewTopK[OpRecord](cfg.SlowK),
	}
}

// Enabled reports whether per-op records are being collected.
func (f *FlightRecorder) Enabled() bool { return f != nil }

// beginOp opens the in-flight record and assigns its trace ID. Called by
// the owning Recorder when a top-level op span opens.
func (f *FlightRecorder) beginOp(name string) uint64 {
	f.mu.Lock()
	f.seq++
	trace := f.seq
	f.mu.Unlock()
	f.cur = OpRecord{Trace: trace, Op: name, Straggler: -1}
	f.curRounds = f.curRounds[:0]
	f.curOpen = true
	f.wallStart = time.Now()
	return trace
}

// opOpen reports whether an op record is being built (rounds outside any
// op — none exist today — would not be attributed).
func (f *FlightRecorder) opOpen() bool { return f != nil && f.curOpen }

// addRound appends one BSP round to the in-flight record. Called by the
// owning Recorder from RecordRound.
func (f *FlightRecorder) addRound(ri RoundInfo, pimSec, commSec float64) {
	if len(f.curRounds) >= f.cfg.MaxRounds {
		f.cur.Truncated = true
		f.noteStraggler(ri.Straggler)
		if ri.ActiveModules > f.cur.MaxActive {
			f.cur.MaxActive = ri.ActiveModules
		}
		return
	}
	f.curRounds = append(f.curRounds, FlightRound{
		Seq:          ri.Seq,
		Active:       ri.ActiveModules,
		MaxCycles:    ri.MaxCycles,
		TotalCycles:  ri.TotalCycles,
		BytesToPIM:   ri.BytesToPIM,
		BytesFromPIM: ri.BytesFromPIM,
		PIMSeconds:   pimSec,
		CommSeconds:  commSec,
		Straggler:    ri.Straggler,
	})
	if ri.ActiveModules > f.cur.MaxActive {
		f.cur.MaxActive = ri.ActiveModules
	}
	f.noteStraggler(ri.Straggler)
}

// noteStraggler bumps the per-module straggler-round count, growing the
// lanes on first sight of a module and remembering it for the sparse reset.
func (f *FlightRecorder) noteStraggler(module int) {
	if module < 0 {
		return
	}
	if module >= len(f.stragCount) {
		next := make([]int32, module+1)
		copy(next, f.stragCount)
		f.stragCount = next
	}
	if f.stragCount[module] == 0 {
		f.stragTouched = append(f.stragTouched, int32(module))
	}
	f.stragCount[module]++
}

// endOp finalizes and publishes the in-flight record. breakdown and rounds
// are the op span's closing totals (the same numbers the span event
// carries).
func (f *FlightRecorder) endOp(breakdown Breakdown, rounds int64) {
	if !f.curOpen {
		return
	}
	f.curOpen = false
	rec := f.cur
	rec.WallSeconds = time.Since(f.wallStart).Seconds()
	rec.CPUSeconds = breakdown.CPUSeconds
	rec.PIMSeconds = breakdown.PIMSeconds
	rec.CommSeconds = breakdown.CommSeconds
	rec.Rounds = rounds

	// Op-level straggler: the module that was the round straggler most
	// often; ties resolve to the lowest id (ascending touched scan order is
	// not guaranteed, so compare explicitly). The lanes reset sparsely —
	// only touched entries — so wide machines don't pay P per op.
	var best int32 = -1
	var bestN int32
	for _, m := range f.stragTouched {
		n := f.stragCount[m]
		f.stragCount[m] = 0
		if n > bestN || (n == bestN && best != -1 && m < best) {
			best, bestN = m, n
		}
	}
	f.stragTouched = f.stragTouched[:0]
	rec.Straggler = int(best)
	rec.StragglerRounds = int64(bestN)

	f.mu.Lock()
	f.publishRing(rec)
	f.publishSlow(rec)
	f.captured++
	f.mu.Unlock()
}

// publishRing copies the record into the next ring slot, reusing the
// slot's round slice and capping detail at RingRounds; caller holds f.mu.
func (f *FlightRecorder) publishRing(rec OpRecord) {
	detail := f.curRounds
	if len(detail) > f.cfg.RingRounds {
		detail = detail[:f.cfg.RingRounds]
		rec.Truncated = true
	}
	storeRecord(&f.ring[f.ringNext], rec, detail)
	f.ringNext = (f.ringNext + 1) % len(f.ring)
	if f.ringLen < len(f.ring) {
		f.ringLen++
	} else {
		f.dropped++
	}
}

// qualifiesSlow applies the capture rule: any configured threshold reached,
// or — with no thresholds — every op competes for the top K.
func (f *FlightRecorder) qualifiesSlow(rec *OpRecord) bool {
	if f.cfg.SlowWallSeconds > 0 && rec.WallSeconds >= f.cfg.SlowWallSeconds {
		return true
	}
	if f.cfg.SlowModeledSeconds > 0 && rec.ModeledSeconds() >= f.cfg.SlowModeledSeconds {
		return true
	}
	return f.cfg.SlowWallSeconds == 0 && f.cfg.SlowModeledSeconds == 0
}

// publishSlow offers the record to the top-K slow set, which keeps full
// round detail. It ranks by wall time when a wall threshold is configured
// (the operator's view), modeled time otherwise (the deterministic view);
// caller holds f.mu.
func (f *FlightRecorder) publishSlow(rec OpRecord) {
	if !f.qualifiesSlow(&rec) {
		return
	}
	cost := rec.ModeledSeconds()
	if f.cfg.SlowWallSeconds > 0 {
		cost = rec.WallSeconds
	}
	if slot := f.slow.Offer(cost, rec.Trace); slot != nil {
		storeRecord(slot, rec, f.curRounds)
	}
}

// storeRecord overwrites a ring or slow-set slot with rec and a copy of
// detail, reusing the round-detail capacity the slot already holds.
func storeRecord(slot *OpRecord, rec OpRecord, detail []FlightRound) {
	rec.RoundDetail = append(slot.RoundDetail[:0], detail...)
	*slot = rec
}

// LastTrace returns the most recently assigned trace ID (0 before any op).
func (f *FlightRecorder) LastTrace() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot returns a deep-copied dump: the ring oldest first, the slow set
// ordered slowest first (ties by ascending trace ID).
func (f *FlightRecorder) Snapshot() FlightDump {
	if f == nil {
		return FlightDump{Format: FlightDumpFormat}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{
		Format:   FlightDumpFormat,
		Captured: f.captured,
		Dropped:  f.dropped,
		Ring:     make([]OpRecord, 0, f.ringLen),
		Slow:     f.slow.Snapshot(cloneRecord),
	}
	start := f.ringNext - f.ringLen
	if start < 0 {
		start += len(f.ring)
	}
	for i := 0; i < f.ringLen; i++ {
		d.Ring = append(d.Ring, cloneRecord(f.ring[(start+i)%len(f.ring)]))
	}
	return d
}

// SlowOps returns a deep copy of the captured slow-op set, slowest first.
func (f *FlightRecorder) SlowOps() []OpRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slow.Snapshot(cloneRecord)
}

// cloneRecord deep-copies a record out of its reused slot.
func cloneRecord(r OpRecord) OpRecord {
	r.RoundDetail = append([]FlightRound(nil), r.RoundDetail...)
	return r
}
