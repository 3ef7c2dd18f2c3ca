package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// TopK is the bounded slow capture shared by the flight recorder's slow-op
// set and the serving layer's slow-request set. It holds at most K items
// under one rule:
//
//   - while fewer than K items are held, every offer is admitted;
//   - once full, a newcomer evicts the cheapest held item only if it costs
//     strictly more, so on a tie the incumbent stays and a stream of equal
//     items settles;
//   - Snapshot orders items slowest first, ties by ascending sequence.
//
// Sequences rise with each offer, so the held set is always the first K
// offers in snapshot order. An evicted slot is handed back for overwrite,
// letting callers reuse its buffers: a full capture allocates nothing.
// TopK does no locking; its owner serializes access.
type TopK[T any] struct {
	k     int
	slots []topKSlot[T]
}

type topKSlot[T any] struct {
	cost float64
	seq  uint64
	item T
}

// ranksBelow reports whether s comes after o in snapshot order.
func (s *topKSlot[T]) ranksBelow(o *topKSlot[T]) bool {
	return s.cost < o.cost || (s.cost == o.cost && s.seq > o.seq)
}

// NewTopK returns an empty capture holding at most k items.
func NewTopK[T any](k int) TopK[T] {
	return TopK[T]{k: k, slots: make([]topKSlot[T], 0, k)}
}

// Offer returns the slot a newcomer of the given cost and sequence should
// be written into, or nil when the capture is full and the newcomer does
// not beat its cheapest item. The slot still holds the item being evicted
// (the zero value while the capture fills), so its buffers can be reused.
func (c *TopK[T]) Offer(cost float64, seq uint64) *T {
	if len(c.slots) < c.k {
		c.slots = append(c.slots, topKSlot[T]{cost: cost, seq: seq})
		return &c.slots[len(c.slots)-1].item
	}
	if len(c.slots) == 0 {
		return nil
	}
	cheapest := &c.slots[0]
	for i := 1; i < len(c.slots); i++ {
		if c.slots[i].ranksBelow(cheapest) {
			cheapest = &c.slots[i]
		}
	}
	if cost <= cheapest.cost {
		return nil
	}
	cheapest.cost, cheapest.seq = cost, seq
	return &cheapest.item
}

// Snapshot returns the held items slowest first, ties by ascending
// sequence. clone deep-copies whatever an item shares with its slot.
func (c *TopK[T]) Snapshot(clone func(T) T) []T {
	sorted := append([]topKSlot[T](nil), c.slots...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[j].ranksBelow(&sorted[i]) })
	out := make([]T, len(sorted))
	for i := range sorted {
		out[i] = clone(sorted[i].item)
	}
	return out
}

// WriteDump writes a snapshot as indented JSON: the file and HTTP format
// of the flight-recorder, slow-request and SLO dumps that `pimzd-trace
// analyze` and `checkjson` read.
func WriteDump(w io.Writer, dump any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// WriteDumpFile writes a capture snapshot to path in the WriteDump format.
func WriteDumpFile(path string, dump any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDump(f, dump); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadDump parses a JSON dump written by WriteDump.
func ReadDump[T any](r io.Reader) (*T, error) {
	var d T
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, err
	}
	return &d, nil
}
