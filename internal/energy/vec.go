// Vectorized battery accounting for a million-participant fleet: the
// fleet scheduler already serializes access per shard, so a lock or an
// object per node would buy nothing. Bank is struct-of-arrays: one
// shared capacity, one shared idle total that the shard's tick charges
// every node at once, and one spend float per node for what that node
// alone drew.

package energy

import "errors"

// Bank is per-node battery accounting over a flat array: node i has used
// Used(i) = idle + spent[i] against the shared CapacityMJ, where idle is
// what DrainAll charged every node and spent[i] what Drain charged node
// i. A Bank is owned by exactly one fleet shard and mutated only on that
// shard's scheduler turn — it is deliberately not safe for concurrent use
// (that is the point; Meter is the concurrently-shared ledger).
type Bank struct {
	CapacityMJ float64

	idle  float64
	spent []float64
}

// NewBank returns an n-node bank. capacityMJ <= 0 selects the same
// default as a typical phone battery, 4e7 mJ (≈40 kJ).
func NewBank(n int, capacityMJ float64) (*Bank, error) {
	if n < 0 {
		return nil, errors.New("energy: negative node count")
	}
	if capacityMJ <= 0 {
		capacityMJ = 4e7
	}
	return &Bank{spent: make([]float64, n), CapacityMJ: capacityMJ}, nil
}

// Len returns the node count.
func (b *Bank) Len() int { return len(b.spent) }

// Drain charges node i. Overdraw is recorded; the node simply reads as
// depleted afterwards.
func (b *Bank) Drain(i int, mj float64) { b.spent[i] += mj }

// DrainAll charges every node the same amount — the per-tick idle draw —
// in O(1): it grows the shared idle total. Allocation-free: this runs on
// the fleet tick path.
func (b *Bank) DrainAll(mj float64) { b.idle += mj }

// Used returns what node i has drawn: the shared idle total plus its own
// spend.
func (b *Bank) Used(i int) float64 { return b.idle + b.spent[i] }

// Depleted reports whether node i has exhausted its capacity: use at or
// above CapacityMJ.
func (b *Bank) Depleted(i int) bool { return b.Used(i) >= b.CapacityMJ }

// Alive counts nodes that still have charge.
func (b *Bank) Alive() int {
	n := 0
	for i := range b.spent {
		if !b.Depleted(i) {
			n++
		}
	}
	return n
}

// TotalUsedMJ sums Used over the bank, in index order (the sum is part of
// the fleet campaign's deterministic output).
func (b *Bank) TotalUsedMJ() float64 {
	t := 0.0
	for i := range b.spent {
		t += b.Used(i)
	}
	return t
}
