// Vectorized energy accounting: Battery keeps a mutex and two floats
// per node, which is exactly wrong for a million-participant fleet — the
// fleet scheduler already serializes access per shard, so the lock buys
// nothing and the per-object overhead dominates. Bank is the
// struct-of-arrays equivalent: one shared capacity, one used-energy
// float per node, drained in bulk by the shard's tick.

package energy

import (
	"errors"

	"repro/internal/sensor"
)

// Bank is per-node battery accounting over a flat array: node i's state
// is UsedMJ[i] against the shared CapacityMJ. A Bank is owned by exactly
// one fleet shard and mutated only on that shard's scheduler turn — it
// is deliberately not safe for concurrent use (that is the point; use
// Battery for concurrently-shared meters).
type Bank struct {
	UsedMJ     []float64
	CapacityMJ float64
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
	return &Bank{UsedMJ: make([]float64, n), CapacityMJ: capacityMJ}, nil
}

// Len returns the node count.
func (b *Bank) Len() int { return len(b.UsedMJ) }

// Drain charges node i. Like Battery.Drain, overdraw is recorded; the
// node simply reads as depleted afterwards.
func (b *Bank) Drain(i int, mj float64) { b.UsedMJ[i] += mj }

// DrainAll charges every node the same amount — the per-tick idle draw.
// Allocation-free: this runs on the fleet tick path.
func (b *Bank) DrainAll(mj float64) {
	for i := range b.UsedMJ {
		b.UsedMJ[i] += mj
	}
}

// Depleted reports whether node i has exhausted its capacity (the same
// >= boundary as Battery.Drain's ErrDepleted).
func (b *Bank) Depleted(i int) bool { return b.UsedMJ[i] >= b.CapacityMJ }

// Alive counts nodes that still have charge.
func (b *Bank) Alive() int {
	n := 0
	for i := range b.UsedMJ {
		if b.UsedMJ[i] < b.CapacityMJ {
			n++
		}
	}
	return n
}

// TotalUsedMJ sums spending across the bank, in index order (the sum is
// part of the fleet campaign's deterministic output).
func (b *Bank) TotalUsedMJ() float64 {
	t := 0.0
	for i := range b.UsedMJ {
		t += b.UsedMJ[i]
	}
	return t
}

// SampleCostMJ exposes the model's per-sample cost for a sensor kind;
// ok is false for unknown kinds. The fleet layer looks the cost up once
// per campaign instead of paying Meter's map lookup per sample.
func (m *Model) SampleCostMJ(kind sensor.Kind) (float64, bool) {
	c, ok := m.SensorSampleMJ[kind]
	return c, ok
}
