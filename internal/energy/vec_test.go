package energy

import (
	"testing"

	"repro/internal/sensor"
)

// TestBankMatchesBatterySemantics pins Bank's depletion boundary: a node
// is depleted once its use reaches the capacity, not only beyond it.
func TestBankMatchesBatterySemantics(t *testing.T) {
	b, err := NewBank(3, 10)
	if err != nil {
		t.Fatal(err)
	}

	b.Drain(0, 4)
	if b.Depleted(0) {
		t.Fatal("bank depleted at 4/10")
	}
	b.Drain(0, 5.5)
	if b.Depleted(0) {
		t.Fatal("bank depleted at 9.5/10")
	}

	// Exactly at capacity is depleted: the boundary is >=.
	b.Drain(0, 0.5)
	if b.Used(0) != b.CapacityMJ || !b.Depleted(0) {
		t.Fatalf("bank at %v/%v not depleted", b.Used(0), b.CapacityMJ)
	}

	// Other nodes are unaffected; Alive counts them.
	if b.Depleted(1) || b.Depleted(2) {
		t.Fatal("draining node 0 affected others")
	}
	if got := b.Alive(); got != 2 {
		t.Fatalf("alive %d, want 2", got)
	}
	if got := b.TotalUsedMJ(); got != 10 {
		t.Fatalf("total used %v, want 10", got)
	}
}

func TestBankDrainAllAndDefaults(t *testing.T) {
	b, err := NewBank(4, 0) // default capacity
	if err != nil {
		t.Fatal(err)
	}
	if b.CapacityMJ != 4e7 {
		t.Fatalf("default capacity %v, want 4e7", b.CapacityMJ)
	}
	b.DrainAll(2.5)
	b.Drain(2, 1)
	for i := 0; i < b.Len(); i++ {
		want := 2.5
		if i == 2 {
			want = 3.5
		}
		if b.Used(i) != want {
			t.Fatalf("node %d used %v, want %v", i, b.Used(i), want)
		}
	}
	if _, err := NewBank(-1, 10); err == nil {
		t.Fatal("negative node count accepted")
	}

	// The shared idle drain counts toward every node's depletion, and
	// Alive and TotalUsedMJ read the same sums.
	b, err = NewBank(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b.DrainAll(6)
	b.Drain(1, 4)
	if b.Depleted(0) || !b.Depleted(1) || b.Alive() != 2 || b.TotalUsedMJ() != 22 {
		t.Fatalf("after 6 idle and 4 on node 1: depleted %v %v, alive %d, total %v; want false true, 2, 22",
			b.Depleted(0), b.Depleted(1), b.Alive(), b.TotalUsedMJ())
	}
}

// TestSampleMJ: the per-sample cost the fleet prices a reading with is
// the one a Meter charges.
func TestSampleMJ(t *testing.T) {
	var m Meter
	m.ChargeSamples(sensor.Temperature, 1)
	if c := SampleMJ(sensor.Temperature); c <= 0 || c != m.TotalMJ() {
		t.Fatalf("temperature sample costs %v, a meter charged %v", c, m.TotalMJ())
	}
}

// TestBankDrainAllAllocatesNothing pins at run time the zero-allocation
// contract of Bank.DrainAll, a hot entry point (lint.HotEntryPoints).
func TestBankDrainAllAllocatesNothing(t *testing.T) {
	b, err := NewBank(64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.DrainAll(0.25) }); allocs != 0 {
		t.Fatalf("Bank.DrainAll: %.1f allocs per call, want 0", allocs)
	}
}
