package energy

import (
	"testing"

	"repro/internal/sensor"
)

// TestBankMatchesBatterySemantics: Bank's depletion boundary agrees with
// the scalar Battery.
func TestBankMatchesBatterySemantics(t *testing.T) {
	b, err := NewBank(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	bat := NewBattery(10)

	b.Drain(0, 4)
	if err := bat.Drain(4); err != nil {
		t.Fatalf("battery depleted early: %v", err)
	}
	if b.Depleted(0) {
		t.Fatal("bank depleted at 4/10")
	}

	// Exactly at capacity is depleted, matching Battery.Drain's >=.
	b.Drain(0, 6)
	if err := bat.Drain(6); err != ErrDepleted {
		t.Fatalf("battery at capacity: %v, want ErrDepleted", err)
	}
	if !b.Depleted(0) {
		t.Fatal("bank not depleted at exactly capacity")
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
		if b.UsedMJ[i] != want {
			t.Fatalf("node %d used %v, want %v", i, b.UsedMJ[i], want)
		}
	}
	if _, err := NewBank(-1, 10); err == nil {
		t.Fatal("negative node count accepted")
	}
}

func TestSampleCostMJ(t *testing.T) {
	m := DefaultModel()
	c, ok := m.SampleCostMJ(sensor.Temperature)
	if !ok || c != m.SensorSampleMJ[sensor.Temperature] {
		t.Fatalf("temperature cost (%v,%v)", c, ok)
	}
	if _, ok := m.SampleCostMJ(sensor.Kind("warp-core")); ok {
		t.Fatal("unknown sensor kind reported a cost")
	}
}
