package privacy

import (
	"testing"

	"repro/internal/sensor"
)

func TestDenyByDefault(t *testing.T) {
	p := NewPolicy()
	if p.Allows(sensor.GPS) {
		t.Fatal("zero policy must deny")
	}
	if _, ok := p.Filter(sensor.GPS, []float64{1}); ok {
		t.Fatal("filter should deny")
	}
}

func TestAllowAndOptOut(t *testing.T) {
	p := AllowAll(sensor.Temperature, sensor.Accelerometer)
	if !p.Allows(sensor.Temperature) || p.Allows(sensor.GPS) {
		t.Fatal("AllowAll scope wrong")
	}
	p.SetOptOut(true)
	if p.Allows(sensor.Temperature) {
		t.Fatal("opt-out must override per-sensor allows")
	}
	if !p.optOut {
		t.Fatal("opt-out not recorded")
	}
	p.SetOptOut(false)
	if !p.Allows(sensor.Temperature) {
		t.Fatal("opt-out should be reversible")
	}
}

func TestQuantization(t *testing.T) {
	p := AllowAll(sensor.GPS)
	p.SetQuantize(sensor.GPS, 0.5)
	vals, ok := p.Filter(sensor.GPS, []float64{1.26, -0.24})
	if !ok {
		t.Fatal("share denied")
	}
	if vals[0] != 1.5 || vals[1] != 0 {
		t.Fatalf("quantized %v", vals)
	}
	// Input must not be mutated.
	in := []float64{1.26}
	p.Filter(sensor.GPS, in)
	if in[0] != 1.26 {
		t.Fatal("input mutated")
	}
	// Disable quantization.
	p.SetQuantize(sensor.GPS, 0)
	vals, _ = p.Filter(sensor.GPS, []float64{1.26})
	if vals[0] != 1.26 {
		t.Fatal("quantization not removed")
	}
}
