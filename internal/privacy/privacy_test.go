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
	if _, ok := p.Filter(sensor.GPS, 1); ok {
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
	for _, c := range [][2]float64{{1.26, 1.5}, {-0.24, 0}} {
		v, ok := p.Filter(sensor.GPS, c[0])
		if !ok {
			t.Fatal("share denied")
		}
		if v != c[1] {
			t.Fatalf("quantized %v to %v, want %v", c[0], v, c[1])
		}
	}
	// Disable quantization.
	p.SetQuantize(sensor.GPS, 0)
	if v, _ := p.Filter(sensor.GPS, 1.26); v != 1.26 {
		t.Fatal("quantization not removed")
	}
}
