package privacy

import (
	"sync"
	"testing"

	"repro/internal/sensor"
)

// allows reports whether p shares values of kind.
func allows(p *Policy, kind sensor.Kind) bool {
	_, ok := p.Filter(kind, 1)
	return ok
}

func TestDenyByDefault(t *testing.T) {
	var p Policy
	for k := sensor.Kind(0); k < sensor.NumKinds; k++ {
		if v, ok := p.Filter(k, 1); ok || v != 0 {
			t.Fatalf("zero policy shared %s as %v", k, v)
		}
	}
}

func TestAllowAndOptOut(t *testing.T) {
	p := AllowAll(sensor.Temperature, sensor.Accelerometer)
	if !allows(p, sensor.Temperature) || allows(p, sensor.GPS) {
		t.Fatal("AllowAll scope wrong")
	}
	p.SetOptOut(true)
	if allows(p, sensor.Temperature) {
		t.Fatal("opt-out must override per-sensor allows")
	}
	if !p.optOut {
		t.Fatal("opt-out not recorded")
	}
	p.SetOptOut(false)
	if !allows(p, sensor.Temperature) {
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

// TestZeroPolicySettable: a zero Policy takes every setter, as its doc
// promises, and then shares what they allow.
func TestZeroPolicySettable(t *testing.T) {
	var p Policy
	p.SetShare(sensor.Light, true)
	p.SetQuantize(sensor.Light, 10)
	if v, ok := p.Filter(sensor.Light, 26); !ok || v != 30 {
		t.Fatalf("Filter(light, 26) = %v, %v; want 30, true", v, ok)
	}
	if allows(&p, sensor.GPS) {
		t.Fatal("a kind never shared leaked")
	}
	p.SetShare(sensor.Light, false)
	if allows(&p, sensor.Light) {
		t.Fatal("SetShare(false) did not revoke")
	}
}

// TestPolicyConcurrentSafety runs the setters against Filter; under
// -race it checks that one lock guards both arrays and the opt-out.
func TestPolicyConcurrentSafety(t *testing.T) {
	p := AllowAll(sensor.Temperature)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				p.SetQuantize(sensor.Temperature, float64(j%3))
				p.SetShare(sensor.GPS, j%2 == 0)
				p.SetOptOut(j%50 == 49)
			}
			p.SetOptOut(false)
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				p.Filter(sensor.Temperature, 1.3)
				p.Filter(sensor.GPS, 1.3)
			}
		}()
	}
	wg.Wait()
	if !allows(p, sensor.Temperature) {
		t.Fatal("temperature sharing lost under concurrent setters")
	}
}
