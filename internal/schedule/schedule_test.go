package schedule

import "testing"

func TestNewAdaptiveSamplerValidation(t *testing.T) {
	if _, err := NewAdaptiveSampler(0, 10, 1); err == nil {
		t.Fatal("want min error")
	}
	if _, err := NewAdaptiveSampler(10, 5, 1); err == nil {
		t.Fatal("want max<min error")
	}
	if _, err := NewAdaptiveSampler(1, 10, 0); err == nil {
		t.Fatal("want threshold error")
	}
}

func TestAdaptiveSamplerBacksOffWhenQuiet(t *testing.T) {
	s, err := NewAdaptiveSampler(1, 60, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.interval != 1 {
		t.Fatal("should start at the fastest rate")
	}
	prev := s.interval
	for i := 0; i < 200; i++ {
		next := s.Observe(0.01) // quiet
		if next < prev {
			t.Fatal("interval decreased on quiet input")
		}
		prev = next
	}
	if s.interval != 60 {
		t.Fatalf("interval %v, want saturation at 60", s.interval)
	}
}

func TestAdaptiveSamplerReactsFastToActivity(t *testing.T) {
	s, _ := NewAdaptiveSampler(1, 60, 0.5)
	for i := 0; i < 200; i++ {
		s.Observe(0.01)
	}
	// One active window must cut the interval multiplicatively.
	after := s.Observe(5.0)
	if after > 60*0.25+1e-9 {
		t.Fatalf("interval %v after activity, want <= 15", after)
	}
	// A couple more active windows pin it at the minimum.
	s.Observe(5.0)
	s.Observe(5.0)
	if s.interval != 1 {
		t.Fatalf("interval %v, want clamp at min", s.interval)
	}
}

func TestAdaptiveSamplerAIMDAsymmetry(t *testing.T) {
	s, _ := NewAdaptiveSampler(1, 60, 0.5)
	// Count rounds to slow from min to max vs to speed from max to min.
	up := 0
	for s.interval < 60 {
		s.Observe(0)
		up++
		if up > 10000 {
			t.Fatal("never saturated")
		}
	}
	down := 0
	for s.interval > 1 {
		s.Observe(10)
		down++
	}
	if down >= up {
		t.Fatalf("reaction (%d rounds) should be faster than backoff (%d rounds)", down, up)
	}
}

func TestAdaptiveSamplerReset(t *testing.T) {
	s, _ := NewAdaptiveSampler(2, 30, 0.5)
	for i := 0; i < 50; i++ {
		s.Observe(0)
	}
	s.Reset()
	if s.interval != 2 {
		t.Fatal("reset failed")
	}
}
