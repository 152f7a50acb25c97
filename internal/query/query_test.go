package query

import (
	"testing"
	"testing/quick"
)

func mustCompile(t *testing.T, src string) *Filter {
	t.Helper()
	f, err := Compile(src)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	return f
}

func evalTrue(t *testing.T, src string, env Env) bool {
	t.Helper()
	ok, err := mustCompile(t, src).Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return ok
}

func TestNumericComparisons(t *testing.T) {
	env := Env{"temp": 31.5, "zone": 2}
	cases := map[string]bool{
		"temp > 30":              true,
		"temp >= 31.5":           true,
		"temp < 30":              false,
		"temp <= 31.5":           true,
		"temp == 31.5":           true,
		"temp != 31.5":           false,
		"zone == 2":              true,
		"temp > 30 && zone == 2": true,
		"temp > 40 || zone == 2": true,
		"temp > 40 && zone == 2": false,
		"temp > -50":             true,
	}
	for src, want := range cases {
		if got := evalTrue(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestStringAndBool(t *testing.T) {
	env := Env{"activity": "driving", "indoor": true}
	cases := map[string]bool{
		"activity == 'driving'":           true,
		`activity == "walking"`:           false,
		"activity != 'walking'":           true,
		"indoor":                          true,
		"!indoor":                         false,
		"indoor == true":                  true,
		"indoor != false":                 true,
		"activity == 'driving' && indoor": true,
		"activity < 'walking'":            true, // lexicographic
	}
	for src, want := range cases {
		if got := evalTrue(t, src, env); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestParensAndPrecedence(t *testing.T) {
	env := Env{"a": 1.0, "b": 2.0, "c": 3.0}
	// && binds tighter than ||.
	if !evalTrue(t, "a == 1 || b == 9 && c == 9", env) {
		t.Fatal("precedence wrong")
	}
	if evalTrue(t, "(a == 1 || b == 9) && c == 9", env) {
		t.Fatal("parens ignored")
	}
	if !evalTrue(t, "!(a == 2)", env) {
		t.Fatal("negated paren group")
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand references a missing field; short-circuit must
	// prevent the evaluation error.
	env := Env{"a": 1.0}
	if !evalTrue(t, "a == 1 || missing > 5", env) {
		t.Fatal("|| short-circuit failed")
	}
	if evalTrue(t, "a == 2 && missing > 5", env) {
		t.Fatal("&& short-circuit failed")
	}
}

func TestCompileErrors(t *testing.T) {
	for _, src := range []string{
		"", "a ==", "== 3", "a && ", "(a == 1", "a == 1)",
		"a = 1", "a @ b", "'unterminated", "a == 1 extra",
	} {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []struct {
		src string
		env Env
	}{
		{"missing > 1", Env{}},
		{"a > 'str'", Env{"a": 1.0}},
		{"a && true", Env{"a": 1.0}},
		{"!a", Env{"a": "str"}},
		{"a < b", Env{"a": true, "b": false}},
		{"a == 1", Env{"a": []int{1}}},
		{"a", Env{"a": 3.0}}, // non-boolean result
	}
	for _, c := range cases {
		f, err := Compile(c.src)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		if _, err := f.Eval(c.env); err == nil {
			t.Errorf("Eval(%q) should fail", c.src)
		}
	}
}

func TestIntFieldsPromote(t *testing.T) {
	if !evalTrue(t, "n == 5", Env{"n": 5}) {
		t.Fatal("int field should compare as number")
	}
	if !evalTrue(t, "n == 5", Env{"n": int64(5)}) {
		t.Fatal("int64 field should compare as number")
	}
}

func TestIdentWithPathChars(t *testing.T) {
	env := Env{"node1/temp": 25.0, "ctx.stress": 0.5}
	if !evalTrue(t, "node1/temp == 25", env) {
		t.Fatal("slash identifier failed")
	}
	if !evalTrue(t, "ctx.stress < 0.7", env) {
		t.Fatal("dotted identifier failed")
	}
}

func TestSourceRoundTrip(t *testing.T) {
	f := mustCompile(t, "a > 1")
	if f.Source() != "a > 1" {
		t.Fatalf("Source=%q", f.Source())
	}
}

// Property: numeric comparisons agree with Go's operators for random
// operands.
func TestPropNumericAgreement(t *testing.T) {
	f := func(a, b float64) bool {
		env := Env{"a": a, "b": b}
		for src, want := range map[string]bool{
			"a < b":  a < b,
			"a <= b": a <= b,
			"a > b":  a > b,
			"a >= b": a >= b,
			"a == b": a == b,
			"a != b": a != b,
		} {
			flt, err := Compile(src)
			if err != nil {
				return false
			}
			got, err := flt.Eval(env)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompileEval(b *testing.B) {
	env := Env{"temp": 31.5, "zone": 2.0, "activity": "driving"}
	f, err := Compile("temp > 30 && zone == 2 && activity == 'driving'")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Eval(env); err != nil {
			b.Fatal(err)
		}
	}
}

// Robustness: arbitrary byte strings never panic the compiler; they either
// compile or return an error.
func TestPropCompileNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Compile(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// typedEnv is a concrete Lookuper: evaluation through it must not box.
type typedEnv struct {
	temp float64
	zone float64
	act  string
}

func (e *typedEnv) Lookup(name string) (Val, bool) {
	switch name {
	case "temp":
		return Num(e.temp), true
	case "zone":
		return Num(e.zone), true
	case "activity":
		return Str(e.act), true
	}
	return Val{}, false
}

// EvalWith on a concrete environment agrees with Eval on the equivalent
// map environment.
func TestEvalWithMatchesEnv(t *testing.T) {
	srcs := []string{
		"temp > 30 && zone == 2",
		"activity == 'driving' || temp < 10",
		"!(zone != 2) && temp >= 31.5",
		"missingfield == 1",
	}
	env := Env{"temp": 31.5, "zone": 2.0, "activity": "driving"}
	typed := &typedEnv{temp: 31.5, zone: 2.0, act: "driving"}
	for _, src := range srcs {
		f := mustCompile(t, src)
		got, gotErr := f.EvalWith(typed)
		want, wantErr := f.Eval(env)
		if (gotErr != nil) != (wantErr != nil) || got != want {
			t.Errorf("%q: EvalWith=(%v,%v) Eval=(%v,%v)", src, got, gotErr, want, wantErr)
		}
	}
}

// The typed evaluation path performs zero allocations — the contract
// serve's per-cell filtering depends on (serve's
// TestQueryPathsAllocations guards the call site; this pins the callee).
func TestEvalWithZeroAllocs(t *testing.T) {
	f := mustCompile(t, "temp > 30 && zone == 2 && activity == 'driving'")
	env := &typedEnv{temp: 31.5, zone: 2.0, act: "driving"}
	allocs := testing.AllocsPerRun(200, func() {
		ok, err := f.EvalWith(env)
		if err != nil || !ok {
			t.Fatalf("EvalWith: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalWith allocates %.1f per run, want 0", allocs)
	}
}
