package store

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendQuery(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		if err := s.AppendScalar("n1/temp", float64(i), 20+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.Query("n1/temp", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].T != 3 || recs[3].T != 6 {
		t.Fatalf("range query got %v", recs)
	}
	if _, err := s.Query("missing", 0, 1); err == nil {
		t.Fatal("want no-series error")
	}
	if err := s.Append("", Record{}); err == nil {
		t.Fatal("want empty-name error")
	}
}

func TestOutOfOrderAppendKeepsSorted(t *testing.T) {
	s := New(0)
	s.AppendScalar("x", 5, 50)
	s.AppendScalar("x", 1, 10)
	s.AppendScalar("x", 3, 30)
	recs, _ := s.Query("x", 0, 10)
	for i := 1; i < len(recs); i++ {
		if recs[i].T < recs[i-1].T {
			t.Fatalf("unsorted: %v", recs)
		}
	}
	if recs[0].Values[0] != 10 || recs[2].Values[0] != 50 {
		t.Fatalf("values misplaced: %v", recs)
	}
}

func TestRetention(t *testing.T) {
	s := New(5)
	for i := 0; i < 12; i++ {
		s.AppendScalar("x", float64(i), float64(i))
	}
	if s.Len("x") != 5 {
		t.Fatalf("retained %d, want 5", s.Len("x"))
	}
	recs, _ := s.Query("x", 0, 100)
	if recs[0].T != 7 {
		t.Fatalf("oldest retained %v, want 7", recs[0].T)
	}
}

func TestSeriesAndDelete(t *testing.T) {
	s := New(0)
	s.AppendScalar("b", 0, 1)
	s.AppendScalar("a", 0, 1)
	if got := s.Series(); len(got) != 2 || got[0] != "a" {
		t.Fatalf("Series=%v", got)
	}
}

func TestAggregate(t *testing.T) {
	s := New(0)
	for i, v := range []float64{10, 20, 30, 40} {
		s.AppendScalar("x", float64(i), v)
	}
	st, err := s.Aggregate("x", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 2 || st.Min != 20 || st.Max != 30 || st.Mean != 25 {
		t.Fatalf("stats %+v", st)
	}
	empty, _ := s.Aggregate("x", 100, 200)
	if empty.Count != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}

// Property: Query(from,to) returns exactly the records with from<=T<=to,
// in sorted order, regardless of append order.
func TestPropQueryWindow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		n := 1 + rng.Intn(40)
		times := make([]float64, n)
		for i := range times {
			times[i] = float64(rng.Intn(20))
			s.AppendScalar("x", times[i], times[i])
		}
		from := float64(rng.Intn(20))
		to := from + float64(rng.Intn(10))
		recs, err := s.Query("x", from, to)
		if err != nil {
			return false
		}
		want := 0
		for _, tm := range times {
			if tm >= from && tm <= to {
				want++
			}
		}
		if len(recs) != want {
			return false
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].T < recs[i-1].T {
				return false
			}
		}
		for _, r := range recs {
			if r.T < from || r.T > to {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	s := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AppendScalar("x", float64(i), 1.0)
	}
}

// A full series evicts in place: appends do not allocate once its
// capacity has settled, and however the evicted records pile up in front
// of the retained ones, every read sees exactly the newest maxPerKey.
func TestFullSeriesAppendsInPlace(t *testing.T) {
	const keep = 64
	s := New(keep)
	vals := []float64{1}
	next := 0.0
	appendOne := func() {
		if err := s.Append("x", Record{T: next, Values: vals}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 3*keep; i++ {
		appendOne()
	}
	if allocs := testing.AllocsPerRun(10*keep, appendOne); allocs != 0 {
		t.Fatalf("append to a full series allocates %.2f per call, want 0", allocs)
	}
	check := func(oldest float64) {
		t.Helper()
		if got := s.Len("x"); got != keep {
			t.Fatalf("Len = %d, want %d", got, keep)
		}
		recs, err := s.Query("x", 0, next)
		if err != nil || len(recs) != keep || recs[0].T != oldest {
			t.Fatalf("Query returned %d records from T=%v (err %v), want %d from T=%v", len(recs), recs[0].T, err, keep, oldest)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].T < recs[i-1].T {
				t.Fatalf("series out of order at %d: %v after %v", i, recs[i].T, recs[i-1].T)
			}
		}
	}
	// Checked at every fill level of the slack in front of the series.
	for i := 0; i < keep; i++ {
		check(next - keep)
		appendOne()
	}
	// A late record older than everything retained is evicted at once; one
	// inside the series pushes the oldest out.
	oldest := next - keep
	if err := s.AppendScalar("x", oldest-10, 7); err != nil {
		t.Fatal(err)
	}
	check(oldest)
	if err := s.AppendScalar("x", oldest+0.5, 7); err != nil {
		t.Fatal(err)
	}
	check(oldest + 0.5)
}
