package main

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		// Two children that overlap on [30,40): together they cover [10,60).
		{ID: 2, Parent: 1, Name: "gather", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "decode", StartNS: 30, EndNS: 60},
		// A grandchild takes time from its parent only.
		{ID: 4, Parent: 2, Name: "request", StartNS: 15, EndNS: 25},
		// A child that runs past its parent is clipped to it.
		{ID: 5, Parent: 1, Name: "score", StartNS: 90, EndNS: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 50 - 10, // [10,60) and [90,100) are covered
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestLedgerCoverageAndShares(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 0, Name: "op", StartNS: 0, EndNS: 1000},
		{ID: 2, Parent: 1, Op: 0, Name: "gather", StartNS: 0, EndNS: 900},
		{ID: 3, Parent: 1, Op: 0, Name: "decode", StartNS: 900, EndNS: 980},
		{ID: 4, Parent: 0, Op: 1, Name: "op", StartNS: 2000, EndNS: 3000},
		{ID: 5, Parent: 4, Op: 1, Name: "gather", StartNS: 2000, EndNS: 2900},
		{ID: 6, Parent: 4, Op: 1, Name: "decode", StartNS: 2900, EndNS: 2980},
	}
	l := ledgerOf(spans)
	if l.ops != 2 || l.opNS != 2000 {
		t.Fatalf("ledger saw %d ops over %d ns, want 2 over 2000", l.ops, l.opNS)
	}
	if l.coverage != 0.98 {
		t.Errorf("coverage %v, want 0.98", l.coverage)
	}
	if got := l.share("gather"); got != 0.9 {
		t.Errorf("gather share %v, want 0.9", got)
	}
	if got := l.perOpMS("decode"); got != 80e-6 {
		t.Errorf("decode per op %v ms, want 80e-6", got)
	}
	var none *tracer
	if id := none.begin(0, 0, "op"); id != 0 {
		t.Errorf("nil tracer opened span %d", id)
	}
	none.end(0)
}
