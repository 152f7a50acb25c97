package snapshot

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/sensor"
	"repro/internal/store"
	"repro/internal/testutil"
)

func mkSnap(step int) *Snapshot {
	f := field.New(4, 4)
	f.Data[0] = float64(step)
	return &Snapshot{Step: step, T: float64(step), Kind: sensor.Temperature, Field: f}
}

func TestPublishAssignsMonotonicVersions(t *testing.T) {
	r := NewRegistry(8)
	if r.Latest() != nil {
		t.Fatal("Latest before first publish should be nil")
	}
	for i := 1; i <= 5; i++ {
		v, err := r.Publish(mkSnap(i))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(i) {
			t.Fatalf("publish %d assigned version %d", i, v)
		}
	}
	got := r.Latest()
	if got == nil || got.Version != 5 || got.Step != 5 {
		t.Fatalf("Latest = %+v, want version 5 / step 5", got)
	}
}

func TestPublishRejectsNil(t *testing.T) {
	r := NewRegistry(2)
	if _, err := r.Publish(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := r.Publish(&Snapshot{}); err == nil {
		t.Fatal("nil field accepted")
	}
}

// Retention must evict strictly oldest-first and keep exactly the retain
// most recent versions, with Latest always the newest.
func TestRetentionEvictionOrdering(t *testing.T) {
	r := NewRegistry(4)
	for i := 1; i <= 10; i++ {
		if _, err := r.Publish(mkSnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	hist := r.History()
	if len(hist) != 4 {
		t.Fatalf("retained %d snapshots, want 4", len(hist))
	}
	for i, s := range hist {
		want := uint64(7 + i)
		if s.Version != want {
			t.Fatalf("history[%d].Version = %d, want %d (oldest-first, oldest evicted first)", i, s.Version, want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if got := r.Latest().Version; got != 10 {
		t.Fatalf("Latest.Version = %d, want 10", got)
	}
}

func TestSubscribersRunOnEveryPublish(t *testing.T) {
	r := NewRegistry(2)
	var got []uint64
	r.Subscribe(func(s *Snapshot) { got = append(got, s.Version) })
	for i := 1; i <= 3; i++ {
		if _, err := r.Publish(mkSnap(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("subscriber saw versions %v, want [1 2 3]", got)
	}
}

func TestBindStoreMirrorsHistory(t *testing.T) {
	r := NewRegistry(2)
	st := store.New(16)
	if err := r.BindStore(st, "recon.history"); err != nil {
		t.Fatal(err)
	}
	if err := r.BindStore(nil, "x"); err == nil {
		t.Fatal("nil store accepted")
	}
	s := mkSnap(1)
	s.NMSE = 0.25
	s.Measurements = 33
	if _, err := r.Publish(s); err != nil {
		t.Fatal(err)
	}
	rec, err := st.Latest("recon.history")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Values[0] != 1 || rec.Values[1] != 0.25 || rec.Values[2] != 33 {
		t.Fatalf("mirrored record = %+v", rec)
	}
}

func TestWaitContextReturnsOnPublishAndCancel(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	r := NewRegistry(2)
	if _, err := r.Publish(mkSnap(1)); err != nil {
		t.Fatal(err)
	}
	// Already satisfied: returns without blocking.
	s, err := r.WaitContext(context.Background(), 1)
	if err != nil || s.Version != 1 {
		t.Fatalf("WaitContext(1) = %v, %v", s, err)
	}
	done := make(chan *Snapshot, 1)
	go func() {
		got, werr := r.WaitContext(context.Background(), 3)
		if werr != nil {
			t.Error(werr)
		}
		done <- got
	}()
	time.Sleep(5 * time.Millisecond)
	if _, err := r.Publish(mkSnap(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(mkSnap(3)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got.Version < 3 {
			t.Fatalf("Wait(3) returned version %d", got.Version)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait(3) never woke after version 3 published")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.WaitContext(ctx, 99); err == nil {
		t.Fatal("WaitContext survived context expiry")
	}
}

// Lock-free read path under concurrent publishes: readers must always see
// either nil or a fully-formed snapshot whose field matches its step, and
// versions observed by a single reader must be non-decreasing.
func TestLatestIsConsistentUnderConcurrentPublish(t *testing.T) {
	defer testutil.CheckGoroutines(t)
	r := NewRegistry(4)
	const writers, readers, perWriter = 2, 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perWriter; i++ {
				if _, err := r.Publish(mkSnap(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 5000; i++ {
				s := r.Latest()
				if s == nil {
					continue
				}
				if s.Version < last {
					t.Errorf("version went backwards: %d after %d", s.Version, last)
					return
				}
				last = s.Version
				if s.Field.Data[0] != float64(s.Step) {
					t.Errorf("torn snapshot: step %d field %v", s.Step, s.Field.Data[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Latest().Version; got != writers*perWriter {
		t.Fatalf("final version %d, want %d", got, writers*perWriter)
	}
}
