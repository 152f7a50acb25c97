package bus

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/testutil"
)

// Tests for the subscription index behind Publish: that it delivers to
// exactly the subscriptions a plain Match scan would, that nothing is
// left in it once a subscription is gone, and that the publish path and
// the matcher allocate nothing.

// indexSize counts the index's entries and checks its shape: every live
// subscription filed exactly once, on the side its pattern belongs to,
// and no key left behind empty.
func indexSize(t *testing.T, b *Bus) (exactKeys, exactSubs, wild int) {
	t.Helper()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for topic, list := range b.exact {
		if len(list) == 0 {
			t.Errorf("exact index holds an empty key %q", topic)
		}
		for _, s := range list {
			if s.pattern != topic || b.subs[s.id] != s {
				t.Errorf("exact[%q] holds subscription %d with pattern %q (live: %v)", topic, s.id, s.pattern, b.subs[s.id] == s)
			}
		}
		exactSubs += len(list)
	}
	for _, s := range b.wild {
		if ValidTopic(s.pattern) || b.subs[s.id] != s {
			t.Errorf("wildcard slice holds subscription %d with pattern %q (live: %v)", s.id, s.pattern, b.subs[s.id] == s)
		}
	}
	if exactSubs+len(b.wild) != len(b.subs) {
		t.Errorf("index files %d exact + %d wildcard subscriptions, bus holds %d", exactSubs, len(b.wild), len(b.subs))
	}
	return len(b.exact), exactSubs, len(b.wild)
}

// waitSubscribed blocks until a responder started with go has attached.
func waitSubscribed(t *testing.T, b *Bus, topic string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.SubscriberCount(topic) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no subscriber on %q", topic)
		}
		runtime.Gosched()
	}
}

func TestIndexDeliversWhatAMatchScanWould(t *testing.T) {
	patterns := []string{
		"a", "b", "a/b", "a/c", "b/b", "a/b/c", "a/b/d", "a+b/c", // exact (a "+" inside a segment is a literal)
		"+", "a/+", "+/b", "a/+/c", "+/+", "a/+/+", // single-level
		"#", "a/#", "a/b/#", "+/#", "b/+/#", // multi-level
	}
	topics := []string{"a", "b", "c", "a/b", "a/c", "b/b", "c/b", "a/b/c", "a/b/d", "a/x/c", "b/b/c", "a+b/c", "a/b/c/d"}
	rng := rand.New(rand.NewSource(14))
	b := New()
	defer b.Close()
	var live []*Subscription
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 3 && len(live) < 40:
			sub, err := b.Subscribe(patterns[rng.Intn(len(patterns))], 1)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, sub)
		case r < 5 && len(live) > 0:
			i := rng.Intn(len(live))
			live[i].Unsubscribe()
			live[i].Unsubscribe() // idempotent: must not disturb the index
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			topic := topics[rng.Intn(len(topics))]
			if err := b.Publish(topic, []byte{byte(step)}); err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, sub := range live {
				matches := Match(sub.pattern, topic)
				if matches {
					want++
				}
				select {
				case msg := <-sub.C:
					if !matches {
						t.Fatalf("step %d: %q delivered to non-matching pattern %q", step, topic, sub.pattern)
					}
					if msg.Topic != topic || msg.Payload[0] != byte(step) {
						t.Fatalf("step %d: pattern %q received %+v, want this step's publish on %q", step, sub.pattern, msg, topic)
					}
					if len(sub.ch) != 0 {
						t.Fatalf("step %d: pattern %q received %q more than once", step, sub.pattern, topic)
					}
				default:
					if matches {
						t.Fatalf("step %d: %q not delivered to matching pattern %q", step, topic, sub.pattern)
					}
				}
				if d := sub.Dropped(); d != 0 {
					t.Fatalf("step %d: pattern %q counts %d drops from a drained buffer", step, sub.pattern, d)
				}
			}
			if got := b.SubscriberCount(topic); got != want {
				t.Fatalf("step %d: SubscriberCount(%q) = %d, Match scan says %d", step, topic, got, want)
			}
		}
		if step%97 == 0 {
			indexSize(t, b)
		}
	}
	for _, sub := range live {
		sub.Unsubscribe()
	}
	if keys, subs, wild := indexSize(t, b); keys+subs+wild != 0 {
		t.Fatalf("index not empty after the last unsubscribe: %d keys, %d exact, %d wildcard", keys, subs, wild)
	}
}

// A reply topic is unique to its request, so anything a request leaves in
// the index is a leak that grows with traffic. Every way out of
// RequestContext is taken: reply, cancelled before and while waiting,
// deadline, and an interceptor failing the publish.
func TestIndexHoldsNothingAfterRequests(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	startEcho(t, b)
	waitSubscribed(t, b, "svc")
	wildSub, err := b.Subscribe("other/#", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer wildSub.Unsubscribe()
	b.SetInterceptor(func(m Message) (bool, error) {
		if m.Topic == "svc/refused" {
			return false, flakyErr{}
		}
		return true, nil
	})
	keys0, subs0, wild0 := indexSize(t, b)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 10000; i++ {
		var err error
		var want error
		switch i % 10 {
		case 3: // nobody answers; the caller had already given up
			err, want = RequestContext(cancelled, b, "svc/never", i, nil), context.Canceled
		case 5: // nobody answers; the deadline passes while waiting
			ctx, stop := context.WithTimeout(context.Background(), 20*time.Microsecond)
			err, want = RequestContext(ctx, b, "svc/never", i, nil), context.DeadlineExceeded
			stop()
		case 7: // nobody answers; cancelled while waiting
			ctx, stop := context.WithCancel(context.Background())
			go stop()
			err, want = RequestContext(ctx, b, "svc/never", i, nil), context.Canceled
		case 9: // the transport refuses the publish
			err, want = RequestContext(context.Background(), b, "svc/refused", i, nil), flakyErr{}
		default:
			var out int
			err = RequestContext(context.Background(), b, "svc", i, &out)
			if err == nil && out != i {
				t.Fatalf("request %d: reply %d", i, out)
			}
		}
		if !errors.Is(err, want) {
			t.Fatalf("request %d: %v, want %v", i, err, want)
		}
	}
	if keys, subs, wild := indexSize(t, b); keys != keys0 || subs != subs0 || wild != wild0 {
		t.Fatalf("index grew over 10000 requests: %d keys, %d exact, %d wildcard; before %d, %d, %d",
			keys, subs, wild, keys0, subs0, wild0)
	}
}

// rosterBus is one NanoCloud's worth of subscriptions as the benchmark's
// campaign-gather sets them up: three command topics for each of 48
// nodes, all wildcard-free, plus nWild TCP-style per-node patterns. It
// returns a subscription on target, which is one of the 144.
func rosterBus(tb testing.TB, nWild int) (b *Bus, target string, sub *Subscription) {
	tb.Helper()
	b = New()
	tb.Cleanup(b.Close)
	subscribe := func(pattern string) *Subscription {
		s, err := b.Subscribe(pattern, 1)
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	target = NodeMeasureTopic("nc0", "n17")
	for i := 0; i < 48; i++ {
		id := "n" + strconv.Itoa(i)
		for _, topic := range []string{NodeMeasureTopic("nc0", id), NodePositionTopic("nc0", id), NodeStatusTopic("nc0", id)} {
			if s := subscribe(topic); topic == target {
				sub = s
			}
		}
	}
	for i := 0; i < nWild; i++ {
		subscribe(NodeCommandPattern("nc0", "w"+strconv.Itoa(i)))
	}
	return b, target, sub
}

func TestPublishAndMatchAllocateNothing(t *testing.T) {
	b, target, sub := rosterBus(t, 0)
	payload := make([]byte, 128)
	for name, fn := range map[string]func(){
		"Match exact":    func() { matchSink = Match("nc0/node/n17/measure", target) },
		"Match +":        func() { matchSink = Match("nc0/node/+/measure", target) },
		"Match #":        func() { matchSink = Match("nc0/node/n17/#", target) },
		"Match mismatch": func() { matchSink = Match("nc0/node/n18/#", target) },
		"ValidTopic":     func() { matchSink = ValidTopic(target) },
		"ValidPattern":   func() { matchSink = ValidPattern("nc0/node/+/#") },
		"Publish to 1 of 144": func() {
			if err := b.Publish(target, payload); err != nil {
				t.Fatal(err)
			}
			if msg := <-sub.C; msg.Topic != target {
				t.Fatalf("received %q", msg.Topic)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per run, want 0", name, allocs)
		}
	}
}

// matchSink keeps the compiler from discarding the calls measured above.
var matchSink bool

// The jitter generator is built at the first backoff. For a given Seed
// the schedule must be the one an eagerly seeded generator gave: the
// first draw sets the first sleep, the second the second.
func TestRequestRetryLazyJitterKeepsTheSchedule(t *testing.T) {
	const seed = 6
	base := 40 * time.Millisecond
	eager := rand.New(rand.NewSource(seed))
	var want time.Duration
	for _, backoff := range []time.Duration{base, 2 * base} {
		want += backoff/2 + time.Duration(eager.Int63n(int64(backoff/2)+1))
	}
	// A timer never fires early, so every call sleeps at least the
	// schedule. It may oversleep on a busy machine, so only the quickest
	// of a few calls has to land near it; the slack is well under the
	// 60 ms the jitter can move the total by.
	const slack = 25 * time.Millisecond
	best := time.Hour
	for call := 0; call < 5 && (call < 2 || best >= want+slack); call++ {
		b := New()
		startEcho(t, b)
		waitSubscribed(t, b, "svc")
		attempts := failFirstN(b, "svc", 2, flakyErr{})
		start := time.Now()
		err := RequestRetryContext(context.Background(), b, "svc", 7, nil,
			RetryPolicy{Attempts: 4, BaseBackoff: base, Seed: seed})
		elapsed := time.Since(start)
		b.Close()
		if err != nil || attempts.Load() != 3 {
			t.Fatalf("call %d: err %v after %d attempts, want success on the third", call, err, attempts.Load())
		}
		if elapsed < want {
			t.Fatalf("call %d: slept %v, the eager generator's schedule for seed %d is %v", call, elapsed, seed, want)
		}
		best = min(best, elapsed)
	}
	if best >= want+slack {
		t.Fatalf("quickest call took %v, the eager generator's schedule for seed %d is %v", best, seed, want)
	}
}

// A call whose first attempt succeeds never draws, so it must not pay for
// a generator: a seeded math/rand source is 607 words, more than the
// whole of the rest of a round trip allocates.
func TestRequestRetryFirstAttemptSuccessSeedsNothing(t *testing.T) {
	const rngSourceBytes = 607 * 8
	b := New()
	defer b.Close()
	startEcho(t, b)
	waitSubscribed(t, b, "svc")
	request := func() {
		if err := RequestRetryContext(context.Background(), b, "svc", 7, nil, RetryPolicy{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	request() // warm up lazily built encoder state
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		request()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= rngSourceBytes {
		t.Fatalf("a first-attempt success allocates %d B, no less than one math/rand source (%d B)", perCall, rngSourceBytes)
	}
}
