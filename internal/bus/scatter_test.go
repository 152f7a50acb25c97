package bus

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// Tests for Scatter with waves wider than one request. The exported
// entry point narrows a wave to one behind an Interceptor, so the tests
// that need both a wide wave and a fault call scatter with a width.

// startEchoes serves every topic "grp/<x>", echoing the body back, until
// the test ends.
func startEchoes(t *testing.T, b *Bus) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		//lint:ignore errcheck test responder: it returns when the cleanup cancels it or the bus closes
		_ = RespondContext(ctx, b, "grp/+", func(_ string, body []byte) (any, error) {
			var v int
			if err := decode(body, &v); err != nil {
				return nil, err
			}
			return v, nil
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitSubscribed(t, b, "grp/x")
}

// echoRequest reports whether topic is a request to one of startEchoes'
// topics, as opposed to a reply on its way back under "grp/inbox".
func echoRequest(topic string) bool {
	return strings.HasPrefix(topic, "grp/") && !strings.HasPrefix(topic, "grp/inbox/")
}

// echoCalls builds n calls, call i asking "grp/<i>" to echo i into outs[i].
func echoCalls(n int) (calls []Call, outs []int) {
	calls, outs = make([]Call, n), make([]int, n)
	for i := range calls {
		calls[i] = NewCall("grp/"+strconv.Itoa(i), "p"+strconv.Itoa(i), i, &outs[i])
	}
	return calls, outs
}

// A scatter many waves long gets every reply into its own slot and leaves
// nothing in the index, whatever the width.
func TestScatterSlotsEveryReply(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	startEchoes(t, b)
	keys0, subs0, wild0 := indexSize(t, b)
	for _, width := range []int{1, 3, scatterWidth, 100} {
		calls, outs := echoCalls(50)
		for i := range outs {
			outs[i] = -1
		}
		scatter(context.Background(), b, "grp", calls, RetryPolicy{}.withDefaults(), width)
		for i := range calls {
			if calls[i].Err != nil || calls[i].Attempts != 1 || outs[i] != i {
				t.Fatalf("width %d, call %d: err %v after %d attempt(s), reply %d", width, i, calls[i].Err, calls[i].Attempts, outs[i])
			}
		}
	}
	if keys, subs, wild := indexSize(t, b); keys != keys0 || subs != subs0 || wild != wild0 {
		t.Fatalf("index after the scatters: %d keys, %d exact, %d wildcard; before %d, %d, %d", keys, subs, wild, keys0, subs0, wild0)
	}
}

// faultyTransport is an interceptor that treats each request topic by a
// fixed rule, whatever order the requests come in: it swallows or fails
// the first attempts on some topics and everything on others. It records
// the order of the request publishes it saw.
type faultyTransport struct {
	mu      sync.Mutex
	seen    map[string]int // publishes per request topic
	order   []string       // request topics in publish order
	replyTo []string       // every reply topic asked for, in publish order
}

func (f *faultyTransport) intercept(m Message) (bool, error) {
	if !echoRequest(m.Topic) {
		return true, nil // replies pass
	}
	var env envelope
	if err := json.Unmarshal(m.Payload, &env); err != nil {
		return false, err
	}
	f.mu.Lock()
	f.seen[m.Topic]++
	n := f.seen[m.Topic]
	f.order = append(f.order, m.Topic)
	f.replyTo = append(f.replyTo, env.ReplyTo)
	f.mu.Unlock()
	i, _ := strconv.Atoi(strings.TrimPrefix(m.Topic, "grp/"))
	switch i % 5 {
	case 1: // lost on the air once: the attempt times out
		return n > 1, nil
	case 2: // the peer is down for two attempts
		if n <= 2 {
			return false, flakyErr{}
		}
	case 3: // never gets through
		return false, nil
	case 4: // refused for good
		return false, terminalErr{}
	}
	return true, nil
}

// Stragglers of a wave are retried together, each within its own budget:
// a lost request is re-sent once, a down peer recovers on the third
// attempt, a dead link burns all attempts, a terminal failure none.
func TestScatterRetriesStragglersTogether(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	startEchoes(t, b)
	ft := &faultyTransport{seen: map[string]int{}}
	b.SetInterceptor(ft.intercept)
	const n, width = 20, 10
	calls, outs := echoCalls(n)
	pol := RetryPolicy{Attempts: 3, AttemptTimeout: 40 * time.Millisecond, BaseBackoff: time.Millisecond, Seed: 3}
	scatter(context.Background(), b, "grp", calls, pol.withDefaults(), width)

	wantAttempts := []int{1, 2, 3, 3, 1}
	for i := range calls {
		c := &calls[i]
		if c.Attempts != wantAttempts[i%5] {
			t.Errorf("call %d made %d attempt(s), want %d", i, c.Attempts, wantAttempts[i%5])
		}
		switch i % 5 {
		case 3:
			if !errors.Is(c.Err, context.DeadlineExceeded) {
				t.Errorf("call %d on a dead link: %v, want a wrapped attempt deadline", i, c.Err)
			}
		case 4:
			if !errors.As(c.Err, new(terminalErr)) {
				t.Errorf("call %d: %v, want the terminal cause", i, c.Err)
			}
		default:
			if c.Err != nil || outs[i] != i {
				t.Errorf("call %d: err %v, reply %d", i, c.Err, outs[i])
			}
		}
	}
	// Publish order: a wave's first attempts in call order, then its
	// second attempts together, then its third, and only then the next wave.
	var want []string
	for lo := 0; lo < n; lo += width {
		for attempt := 1; attempt <= 3; attempt++ {
			for i := lo; i < lo+width; i++ {
				if wantAttempts[i%5] >= attempt {
					want = append(want, "grp/"+strconv.Itoa(i))
				}
			}
		}
	}
	if got := strings.Join(ft.order, " "); got != strings.Join(want, " ") {
		t.Errorf("requests were published in the order\n%s\nwant\n%s", got, want)
	}
	// Every attempt asked for its reply on a topic of its own, under one
	// inbox, naming the call's peer.
	unique := map[string]bool{}
	for k, topic := range ft.replyTo {
		peer := "p" + strings.TrimPrefix(ft.order[k], "grp/")
		if unique[topic] || !Match(InboxPattern("grp", "+"), topic) || !strings.Contains(topic, "/"+peer+"/") {
			t.Errorf("attempt %d on %s asked for its reply on %q", k, ft.order[k], topic)
		}
		unique[topic] = true
	}
}

// A wave pays one backoff per retry round, on the schedule a lone request
// with the same seed walks: not one per straggler.
func TestScatterWaveSharesOneJitterSchedule(t *testing.T) {
	const seed = 11
	base := 40 * time.Millisecond
	eager := rand.New(rand.NewSource(seed))
	var want time.Duration
	for _, backoff := range []time.Duration{base, 2 * base} {
		want += backoff/2 + time.Duration(eager.Int63n(int64(backoff/2)+1))
	}
	// A timer never fires early, so every scatter sleeps at least the
	// schedule; on a busy machine it may oversleep, so only the quickest of
	// a few has to land near it.
	const slack = 25 * time.Millisecond
	best := time.Hour
	for try := 0; try < 5 && (try < 2 || best >= want+slack); try++ {
		b := New()
		startEchoes(t, b)
		var mu sync.Mutex
		seen := map[string]int{}
		b.SetInterceptor(func(m Message) (bool, error) {
			if !echoRequest(m.Topic) {
				return true, nil
			}
			mu.Lock()
			defer mu.Unlock()
			if seen[m.Topic]++; seen[m.Topic] <= 2 {
				return false, flakyErr{}
			}
			return true, nil
		})
		calls, _ := echoCalls(8)
		start := time.Now()
		scatter(context.Background(), b, "grp", calls, RetryPolicy{Attempts: 4, BaseBackoff: base, Seed: seed}.withDefaults(), 8)
		elapsed := time.Since(start)
		for i := range calls {
			if calls[i].Err != nil || calls[i].Attempts != 3 {
				t.Fatalf("try %d, call %d: err %v after %d attempts, want success on the third", try, i, calls[i].Err, calls[i].Attempts)
			}
		}
		if elapsed < want {
			t.Fatalf("try %d: slept %v, the schedule for seed %d is %v", try, elapsed, seed, want)
		}
		best = min(best, elapsed)
	}
	if best >= want+slack {
		t.Fatalf("quickest scatter took %v, one walk of the schedule for seed %d is %v", best, seed, want)
	}
}

// Cancelling mid-wave ends the answered calls with their replies and
// every other call, sent or not, with the context's error; nothing stays
// subscribed and no goroutine is left.
func TestScatterCancelMidWave(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	startEchoes(t, b)
	keys0, subs0, wild0 := indexSize(t, b)
	// Calls 0..7 are one wave: the even ones are answered, the odd ones
	// go to topics nobody serves. Calls 8..15 are never sent.
	calls, outs := echoCalls(16)
	for i := 1; i < len(calls); i += 2 {
		calls[i] = NewCall("void/"+strconv.Itoa(i), "", i, &outs[i])
	}
	ctx, cancel := context.WithCancel(context.Background())
	answered := make(chan struct{})
	tap, err := b.Subscribe(InboxPattern("grp", "+"), 16)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		n := 0
		for range tap.C {
			if n++; n == 4 {
				close(answered)
			}
		}
	}()
	go func() {
		<-answered
		cancel()
	}()
	start := time.Now()
	scatter(ctx, b, "grp", calls, RetryPolicy{Attempts: 3, AttemptTimeout: 10 * time.Second}.withDefaults(), 8)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled scatter took %v", elapsed)
	}
	tap.Unsubscribe()
	for i := range calls {
		switch c := &calls[i]; {
		case i < 8 && i%2 == 0:
			// Its reply raced the cancellation; either outcome is legal,
			// but a nil error must come with the reply.
			if c.Err == nil && outs[i] != i || c.Err != nil && !errors.Is(c.Err, context.Canceled) {
				t.Errorf("call %d: err %v, reply %d", i, c.Err, outs[i])
			}
		case !errors.Is(c.Err, context.Canceled):
			t.Errorf("call %d: %v, want context.Canceled", i, c.Err)
		case i >= 8 && c.Attempts != 0:
			t.Errorf("call %d of the unsent wave made %d attempt(s)", i, c.Attempts)
		}
	}
	if keys, subs, wild := indexSize(t, b); keys != keys0 || subs != subs0 || wild != wild0 {
		t.Fatalf("index after the cancelled scatter: %d keys, %d exact, %d wildcard; before %d, %d, %d", keys, subs, wild, keys0, subs0, wild0)
	}
}

// Closing the bus mid-wave ends every pending call with ErrClosed.
func TestScatterBusClosedMidWave(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	// Swallow the first wave's requests, then take the bus away.
	sink, err := b.Subscribe("void/#", 16)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 8; i++ {
			<-sink.C
		}
		b.Close()
	}()
	calls := make([]Call, 16)
	for i := range calls {
		calls[i] = NewCall("void/"+strconv.Itoa(i), "", i, nil)
	}
	scatter(context.Background(), b, "void", calls, RetryPolicy{AttemptTimeout: 10 * time.Second}.withDefaults(), 8)
	for i := range calls {
		if !errors.Is(calls[i].Err, ErrClosed) {
			t.Errorf("call %d: %v, want ErrClosed", i, calls[i].Err)
		}
	}
}
