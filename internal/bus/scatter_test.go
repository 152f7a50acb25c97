package bus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// Tests for Scatter's waves. A wave is as wide as the buffers its
// requests reach, so each test sets its widths with the depth of its
// responder's subscription. The exported entry point narrows a wave to
// one behind an Interceptor, so the tests that need both a wide wave and
// a fault plan the waves on the plain bus, then install the interceptor
// and call scatter.

// echo answers a request with its own body, an int.
func echo(_ string, body []byte) (any, error) {
	var v int
	if err := decode(body, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// startEchoes serves every topic "grp/<x>" from one subscription depth
// messages deep, echoing the body back, until the test ends or the bus
// closes. Calls that all go to "grp/..." come in waves of depth. The
// scatters it serves settle their replies on its goroutine, so it arms
// the test's watchdog: a lost wakeup fails in seconds.
func startEchoes(t *testing.T, b *Bus, depth int) {
	t.Helper()
	testutil.Watchdog(t, 30*time.Second)
	sub, err := b.Subscribe("grp/+", depth)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range sub.C {
			serveRequest(b, msg, echo)
		}
	}()
	t.Cleanup(func() {
		sub.Unsubscribe()
		<-done
	})
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
		calls[i] = NewCall("grp/"+strconv.Itoa(i), "p"+strconv.Itoa(i), []byte(strconv.Itoa(i)), &outs[i])
	}
	return calls, outs
}

// cuts counts the waves planWaves marked.
func cuts(calls []Call) int {
	n := 0
	for i := range calls {
		if calls[i].cut {
			n++
		}
	}
	return n
}

// scatterWaves is how many waves the process's scatters have run; obs
// must be enabled for it to move.
func scatterWaves() int64 { return obs.GetCounter("bus.scatter.waves").Value() }

// A scatter many waves long gets every reply into its own slot and leaves
// nothing in the index, whatever the depth that cuts its waves.
func TestScatterSlotsEveryReply(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, depth := range []int{1, 3, 16, 64} {
		t.Run("depth="+strconv.Itoa(depth), func(t *testing.T) {
			b := New()
			defer b.Close()
			startEchoes(t, b, depth)
			keys0, subs0, wild0 := indexSize(t, b)
			calls, outs := echoCalls(50)
			for i := range outs {
				outs[i] = -1
			}
			Scatter(context.Background(), b, "grp", calls, RetryPolicy{})
			if got, want := cuts(calls), (len(calls)+depth-1)/depth; got != want {
				t.Errorf("%d calls behind a %d-deep subscription went out in %d waves, want %d", len(calls), depth, got, want)
			}
			for i := range calls {
				if calls[i].Err != nil || calls[i].Attempts != 1 || outs[i] != i {
					t.Fatalf("call %d: err %v after %d attempt(s), reply %d", i, calls[i].Err, calls[i].Attempts, outs[i])
				}
			}
			if keys, subs, wild := indexSize(t, b); keys != keys0 || subs != subs0 || wild != wild0 {
				t.Fatalf("index after the scatter: %d keys, %d exact, %d wildcard; before %d, %d, %d", keys, subs, wild, keys0, subs0, wild0)
			}
		})
	}
}

// Sixty-four calls to sixty-four subscriptions, each sixteen deep, are
// one wave. Every responder holds its request until all sixty-four have
// arrived, so a scatter that sent fewer at once would wait out its
// attempt deadline.
func TestScatterOneWaveAcrossSubscriptions(t *testing.T) {
	testutil.CheckGoroutines(t)
	obs.Enable()
	defer obs.Disable()
	b := New()
	const n = 64
	var arrived atomic.Int32
	all, stop := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		b.Close()
		close(stop)
		wg.Wait()
	}()
	for i := 0; i < n; i++ {
		sub, err := b.Subscribe("fan/"+strconv.Itoa(i), 16)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg, ok := <-sub.C
			if !ok {
				return
			}
			if arrived.Add(1) == n {
				close(all)
			}
			select {
			case <-all:
				serveRequest(b, msg, echo)
			case <-stop:
			}
		}()
	}
	calls, outs := make([]Call, n), make([]int, n)
	for i := range calls {
		calls[i] = NewCall("fan/"+strconv.Itoa(i), "", []byte(strconv.Itoa(i)), &outs[i])
	}
	waves0 := scatterWaves()
	Scatter(context.Background(), b, "fan", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 5 * time.Second})
	for i := range calls {
		if calls[i].Err != nil || calls[i].Attempts != 1 || outs[i] != i {
			t.Fatalf("call %d: err %v after %d attempt(s), reply %d", i, calls[i].Err, calls[i].Attempts, outs[i])
		}
	}
	if got := scatterWaves() - waves0; got != 1 {
		t.Fatalf("bus.scatter.waves rose by %d, want 1", got)
	}
}

// A wave's envelopes share one buffer and its calls may share one body.
// A subscriber that appends to the envelope it was delivered must not
// write into the next one in the buffer, and the body must come back as
// it went in.
func TestScatterEnvelopeAppendStaysInItsOwn(t *testing.T) {
	testutil.CheckGoroutines(t)
	testutil.Watchdog(t, 30*time.Second)
	b := New()
	defer b.Close()
	sub, err := b.Subscribe("grp/+", 2) // both requests fit: one wave
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"kind":"temperature"}`)
	calls := []Call{NewCall("grp/0", "p0", body, nil), NewCall("grp/1", "p1", body, nil)}
	bad := make(chan string, 1)
	go func() {
		first, second := <-sub.C, <-sub.C
		want := string(second.Payload)
		grown := append(first.Payload, `,"tail":"over the neighbour"}`...)
		if got := string(second.Payload); got != want || !bytes.HasPrefix(grown, first.Payload) {
			bad <- fmt.Sprintf("appending to %q rewrote the next envelope %q into %q", first.Payload, want, got)
		}
		close(bad)
		for _, msg := range []Message{first, second} {
			serveRequest(b, msg, func(string, []byte) (any, error) { return 0, nil })
		}
	}()
	Scatter(context.Background(), b, "grp", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 5 * time.Second})
	for msg := range bad {
		t.Error(msg)
	}
	for i := range calls {
		if calls[i].Err != nil {
			t.Errorf("call %d: %v", i, calls[i].Err)
		}
	}
	if string(body) != `{"kind":"temperature"}` {
		t.Errorf("the shared body came back as %q", body)
	}
}

// Forty calls to one topic behind one subscription go out in waves as
// deep as its buffer. The responder reads nothing until the buffer holds
// all of a wave, so a wider wave would lose requests to overflow.
func TestScatterWavesFitOneBuffer(t *testing.T) {
	testutil.CheckGoroutines(t)
	obs.Enable()
	defer obs.Disable()
	for _, depth := range []int{16, 3} {
		b := New()
		sub, err := b.Subscribe("one/x", depth)
		if err != nil {
			t.Fatal(err)
		}
		const n = 40
		done := make(chan struct{})
		go func() {
			defer close(done)
			deadline := time.Now().Add(10 * time.Second)
			for served := 0; served < n; {
				want := min(depth, n-served)
				for len(sub.C) < want {
					if time.Now().After(deadline) {
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				for ; want > 0; want-- {
					serveRequest(b, <-sub.C, echo)
					served++
				}
			}
		}()
		calls, outs := make([]Call, n), make([]int, n)
		for i := range calls {
			calls[i] = NewCall("one/x", "", []byte(strconv.Itoa(i)), &outs[i])
		}
		waves0 := scatterWaves()
		Scatter(context.Background(), b, "one", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 5 * time.Second})
		waves := scatterWaves() - waves0
		b.Close()
		<-done
		if sub.Dropped() != 0 {
			t.Errorf("depth %d: the subscription dropped %d requests", depth, sub.Dropped())
		}
		if want := int64((n + depth - 1) / depth); waves != want {
			t.Errorf("depth %d: bus.scatter.waves rose by %d, want %d", depth, waves, want)
		}
		for i := range calls {
			if calls[i].Err != nil || outs[i] != i {
				t.Errorf("depth %d, call %d: err %v, reply %d", depth, i, calls[i].Err, outs[i])
			}
		}
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
	const n, width = 20, 16
	startEchoes(t, b, width)
	calls, outs := echoCalls(n)
	b.planWaves(calls)
	ft := &faultyTransport{seen: map[string]int{}}
	b.SetInterceptor(ft.intercept)
	pol := RetryPolicy{Attempts: 3, AttemptTimeout: 40 * time.Millisecond, BaseBackoff: time.Millisecond, Seed: 3}
	scatter(context.Background(), b, "grp", calls, pol.withDefaults())

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
			for i := lo; i < min(lo+width, n); i++ {
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
		startEchoes(t, b, 16)
		calls, _ := echoCalls(8)
		b.planWaves(calls)
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
		start := time.Now()
		scatter(context.Background(), b, "grp", calls, RetryPolicy{Attempts: 4, BaseBackoff: base, Seed: seed}.withDefaults())
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

// The reply inbox settles a reply on whatever goroutine publishes it. A
// responder goroutine that answers a wave in reverse call order gets each
// reply into its own call's slot. A reply published after its call timed
// out, while the scatter still waits on a later wave, leaves that call's
// out and Err as the timeout left them.
func TestScatterSlotsRepliesFromOtherGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	testutil.Watchdog(t, 30*time.Second)
	b := New()
	defer b.Close()
	const n = 16
	rev, err := b.Subscribe("rev/+", n) // all n fit: one wave
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var held []Message
		for msg := range rev.C {
			if held = append(held, msg); len(held) == n {
				for i := n - 1; i >= 0; i-- {
					serveRequest(b, held[i], echo)
				}
			}
		}
	}()
	calls, outs := make([]Call, n), make([]int, n)
	for i := range calls {
		outs[i] = -1
		calls[i] = NewCall("rev/"+strconv.Itoa(i), "", []byte(strconv.Itoa(i)), &outs[i])
	}
	Scatter(context.Background(), b, "rev", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 10 * time.Second})
	rev.Unsubscribe()
	if got := cuts(calls); got != 1 {
		t.Errorf("%d calls went out in %d waves, want 1", n, got)
	}
	for i := range calls {
		if calls[i].Err != nil || outs[i] != i {
			t.Errorf("call %d: err %v, reply %d", i, calls[i].Err, outs[i])
		}
	}

	// One call per wave: the first is never answered in time; the
	// responder answers it late, once the second wave's request is in.
	late, err := b.Subscribe("late/+", 1)
	if err != nil {
		t.Fatal(err)
	}
	inboxLive := make(chan int, 1)
	go func() {
		first, ok := <-late.C
		if !ok {
			return
		}
		second, ok := <-late.C
		if !ok {
			return
		}
		replyTo, _, err := DecodeEnvelope(first.Payload)
		if err != nil {
			t.Error(err)
		}
		inboxLive <- b.SubscriberCount(replyTo)
		for _, reply := range []string{"99", "not json"} {
			if err := b.Publish(replyTo, []byte(reply)); err != nil {
				t.Error(err)
			}
		}
		serveRequest(b, second, echo)
	}()
	calls, outs = make([]Call, 2), []int{-1, -1}
	for i := range calls {
		calls[i] = NewCall("late/"+strconv.Itoa(i), "", []byte(strconv.Itoa(i)), &outs[i])
	}
	Scatter(context.Background(), b, "late", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 250 * time.Millisecond})
	late.Unsubscribe()
	if live := <-inboxLive; live != 1 {
		t.Fatalf("the late replies went to %d subscriptions, want the scatter's inbox", live)
	}
	want := `bus: request on "late/0" timed out: context deadline exceeded`
	if c := calls[0]; c.Err == nil || c.Err.Error() != want || outs[0] != -1 {
		t.Errorf("timed-out call after its late replies: err %v, reply %d; want %q and -1", c.Err, outs[0], want)
	}
	if c := calls[1]; c.Err != nil || outs[1] != 1 {
		t.Errorf("second call: err %v, reply %d", c.Err, outs[1])
	}
}

// Cancelling mid-wave ends the answered calls with their replies and
// every other call, sent or not, with the context's error; nothing stays
// subscribed and no goroutine is left.
func TestScatterCancelMidWave(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	startEchoes(t, b, 3)
	keys0, subs0, wild0 := indexSize(t, b)
	// Calls 0..5 are one wave: the even ones are answered, the odd ones
	// go to topics nobody serves. Calls 6..15 are never sent.
	calls, outs := echoCalls(16)
	for i := 1; i < len(calls); i += 2 {
		calls[i] = NewCall("void/"+strconv.Itoa(i), "", []byte(strconv.Itoa(i)), &outs[i])
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
			if n++; n == 3 {
				close(answered)
			}
		}
	}()
	go func() {
		<-answered
		cancel()
	}()
	start := time.Now()
	Scatter(ctx, b, "grp", calls, RetryPolicy{Attempts: 3, AttemptTimeout: 10 * time.Second})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled scatter took %v", elapsed)
	}
	tap.Unsubscribe()
	for i := range calls {
		switch c := &calls[i]; {
		case i < 6 && i%2 == 0:
			// Its reply raced the cancellation; either outcome is legal,
			// but a nil error must come with the reply.
			if c.Err == nil && outs[i] != i || c.Err != nil && !errors.Is(c.Err, context.Canceled) {
				t.Errorf("call %d: err %v, reply %d", i, c.Err, outs[i])
			}
		case !errors.Is(c.Err, context.Canceled):
			t.Errorf("call %d: %v, want context.Canceled", i, c.Err)
		case i >= 6 && c.Attempts != 0:
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
	sink, err := b.Subscribe("void/#", 3)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 3; i++ {
			<-sink.C
		}
		b.Close()
	}()
	calls := make([]Call, 16)
	for i := range calls {
		calls[i] = NewCall("void/"+strconv.Itoa(i), "", []byte(strconv.Itoa(i)), nil)
	}
	Scatter(context.Background(), b, "void", calls, RetryPolicy{AttemptTimeout: 10 * time.Second})
	for i := range calls {
		if !errors.Is(calls[i].Err, ErrClosed) {
			t.Errorf("call %d: %v, want ErrClosed", i, calls[i].Err)
		}
	}
}

// A scatter's number is its bus's: the first request envelope of a new
// bus is the same bytes however many scatters other buses ran before it,
// so a reading's transport cost does not depend on what ran earlier in
// the process.
func TestScatterNumbersArePerBus(t *testing.T) {
	testutil.CheckGoroutines(t)
	testutil.Watchdog(t, 30*time.Second)
	firstEnvelope := func() []byte {
		b := New()
		defer b.Close()
		sub, err := b.Subscribe("probe/request", 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- RequestContext(ctx, b, "probe/request", 7, nil) }()
		env := (<-sub.C).Payload
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("unanswered probe ended with %v, want context.Canceled", err)
		}
		return env
	}
	want := firstEnvelope()
	other := New()
	defer other.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 12; i++ {
		if err := RequestContext(ctx, other, "probe/request", 7, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled scatter ended with %v", err)
		}
	}
	if got := firstEnvelope(); string(got) != string(want) {
		t.Errorf("first envelope of a new bus is %q after 12 scatters on another bus, %q before", got, want)
	}
}
