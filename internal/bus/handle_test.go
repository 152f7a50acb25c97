package bus

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/testutil"
)

// A handler runs on the publisher's goroutine after the hooks, so a
// reply it publishes is counted after the request that asked for it, and
// Publish returns once the handler has.
func TestHandlerRunsAfterHooksOnThePublisher(t *testing.T) {
	testutil.Watchdog(t, 30*time.Second)
	b := New()
	defer b.Close()
	var mu sync.Mutex
	var seen []string
	b.AddHook(func(topic string, _ int) {
		mu.Lock()
		seen = append(seen, topic)
		mu.Unlock()
	})
	answered := false
	if _, err := b.Handle("req/+", func(msg Message) {
		if err := b.Publish("reply/"+msg.Topic[len("req/"):], msg.Payload); err != nil {
			t.Error(err)
		}
		answered = true // no lock: the handler runs on the publisher's goroutine
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("req/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !answered {
		t.Fatal("Publish returned before its handler ran")
	}
	if want := []string{"req/a", "reply/a"}; !slices.Equal(seen, want) {
		t.Fatalf("hooks saw %v, want %v", seen, want)
	}
	if _, err := b.Handle("req/#/x", func(Message) {}); err == nil {
		t.Fatal("Handle took an invalid pattern")
	}
}

// Unsubscribe returns only after the handler calls under way have
// returned, also after Close, which takes the handler out at once but
// does not wait for it. No call starts after either.
func TestHandleUnsubscribeWaitsForCallsUnderWay(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, closeFirst := range []bool{false, true} {
		b := New()
		entered, release := make(chan struct{}), make(chan struct{})
		calls := 0
		sub, err := b.Handle("h", func(Message) {
			calls++
			close(entered)
			<-release
		})
		if err != nil {
			t.Fatal(err)
		}
		published := make(chan error, 1)
		go func() { published <- b.Publish("h", nil) }()
		<-entered
		if closeFirst {
			b.Close()
		}
		unsubscribed := make(chan struct{})
		go func() {
			sub.Unsubscribe()
			close(unsubscribed)
		}()
		select {
		case <-unsubscribed:
			t.Fatalf("closeFirst=%v: Unsubscribe returned while its handler was running", closeFirst)
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-unsubscribed
		if err := <-published; err != nil {
			t.Fatalf("closeFirst=%v: the publish under way failed: %v", closeFirst, err)
		}
		if err := b.Publish("h", nil); err != nil && !errors.Is(err, ErrClosed) {
			t.Fatal(err)
		}
		if calls != 1 || b.SubscriberCount("h") != 0 {
			t.Fatalf("closeFirst=%v: %d handler calls, %d subscriptions left; want 1 and 0", closeFirst, calls, b.SubscriberCount("h"))
		}
		b.Close()
	}
}

// A reply that came in while the attempt was still publishing counts as
// answered, however long the publishing took. The handler answers inside
// Publish and then holds the publisher past the attempt timeout, so the
// deadline has passed by the time the publish loop ends; an attempt that
// let its timer decide would time out a call its inbox already settled.
func TestScatterTakesRepliesQueuedBeforeTheTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	sub, err := b.Handle("late/x", func(msg Message) {
		serveRequest(b, msg, echo)
		time.Sleep(2 * time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Unsubscribe()
	for i := 0; i < 32; i++ {
		var out int
		calls := []Call{NewCall("late/x", "", []byte(strconv.Itoa(i)), &out)}
		Scatter(context.Background(), b, "late", calls, RetryPolicy{Attempts: 1, AttemptTimeout: time.Millisecond})
		if calls[0].Err != nil || out != i {
			t.Fatalf("call %d: err %v, reply %d", i, calls[0].Err, out)
		}
	}
}

// Every scatter subscribes one reply inbox, so a Subscription's size is
// paid on every scatter: it stays in the 80-byte size class, with what only
// a handler needs behind one pointer.
func TestSubscriptionFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Subscription{}); size > 80 {
		t.Fatalf("a Subscription is %d bytes, want at most 80", size)
	}
}
