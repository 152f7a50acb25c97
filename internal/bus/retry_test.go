package bus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyErr is a transient transport failure for retry-classification
// tests (mirrors netsim's NodeDownError shape without importing it).
type flakyErr struct{}

func (flakyErr) Error() string   { return "flaky transport" }
func (flakyErr) Retryable() bool { return true }

type terminalErr struct{}

func (terminalErr) Error() string   { return "terminal transport" }
func (terminalErr) Retryable() bool { return false }

// startEcho serves request topic "svc", echoing the body back.
func startEcho(t *testing.T, b *Bus) {
	t.Helper()
	go func() {
		//lint:ignore errcheck test responder: RespondContext returns nil when the bus closes in cleanup
		_ = RespondContext(context.Background(), b, "svc", func(_ string, body []byte) (any, error) {
			var v int
			if err := decode(body, &v); err != nil {
				return nil, err
			}
			return v, nil
		})
	}()
}

func decode(body []byte, out *int) error {
	_, err := fmt.Sscan(strings.TrimSpace(string(body)), out)
	return err
}

// failFirstN installs an interceptor that fails the first n publishes on
// the exact request topic with err, passing everything else (including
// replies) through. Returns the attempt counter.
func failFirstN(b *Bus, topic string, n int, err error) *atomic.Int64 {
	var seen atomic.Int64
	b.SetInterceptor(func(m Message) (bool, error) {
		if m.Topic != topic {
			return true, nil
		}
		if seen.Add(1) <= int64(n) {
			return false, err
		}
		return true, nil
	})
	return &seen
}

// requestRetry is one request under pol: a Scatter of one call, with the
// reply inbox under the topic's first segment as RequestContext roots it.
func requestRetry(ctx context.Context, b *Bus, topic string, body, out any, pol RetryPolicy) *Call {
	calls := []Call{NewCall(topic, "", body, out)}
	root, _, _ := strings.Cut(topic, "/")
	Scatter(ctx, b, root, calls, pol)
	return &calls[0]
}

func TestRequestRetryRecoversFromTransientFailures(t *testing.T) {
	b := New()
	defer b.Close()
	startEcho(t, b)
	attempts := failFirstN(b, "svc", 2, flakyErr{})
	var out int
	err := requestRetry(context.Background(), b, "svc", 41, &out,
		RetryPolicy{Attempts: 4, BaseBackoff: time.Millisecond, Seed: 1}).Err
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if out != 41 {
		t.Fatalf("reply %d, want 41", out)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("made %d attempts, want 3 (2 failures + 1 success)", got)
	}
}

func TestRequestRetryTerminalErrorStopsImmediately(t *testing.T) {
	b := New()
	defer b.Close()
	startEcho(t, b)
	attempts := failFirstN(b, "svc", 100, terminalErr{})
	err := requestRetry(context.Background(), b, "svc", 1, nil,
		RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond, Seed: 2}).Err
	if err == nil {
		t.Fatal("want error")
	}
	var te terminalErr
	if !errors.As(err, &te) {
		t.Fatalf("final error %v does not wrap the terminal cause", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("terminal error burned %d attempts, want 1", got)
	}
}

func TestRequestRetryExhaustsBudget(t *testing.T) {
	b := New()
	defer b.Close()
	startEcho(t, b)
	attempts := failFirstN(b, "svc", 100, flakyErr{})
	c := requestRetry(context.Background(), b, "svc", 1, nil,
		RetryPolicy{Attempts: 3, BaseBackoff: time.Millisecond, Seed: 3})
	err := c.Err
	if err == nil {
		t.Fatal("want error after budget exhaustion")
	}
	if c.Attempts != 3 {
		t.Fatalf("call reports %d attempts, want the budget of 3", c.Attempts)
	}
	var fe flakyErr
	if !errors.As(err, &fe) {
		t.Fatalf("final error %v does not wrap the last cause", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("made %d attempts, want exactly 3", got)
	}
}

func TestRequestRetryCancelDuringBackoffUnblocks(t *testing.T) {
	b := New()
	defer b.Close()
	startEcho(t, b)
	failFirstN(b, "svc", 100, flakyErr{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := requestRetry(ctx, b, "svc", 1, nil,
		RetryPolicy{Attempts: 10, BaseBackoff: 10 * time.Second, Seed: 4}).Err
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retry = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel did not unblock the backoff sleep (took %v)", elapsed)
	}
}

func TestRequestRetryAttemptTimeoutIsTransient(t *testing.T) {
	// No responder at all: each attempt hits its per-attempt deadline,
	// which classifies as transient and burns the budget.
	b := New()
	defer b.Close()
	var requests atomic.Int64
	b.SetInterceptor(func(m Message) (bool, error) {
		if m.Topic == "svc" {
			requests.Add(1)
		}
		return true, nil
	})
	err := requestRetry(context.Background(), b, "svc", 1, nil,
		RetryPolicy{Attempts: 2, AttemptTimeout: 20 * time.Millisecond, BaseBackoff: time.Millisecond, Seed: 5}).Err
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered retry = %v, want wrapped DeadlineExceeded", err)
	}
	if got := requests.Load(); got != 2 {
		t.Fatalf("made %d attempts, want 2 (per-attempt timeouts are retryable)", got)
	}
}

func TestRequestRetryBacksOff(t *testing.T) {
	// Two failed attempts before success ⇒ two backoff sleeps with floors
	// base/2 and 2·base/2. Pin the floor, not the exact jitter (which is
	// seeded but timing-sensitive to assert precisely).
	b := New()
	defer b.Close()
	startEcho(t, b)
	failFirstN(b, "svc", 2, flakyErr{})
	base := 30 * time.Millisecond
	start := time.Now()
	if err := requestRetry(context.Background(), b, "svc", 7, nil,
		RetryPolicy{Attempts: 4, BaseBackoff: base, Seed: 6}).Err; err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < base/2+base {
		t.Fatalf("elapsed %v below the minimum backoff floor %v", elapsed, base/2+base)
	}
}

func TestIsRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{flakyErr{}, true},
		{terminalErr{}, false},
		{fmt.Errorf("wrapped: %w", flakyErr{}), true},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{ErrClosed, false},
		{errors.New("opaque"), false},
	}
	for _, c := range cases {
		if got := IsRetryable(c.err); got != c.want {
			t.Errorf("IsRetryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestInterceptorDropStillCountsPublish(t *testing.T) {
	b := New()
	defer b.Close()
	sub, err := b.Subscribe("t", 4)
	if err != nil {
		t.Fatal(err)
	}
	var hookBytes atomic.Int64
	b.AddHook(func(_ string, n int) { hookBytes.Add(int64(n)) })
	b.SetInterceptor(func(Message) (bool, error) { return false, nil })
	if err := b.Publish("t", []byte("abcd")); err != nil {
		t.Fatalf("dropped publish must not error: %v", err)
	}
	select {
	case m := <-sub.C:
		t.Fatalf("dropped message delivered: %q", m.Payload)
	default:
	}
	if hookBytes.Load() != 4 {
		t.Fatalf("energy hook saw %d bytes, want 4 (radio charged on loss)", hookBytes.Load())
	}
	// Removing the interceptor restores delivery.
	b.SetInterceptor(nil)
	if err := b.Publish("t", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C:
		if string(m.Payload) != "ok" {
			t.Fatalf("got %q", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("publish after interceptor removal not delivered")
	}
}

func TestInterceptorErrorFailsPublish(t *testing.T) {
	b := New()
	defer b.Close()
	b.SetInterceptor(func(Message) (bool, error) { return false, flakyErr{} })
	err := b.Publish("t", []byte("x"))
	var fe flakyErr
	if !errors.As(err, &fe) {
		t.Fatalf("publish = %v, want interceptor error", err)
	}
}
