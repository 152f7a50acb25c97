package bus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/obs"
)

// Retry observability (no-ops until obs.Enable). attempts counts every
// request attempt made under a retry policy; recovered counts calls that
// succeeded on a retry (attempt > 1); giveups counts calls that exhausted
// their budget or hit a terminal error. attempts_per_call shows how hard
// the retry layer is working — a drift toward the high buckets means the
// transport is degrading faster than the policy can hide.
var (
	obsRetryAttempts  = obs.GetCounter("bus.retry.attempts")
	obsRetryRecovered = obs.GetCounter("bus.retry.recovered")
	obsRetryGiveups   = obs.GetCounter("bus.retry.giveups")
	obsRetryPerCall   = obs.GetHistogram("bus.retry.attempts_per_call", obs.CountBuckets)
)

// RetryPolicy bounds RequestRetryContext. The zero value is usable: 3
// attempts, 10ms base backoff capped at 32× base, no per-attempt
// deadline beyond the caller's context, jitter seeded with 0.
type RetryPolicy struct {
	Attempts       int           // total attempts including the first (min 1); 0 = 3
	AttemptTimeout time.Duration // per-attempt deadline; 0 = outer ctx only
	BaseBackoff    time.Duration // backoff before the second attempt; 0 = 10ms
	MaxBackoff     time.Duration // backoff cap; 0 = 32× BaseBackoff
	Seed           int64         // jitter seed: a fixed seed replays the exact backoff schedule
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 32 * p.BaseBackoff
	}
	return p
}

// IsRetryable classifies an error for retry purposes. An error that
// implements Retryable() bool speaks for itself (netsim's NodeDownError
// does — a crashed peer may restart). A per-attempt deadline is
// transient by nature. Everything else — cancellation, a closed bus,
// encode failures — is terminal: retrying cannot fix it.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	var r interface{ Retryable() bool }
	if errors.As(err, &r) {
		return r.Retryable()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
		return false
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// RequestRetryContext is RequestContext under a retry policy: capped
// exponential backoff with deterministic seeded jitter and a per-call
// attempt budget. Terminal errors (IsRetryable == false) and outer-ctx
// expiry stop the loop immediately; only transient failures burn budget.
// The final error wraps the last attempt's failure.
func RequestRetryContext(ctx context.Context, b *Bus, topic string, body, out any, pol RetryPolicy) error {
	pol = pol.withDefaults()
	// Seeded at the first backoff, not here: seeding costs ~5 KB and a
	// 607-word loop, and a call whose first attempt succeeds never draws.
	// The schedule for a given Seed is the same either way, because the
	// stream still starts at its first draw.
	var rng *rand.Rand
	var err error
	attempt := 0
	for attempt < pol.Attempts {
		attempt++
		obsRetryAttempts.Inc()
		err = requestAttempt(ctx, b, topic, body, out, pol.AttemptTimeout)
		if err == nil {
			if attempt > 1 {
				obsRetryRecovered.Inc()
			}
			obsRetryPerCall.Observe(float64(attempt))
			return nil
		}
		if ctx.Err() != nil || !IsRetryable(err) || attempt == pol.Attempts {
			break
		}
		backoff := pol.BaseBackoff << (attempt - 1)
		if backoff <= 0 || backoff > pol.MaxBackoff {
			backoff = pol.MaxBackoff
		}
		// Deterministic jitter in [backoff/2, backoff]: seeded, so a replay
		// with the same policy walks the same schedule.
		if rng == nil {
			rng = rand.New(rand.NewSource(pol.Seed))
		}
		delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			obsRetryGiveups.Inc()
			obsRetryPerCall.Observe(float64(attempt))
			return fmt.Errorf("bus: request on %q: %w", topic, ctx.Err())
		}
	}
	obsRetryGiveups.Inc()
	obsRetryPerCall.Observe(float64(attempt))
	return fmt.Errorf("bus: request on %q failed after %d attempt(s): %w", topic, attempt, err)
}

// RequestRetry is the context-less convenience wrapper around
// RequestRetryContext: the overall deadline rides on an internal context
// while the policy bounds the attempts within it.
func RequestRetry(b *Bus, topic string, body, out any, timeout time.Duration, pol RetryPolicy) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return RequestRetryContext(ctx, b, topic, body, out, pol)
}

// requestAttempt runs one RequestContext round, bounded by the
// per-attempt timeout when one is set.
func requestAttempt(ctx context.Context, b *Bus, topic string, body, out any, per time.Duration) error {
	if per > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, per)
		defer cancel()
	}
	return RequestContext(ctx, b, topic, body, out)
}
