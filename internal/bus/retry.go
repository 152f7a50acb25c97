package bus

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
)

// Retry observability (no-ops until obs.Enable), kept by Scatter for every
// call it runs. attempts counts every request published; recovered counts
// calls that succeeded on a retry (attempt > 1); giveups counts calls that
// exhausted their budget, hit a terminal error or were abandoned.
// attempts_per_call shows how hard the retry layer is working — a drift
// toward the high buckets means the transport is degrading faster than
// the policy can hide.
var (
	obsRetryAttempts  = obs.GetCounter("bus.retry.attempts")
	obsRetryRecovered = obs.GetCounter("bus.retry.recovered")
	obsRetryGiveups   = obs.GetCounter("bus.retry.giveups")
	obsRetryPerCall   = obs.GetHistogram("bus.retry.attempts_per_call", obs.CountBuckets)
)

// RetryPolicy bounds each call of a Scatter. The zero value is usable: 3
// attempts, 10ms base backoff capped at 32× base, no per-attempt
// deadline beyond the caller's context, jitter seeded with 0.
type RetryPolicy struct {
	Attempts       int           // total attempts including the first (min 1); 0 = 3
	AttemptTimeout time.Duration // per-attempt deadline; 0 = outer ctx only
	BaseBackoff    time.Duration // backoff before the second attempt; 0 = 10ms
	Seed           int64         // jitter seed: a fixed seed replays the exact backoff schedule
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
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
