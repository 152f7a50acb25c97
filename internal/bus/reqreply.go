package bus

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// envelope wraps a request payload with the topic the responder should
// reply on.
type envelope struct {
	ReplyTo string          `json:"replyTo"`
	Body    json.RawMessage `json:"body"`
}

// Call is one request of a scatter: where it goes, who answers it, what
// it carries and where its reply decodes. Build one with NewCall for one
// Scatter, which fills in Err and Attempts.
type Call struct {
	topic, peer string
	body, out   any

	// Err is nil once the reply arrived and decoded into out; otherwise
	// it is the failure of the call's last attempt.
	Err error
	// Attempts is how many times the request was published.
	Attempts int

	raw  json.RawMessage // body, encoded once for every attempt
	seq  int             // reply number of the attempt in flight
	open bool            // published and neither answered nor timed out
}

// NewCall describes one request for Scatter: body goes out JSON-encoded
// on topic, and the reply decodes into out (nil discards it). peer names
// the responder and rides in the reply topic (InboxTopic), so a transport
// under the bus can tell whose reply it is carrying; it may be empty.
func NewCall(topic, peer string, body, out any) Call {
	return Call{topic: topic, peer: peer, body: body, out: out}
}

// scatterWidth is how many requests of a scatter are in flight at once.
// A wave is answered by as many replies as it has requests, and nothing
// on the way may overflow: the narrowest buffer a wave crosses is a
// node's 16-deep command subscription (64 for RespondContext, 256 for a
// TCP forwarder or client), so a wave of 16 cannot lose a message even
// when every request is for one topic.
const scatterWidth = 16

// scatterCounter numbers scatter calls: the number is a segment of the
// call's reply topics, which keeps two calls in flight under one root
// out of each other's inbox.
var scatterCounter atomic.Uint64

// Scatter runs every call as a request/reply exchange under one reply
// subscription, InboxPattern(root, n) for the process's n-th scatter. It
// is the only request path: RequestContext is a scatter of one.
//
// The calls go out in waves. A wave's requests are published back to
// back, each with a reply topic of its own (InboxTopic), and the replies
// are slotted by the number that ends that topic; a reply with any other
// number (a duplicate, or an answer to an attempt already given up on)
// is ignored. One timer bounds a wave's attempt (pol.AttemptTimeout).
// The calls it leaves unanswered, and those whose publish failed, are
// re-sent together after one backoff when the failure is retryable
// (IsRetryable) and the call has budget left (pol.Attempts); the backoff
// is capped exponential with jitter drawn from a generator seeded with
// pol.Seed for each wave, so a wave of one walks the schedule a lone
// request always did. A terminal failure ends its call at once. A done
// ctx or a closed bus ends every call still open, sent or not, and
// Scatter returns with nothing left subscribed.
//
// On a bus with an Interceptor a wave is one request wide. The simulated
// medium behind an interceptor is serial: netsim numbers messages and
// draws their faults from one generator in arrival order, so overlapped
// exchanges would make a fault plan depend on goroutine scheduling.
func Scatter(ctx context.Context, b *Bus, root string, calls []Call, pol RetryPolicy) {
	width := scatterWidth
	if b.interceptor.Load() != nil {
		width = 1
	}
	scatter(ctx, b, root, calls, pol.withDefaults(), width)
}

func scatter(ctx context.Context, b *Bus, root string, calls []Call, pol RetryPolicy, width int) {
	if len(calls) == 0 {
		return
	}
	width = min(width, len(calls))
	s := scatterState{
		b: b, pol: pol, root: root,
		call: strconv.FormatUint(scatterCounter.Add(1), 10),
		wave: make([]*Call, 0, width),
	}
	var err error
	if s.sub, err = b.Subscribe(InboxPattern(root, s.call), width); err != nil {
		for i := range calls {
			calls[i].Err = err
		}
		return
	}
	defer s.sub.Unsubscribe()
	for lo := 0; lo < len(calls); lo += width {
		if stop := s.run(ctx, calls[lo:min(lo+width, len(calls))]); stop != nil {
			// The scatter is over. The wave settled its own calls; the
			// ones behind it were never sent.
			for i := lo + width; i < len(calls); i++ {
				calls[i].Err = failed(&calls[i], stop)
			}
			return
		}
	}
}

// scatterState is what the waves of one scatter share.
type scatterState struct {
	b    *Bus
	sub  *Subscription
	pol  RetryPolicy
	root string
	call string  // this scatter's number, as the reply topics spell it
	sent []*Call // by reply number: the call each published attempt belongs to
	wave []*Call // scratch: the calls of the current wave still to settle
}

// failed words the error of a call that ended for a reason of the
// scatter's rather than the transport's: the attempt's deadline, a
// context error or ErrClosed.
func failed(c *Call, cause error) error {
	if cause == context.DeadlineExceeded {
		return fmt.Errorf("bus: request on %q timed out: %w", c.topic, cause)
	}
	return fmt.Errorf("bus: request on %q: %w", c.topic, cause)
}

// run takes one wave through its attempts. It returns nil when every
// call has its outcome, or the reason (ctx.Err() or ErrClosed) the whole
// scatter must stop, having ended the wave's calls with it.
func (s *scatterState) run(ctx context.Context, calls []Call) error {
	pending := s.wave[:0]
	for i := range calls {
		c := &calls[i]
		var err error
		if c.raw, err = json.Marshal(c.body); err != nil {
			c.Err = fmt.Errorf("bus: encode request: %w", err)
			continue
		}
		pending = append(pending, c)
	}
	// Seeded at the first backoff, not here: seeding costs ~5 KB and a
	// 607-word loop, and a wave whose first attempt succeeds never draws.
	// The schedule for a given Seed is the same either way, because the
	// stream still starts at its first draw.
	var rng *rand.Rand
	for round := 1; len(pending) > 0; round++ {
		stop := ctx.Err()
		if stop == nil && round > 1 {
			if rng == nil {
				rng = rand.New(rand.NewSource(s.pol.Seed))
			}
			stop = s.backoff(ctx, round-1, rng)
		}
		if stop == nil {
			stop = s.attempt(ctx, pending)
		} else {
			for _, c := range pending {
				c.Err = failed(c, stop)
			}
		}
		retry := pending[:0]
		for _, c := range pending {
			switch {
			case c.Err == nil:
				if c.Attempts > 1 {
					obsRetryRecovered.Inc()
				}
				obsRetryPerCall.Observe(float64(c.Attempts))
			case stop == nil && IsRetryable(c.Err) && c.Attempts < s.pol.Attempts:
				retry = append(retry, c)
			default:
				obsRetryGiveups.Inc()
				obsRetryPerCall.Observe(float64(c.Attempts))
			}
		}
		if stop != nil {
			return stop
		}
		pending = retry
	}
	return nil
}

// backoff sleeps out the pause after a wave's round-th attempt: capped
// exponential, with deterministic jitter in [backoff/2, backoff] so a
// replay with the same policy walks the same schedule. A done ctx cuts
// it short and is returned.
func (s *scatterState) backoff(ctx context.Context, round int, rng *rand.Rand) error {
	maxBackoff := 32 * s.pol.BaseBackoff
	backoff := s.pol.BaseBackoff << (round - 1)
	if backoff <= 0 || backoff > maxBackoff {
		backoff = maxBackoff
	}
	timer := time.NewTimer(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1)))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// attempt publishes one request for each pending call and collects the
// replies until all are in, the attempt's timer fires, ctx is done or
// the bus closes. Every call leaves with Err set for this attempt; the
// last two cases also return the reason, which ends the scatter.
func (s *scatterState) attempt(ctx context.Context, pending []*Call) error {
	var timeout <-chan time.Time
	if s.pol.AttemptTimeout > 0 {
		timer := time.NewTimer(s.pol.AttemptTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	open := 0
	for _, c := range pending {
		c.Attempts++
		obsRetryAttempts.Inc()
		c.seq = len(s.sent)
		s.sent = append(s.sent, c)
		env, err := json.Marshal(envelope{ReplyTo: InboxTopic(s.root, s.call, c.peer, strconv.Itoa(c.seq)), Body: c.raw})
		if err != nil {
			c.Err = fmt.Errorf("bus: encode envelope: %w", err)
			continue
		}
		if c.Err = s.b.Publish(c.topic, env); c.Err == nil {
			c.open = true
			open++
		}
	}
	for open > 0 {
		select {
		case msg, ok := <-s.sub.C:
			if !ok {
				s.closeOpen(pending, ErrClosed)
				return ErrClosed
			}
			c := s.slot(msg.Topic)
			if c == nil {
				continue
			}
			c.open = false
			open--
			if c.out != nil {
				if err := json.Unmarshal(msg.Payload, c.out); err != nil {
					c.Err = fmt.Errorf("bus: decode reply: %w", err)
				}
			}
		case <-timeout:
			s.closeOpen(pending, context.DeadlineExceeded)
			return nil
		case <-ctx.Done():
			s.closeOpen(pending, ctx.Err())
			return ctx.Err()
		}
	}
	return nil
}

// slot finds the open call a reply topic answers, or nil: the topic ends
// in the number its attempt was published under.
func (s *scatterState) slot(topic string) *Call {
	seq, err := strconv.Atoi(topic[strings.LastIndexByte(topic, '/')+1:])
	if err != nil || seq < 0 || seq >= len(s.sent) {
		return nil
	}
	if c := s.sent[seq]; c.open && c.seq == seq {
		return c
	}
	return nil
}

// closeOpen fails every call still waiting for its reply with cause.
func (s *scatterState) closeOpen(pending []*Call, cause error) {
	for _, c := range pending {
		if c.open {
			c.open = false
			c.Err = failed(c, cause)
		}
	}
}

// RequestContext publishes body (JSON-encoded) on topic with a unique
// reply-to topic and waits for a single reply, which it decodes into out
// (out may be nil to discard). It returns when the reply arrives, the
// bus closes, or ctx is done — cancellation unblocks the caller
// immediately and leaves nothing behind (the reply subscription is torn
// down on every path). It is a Scatter of one call with one attempt; the
// reply inbox sits under the topic's first segment.
func RequestContext(ctx context.Context, b *Bus, topic string, body any, out any) error {
	calls := [1]Call{NewCall(topic, "", body, out)}
	root, _, _ := strings.Cut(topic, "/")
	Scatter(ctx, b, root, calls[:], RetryPolicy{Attempts: 1})
	return calls[0].Err
}

// RespondContext subscribes to a request topic pattern and serves each
// request with fn until the subscription closes (returns nil) or ctx is
// done (returns ctx.Err()). fn receives the decoded request body bytes
// and returns the reply value (JSON-encoded back to the requester).
// RespondContext runs in the calling goroutine; start it with go and
// cancel ctx to shut the responder down.
func RespondContext(ctx context.Context, b *Bus, pattern string, fn func(topic string, body []byte) (any, error)) error {
	sub, err := b.Subscribe(pattern, 64)
	if err != nil {
		return err
	}
	defer sub.Unsubscribe()
	for {
		select {
		case msg, ok := <-sub.C:
			if !ok {
				return nil
			}
			serveRequest(b, msg, fn)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func serveRequest(b *Bus, msg Message, fn func(topic string, body []byte) (any, error)) {
	var env envelope
	if err := json.Unmarshal(msg.Payload, &env); err != nil {
		return // not a request envelope; ignore
	}
	reply, err := fn(msg.Topic, env.Body)
	if err != nil || env.ReplyTo == "" {
		return
	}
	raw, err := json.Marshal(reply)
	if err != nil {
		return
	}
	// Best-effort reply; requester may have timed out.
	//lint:ignore errcheck reply delivery is best-effort by contract; a failed publish only means the requester is gone or the bus closed
	_ = b.Publish(env.ReplyTo, raw)
}
