package bus

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Call is one request of a scatter: where it goes, who answers it, what
// it carries and where its reply decodes. Build one with NewCall for one
// Scatter, which fills in Err and Attempts.
type Call struct {
	topic, peer string
	body        []byte
	out         any

	// Err is nil once the reply arrived and decoded into out; otherwise
	// it is the failure of the call's last attempt.
	Err error
	// Attempts is how many times the request was published.
	Attempts int

	seq  int  // reply number of the attempt in flight
	open bool // published and neither answered nor timed out
	cut  bool // the call opens a wave (planWaves)
}

// NewCall describes one request for Scatter: body, JSON as json.Marshal
// writes it, goes out on topic, and the reply decodes into out (nil
// discards it). The bus never writes body, so calls may share one. peer
// names the responder and rides in the reply topic, so a transport under
// the bus can tell whose reply it is carrying; it may be empty.
func NewCall(topic, peer string, body []byte, out any) Call {
	return Call{topic: topic, peer: peer, body: body, out: out}
}

// Wave observability (no-ops until obs.Enable): waves counts the waves
// scatters run and wave_width the calls in each. A gather round's waves
// are the request/reply round trips it waits for in series.
var (
	obsWaves     = obs.GetCounter("bus.scatter.waves")
	obsWaveWidth = obs.GetHistogram("bus.scatter.wave_width", obs.CountBuckets)
)

// Scatter runs every call as a request/reply exchange under one reply
// subscription, InboxPattern(root, n) for the bus's n-th scatter. It
// is the only request path: RequestContext is a scatter of one.
//
// The calls go out in waves. A wave's requests are published back to
// back, their envelopes in one buffer, each with a reply topic of its
// own (appendInboxTopic), and the replies are slotted by the number that
// ends that topic; a reply with any other number (a duplicate, or an
// answer to an attempt already given up on) is ignored. One timer bounds
// a wave's attempt (pol.AttemptTimeout). The calls it leaves unanswered, and those whose publish failed, are
// re-sent together after one backoff when the failure is retryable
// (IsRetryable) and the call has budget left (pol.Attempts); the backoff
// is capped exponential with jitter drawn from a generator seeded with
// pol.Seed for each wave, so a wave of one walks the schedule a lone
// request always did. A terminal failure ends its call at once. A done
// ctx or a closed bus ends every call still open, sent or not, and
// Scatter returns with nothing left subscribed.
//
// A wave is as wide as the buffers it crosses allow. Taking the calls in
// order, a wave ends before the call that would put more of its requests
// into some subscription than that subscription's channel holds
// (planWaves), and the reply inbox holds as many messages as the widest
// wave. So no wave can overflow a buffer on the bus even if its
// responders read nothing until all of it is in, and the cuts depend on
// the calls and the subscriptions, never on what a buffer happens to
// hold.
//
// On a bus with an Interceptor a wave is one request wide. The simulated
// medium behind an interceptor is serial: netsim numbers messages and
// draws their faults from one generator in arrival order, so overlapped
// exchanges would make a fault plan depend on goroutine scheduling.
func Scatter(ctx context.Context, b *Bus, root string, calls []Call, pol RetryPolicy) {
	if b.interceptor.Load() != nil {
		for i := range calls {
			calls[i].cut = true
		}
	} else {
		b.planWaves(calls)
	}
	scatter(ctx, b, root, calls, pol.withDefaults())
}

// planWaves marks the call that opens each wave of a scatter. It routes
// every call's topic as Publish would, through the exact index and then
// the wildcard list, all under one read lock, and cuts before the call
// that would put one request more into some subscription than its
// channel's capacity; a handler never does. Each subscription keeps its
// count for the wave being planned, stamped with that wave's number, so
// planning allocates nothing; planMu keeps two scatters from planning
// into the same counts.
func (b *Bus) planWaves(calls []Call) {
	if len(calls) == 1 { // a scatter of one is one wave, wherever it goes
		calls[0].cut = true
		return
	}
	b.planMu.Lock()
	defer b.planMu.Unlock()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range calls {
		c := &calls[i]
		if c.cut = i == 0 || !b.reachLocked(c.topic); c.cut {
			b.planned++
			b.reachLocked(c.topic)
		}
	}
}

// reachLocked counts one request on topic against every subscription it
// would reach in the wave being planned, and reports whether each still
// holds all of that wave's requests. The caller holds planMu and mu.
func (b *Bus) reachLocked(topic string) bool {
	fits := true
	for _, sub := range b.exact[topic] {
		fits = sub.reach(b.planned) && fits
	}
	for _, sub := range b.wild {
		if Match(sub.pattern, topic) {
			fits = sub.reach(b.planned) && fits
		}
	}
	return fits
}

// reach counts one request of wave against the subscription and reports
// whether its channel holds every one counted; a handler holds any.
func (s *Subscription) reach(wave uint64) bool {
	if s.wave != wave {
		s.wave, s.load = wave, 0
	}
	s.load++
	return s.h != nil || s.load <= cap(s.ch)
}

// scatter runs calls in the waves their cut marks open; the first call
// opens one whatever its mark.
func scatter(ctx context.Context, b *Bus, root string, calls []Call, pol RetryPolicy) {
	if len(calls) == 0 {
		return
	}
	widest := 0
	for lo := 0; lo < len(calls); {
		hi := waveEnd(calls, lo)
		widest = max(widest, hi-lo)
		lo = hi
	}
	// The first attempts' reply slots, then the wave scratch, in one array.
	slots := make([]*Call, len(calls)+widest)
	pattern := InboxPattern(root, string(strconv.AppendUint(make([]byte, 0, 20), b.scatters.Add(1), 10)))
	s := scatterState{
		b: b, pol: pol, root: root,
		call: pattern[len(root)+len(inboxSegment) : len(pattern)-len("/#")],
		sent: slots[:0:len(calls)],
		wave: slots[len(calls):len(calls)],
	}
	var err error
	if s.sub, err = b.Subscribe(pattern, widest); err != nil {
		for i := range calls {
			calls[i].Err = err
		}
		return
	}
	defer s.sub.Unsubscribe()
	for lo := 0; lo < len(calls); {
		hi := waveEnd(calls, lo)
		obsWaves.Inc()
		obsWaveWidth.Observe(float64(hi - lo))
		if stop := s.run(ctx, calls[lo:hi]); stop != nil {
			// The scatter is over. The wave settled its own calls; the
			// ones behind it were never sent.
			for i := hi; i < len(calls); i++ {
				calls[i].Err = failed(&calls[i], stop)
			}
			return
		}
		lo = hi
	}
}

// waveEnd is where the wave that calls[lo] opens ends: at the next call
// that opens one, or at the end.
func waveEnd(calls []Call, lo int) int {
	hi := lo + 1
	for hi < len(calls) && !calls[hi].cut {
		hi++
	}
	return hi
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
		pending = append(pending, &calls[i])
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
	// Each envelope goes out capped at its end, so an append to one
	// delivered payload cannot reach into the next.
	size := 0
	for _, c := range pending {
		size += 40 + len(s.root) + len(s.call) + len(c.peer) + len(c.body)
	}
	buf := make([]byte, 0, size)
	open := 0
	for _, c := range pending {
		c.Attempts++
		obsRetryAttempts.Inc()
		c.seq = len(s.sent)
		s.sent = append(s.sent, c)
		start := len(buf)
		buf = appendEnvelope(buf, s.root, s.call, c.peer, c.seq, c.body)
		if c.Err = s.b.Publish(c.topic, buf[start:len(buf):len(buf)]); c.Err == nil {
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
			open -= s.take(msg)
		case <-timeout:
			// A reply in the inbox came in time: inline handlers can
			// fill it while the wave's publishing uses up the budget.
			for open > 0 && len(s.sub.C) > 0 {
				open -= s.take(<-s.sub.C)
			}
			s.closeOpen(pending, context.DeadlineExceeded)
			return nil
		case <-ctx.Done():
			s.closeOpen(pending, ctx.Err())
			return ctx.Err()
		}
	}
	return nil
}

// take settles the open call a reply answers, decoding the reply into
// its out, and returns 1, or returns 0 for a reply that answers no open
// call: the topic ends in the number its attempt was published under.
func (s *scatterState) take(msg Message) int {
	seq, err := strconv.Atoi(msg.Topic[strings.LastIndexByte(msg.Topic, '/')+1:])
	if err != nil || seq < 0 || seq >= len(s.sent) {
		return 0
	}
	c := s.sent[seq]
	if !c.open || c.seq != seq {
		return 0
	}
	c.open = false
	if c.out != nil {
		if err := unmarshal(msg.Payload, c.out); err != nil {
			c.Err = fmt.Errorf("bus: decode reply: %w", err)
		}
	}
	return 1
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
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("bus: encode request: %w", err)
	}
	calls := [1]Call{NewCall(topic, "", raw, out)}
	root, _, _ := strings.Cut(topic, "/")
	Scatter(ctx, b, root, calls[:], RetryPolicy{Attempts: 1})
	return calls[0].Err
}

// RespondContext serves each request on a topic pattern with fn until
// the bus closes (returns nil) or ctx is done (returns ctx.Err()). fn
// receives the decoded request body bytes and returns the reply value
// (JSON-encoded back to the requester). fn is a handler (Handle): it
// runs on each requester's goroutine, so calls may overlap. Start
// RespondContext with go and cancel ctx to shut the responder down.
func RespondContext(ctx context.Context, b *Bus, pattern string, fn func(topic string, body []byte) (any, error)) error {
	sub, err := b.Handle(pattern, func(msg Message) { serveRequest(b, msg, fn) })
	if err != nil {
		return err
	}
	defer sub.Unsubscribe()
	select {
	case <-sub.C: // closed by Close
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func serveRequest(b *Bus, msg Message, fn func(topic string, body []byte) (any, error)) {
	replyTo, body, err := DecodeEnvelope(msg.Payload)
	if err != nil {
		return // not a request envelope; ignore
	}
	reply, err := fn(msg.Topic, body)
	if err != nil || replyTo == "" {
		return
	}
	raw, err := json.Marshal(reply)
	if err != nil {
		return
	}
	// Best-effort reply; requester may have timed out.
	//lint:ignore errcheck reply delivery is best-effort by contract; a failed publish only means the requester is gone or the bus closed
	_ = b.Publish(replyTo, raw)
}
