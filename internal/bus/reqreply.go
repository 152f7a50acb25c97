package bus

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
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

	seq  int  // reply number of the attempt in flight; under the scatter's mu
	open bool // published and neither answered nor timed out; under the scatter's mu
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
// inbox, InboxPattern(root, n) for the bus's n-th scatter. It is the
// only request path: RequestContext is a scatter of one.
//
// The calls go out in waves. A wave's requests are published back to
// back, their envelopes in one buffer, each with a reply topic of its
// own (appendInboxTopic). The inbox is a handler: on whatever goroutine
// publishes a reply, it decodes the reply into the call that the number
// ending its topic names, and ignores a reply with any other number (a
// duplicate, or an answer to an attempt already given up on). An attempt
// answered while it publishes (in-process responders answer inside
// Publish) ends with its publish loop; otherwise one timer, for what is
// left of pol.AttemptTimeout since the attempt began, bounds the wait.
// The calls it leaves unanswered, and those whose publish failed, are
// re-sent together after one backoff when the failure is retryable
// (IsRetryable) and the call has budget left (pol.Attempts); the backoff
// is capped exponential with jitter drawn from a generator seeded with
// pol.Seed for each wave, so a wave of one walks the schedule a lone
// request always did. A terminal failure ends its call at once. A done
// ctx or a closed bus ends every call still open, sent or not, and
// Scatter returns with nothing left subscribed.
//
// Taking the calls in order, a wave ends before the call that would put
// more of its requests into some subscription than its room (planWaves):
// a Subscribe channel's buffer, 256 for a TCP connection's pattern, no
// bound for a handler. So no wave overflows a buffer even if its
// responders read nothing until all of it is in, and the cuts depend on
// the calls and the subscriptions, never on what a buffer holds.
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
// that would put one request more into some subscription than its room.
// Each subscription keeps its count for the wave being planned, stamped
// with that wave's number, so planning allocates nothing; planMu keeps
// two scatters from planning into the same counts.
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
// whether its room holds every one counted.
func (s *Subscription) reach(wave uint64) bool {
	if s.wave != wave {
		s.wave, s.load = wave, 0
	}
	s.load++
	return s.load <= s.room
}

// scatter runs calls in the waves their cut marks open; the first call
// opens one whatever its mark.
func scatter(ctx context.Context, b *Bus, root string, calls []Call, pol RetryPolicy) {
	if len(calls) == 0 {
		return
	}
	// The first attempts' reply slots, then the wave scratch (no wave is
	// wider than the scatter), in one array.
	slots := make([]*Call, 2*len(calls))
	pattern := InboxPattern(root, string(strconv.AppendUint(make([]byte, 0, 20), b.scatters.Add(1), 10)))
	s := &scatterState{
		b: b, pol: pol, root: root,
		call: pattern[len(root)+len(inboxSegment) : len(pattern)-len("/#")],
		sent: slots[:0:len(calls)],
		wave: slots[len(calls):len(calls)],
	}
	s.inbox = Subscription{fn: s.settle, room: unbounded}
	if _, err := b.add(&s.inbox, pattern, nil); err != nil {
		for i := range calls {
			calls[i].Err = err
		}
		return
	}
	defer s.inbox.Unsubscribe()
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
	inbox Subscription // the reply inbox, whose function is settle
	b     *Bus
	pol   RetryPolicy
	root  string
	call  string  // this scatter's number, as the reply topics spell it
	wave  []*Call // scratch: the calls of the current wave still to settle

	mu   sync.Mutex    // shared by the publish loop and settle; never held across a Publish
	sent []*Call       // guarded by mu; by reply number: the call each published attempt belongs to
	open int           // guarded by mu; calls of the attempt under way still waiting for their reply
	done chan struct{} // guarded by mu; closed by settle when open falls to 0 while the attempt waits
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

// attempt publishes one request for each pending call and, if a reply is
// outstanding when the last is out, waits until the attempt's deadline,
// a done ctx or the bus closing. Every call leaves with Err set for this
// attempt; the last two cases also return the reason, which ends the
// scatter.
func (s *scatterState) attempt(ctx context.Context, pending []*Call) error {
	start, size := time.Now(), 0
	s.mu.Lock() // every call is open before its request can be answered
	for _, c := range pending {
		size += 40 + len(s.root) + len(s.call) + len(c.peer) + len(c.body)
		c.Attempts++
		c.seq, c.open, c.Err = len(s.sent), true, nil
		s.sent = append(s.sent, c)
	}
	s.open = len(pending)
	s.mu.Unlock()
	// Each envelope goes out capped at its end, so an append to one
	// delivered payload cannot reach into the next.
	buf := make([]byte, 0, size)
	for _, c := range pending {
		obsRetryAttempts.Inc()
		at := len(buf)
		buf = appendEnvelope(buf, s.root, s.call, c.peer, c.seq, c.body)
		if err := s.b.Publish(c.topic, buf[at:len(buf):len(buf)]); err != nil {
			s.mu.Lock()
			c.open, c.Err = false, err // nothing was delivered: no reply settled it
			s.open--
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	if s.open == 0 {
		s.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	s.done = done
	s.mu.Unlock()
	var timeout <-chan time.Time
	if s.pol.AttemptTimeout > 0 {
		timer := time.NewTimer(s.pol.AttemptTimeout - time.Since(start))
		defer timer.Stop()
		timeout = timer.C
	}
	var stop error
	select {
	case <-done:
	case <-timeout:
	case <-ctx.Done():
		stop = ctx.Err()
	case <-s.b.done:
		stop = ErrClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range pending {
		if c.open {
			c.open, c.Err = false, failed(c, cmp.Or(stop, context.DeadlineExceeded))
		}
	}
	s.open, s.done = 0, nil
	return stop
}

// settle is the reply inbox: it decodes a reply into the open call whose
// attempt's number ends the reply's topic, and ignores any other reply.
func (s *scatterState) settle(msg Message) bool {
	seq, err := strconv.Atoi(msg.Topic[strings.LastIndexByte(msg.Topic, '/')+1:])
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || seq < 0 || seq >= len(s.sent) {
		return true
	}
	c := s.sent[seq]
	if !c.open || c.seq != seq {
		return true
	}
	c.open = false
	if c.out != nil {
		if err := unmarshal(msg.Payload, c.out); err != nil {
			c.Err = fmt.Errorf("bus: decode reply: %w", err)
		}
	}
	if s.open--; s.open == 0 && s.done != nil {
		close(s.done)
	}
	return true
}

// RequestContext publishes body (JSON-encoded) on topic and waits for
// one reply, which it decodes into out (nil discards it). It returns when
// the reply arrives, the bus closes or ctx is done, leaving nothing
// subscribed. It is a Scatter of one call with one attempt, its inbox
// under the topic's first segment.
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
	case <-b.done:
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
