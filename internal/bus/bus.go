// Package bus is SenseDroid's communication layer: a topic-based
// publish/subscribe message bus with MQTT-style wildcard matching, a
// request/reply helper, and (tcp.go) a TCP transport so brokers and nodes
// can also run as separate processes. The paper's middleware "provides
// libraries and APIs for communication, service discovery, and
// collaboration … for different network topologies"; pub/sub over a broker
// covers client-server, and peers subscribing to each other's topics
// covers peer-to-peer. Every subscription (Handle's, a scatter's reply
// inbox, a TCP connection's pattern) is a function that Publish calls on
// the publisher's goroutine; Subscribe adapts one to a channel.
package bus

import (
	"errors"
	"fmt"
	"log"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Bus-wide observability handles (no-ops until obs.Enable).
var (
	obsPublished    = obs.GetCounter("bus.publish.messages")
	obsPublishBytes = obs.GetCounter("bus.publish.bytes")
	obsDelivered    = obs.GetCounter("bus.deliver.messages")
	obsDropped      = obs.GetCounter("bus.deliver.dropped")
)

// dropWarned gates the log-once overflow warning: a slow subscriber is a
// deployment problem worth one loud line, not a log flood on every lost
// message. An atomic.Bool rather than sync.Once, so the per-drop path
// allocates no closure. The full count lives in the bus.deliver.dropped
// counter and the per-subscription Dropped() accessor.
var dropWarned atomic.Bool

// noteDrop accounts one overflow-discarded message.
func (s *Subscription) noteDrop() {
	s.dropped.Add(1)
	obsDropped.Inc()
	if !dropWarned.Load() && dropWarned.CompareAndSwap(false, true) {
		log.Printf("bus: subscriber %q is full (channel buffer or TCP backlog); dropping messages (see bus.deliver.dropped metric and Subscription.Dropped; this warning is logged once)", s.pattern)
	}
}

// Message is one published datagram.
type Message struct {
	Topic   string
	Payload []byte
}

// Hook observes every publish (for byte accounting / energy metering).
type Hook func(topic string, payloadBytes int)

// Subscription is a function that Publish calls for each matching
// message, on the publisher's goroutine, outside the bus lock. A message
// it refuses (a full channel, a TCP peer too far behind) counts as
// dropped. C is Subscribe's channel, nil for the others.
type Subscription struct {
	C       <-chan Message
	pattern string
	bus     *Bus
	fn      func(Message) bool // reports false for a message it dropped
	calls   sync.WaitGroup     // fn calls in flight, counted by Publish under the bus lock
	dropped atomic.Int64

	// The wave planWaves is cutting, how many of its requests reach this
	// subscription (both only under Bus.planMu), and how many it holds.
	wave       uint64
	load, room int32
}

// unbounded is the room of a handler: it takes each message as it comes.
const unbounded = math.MaxInt32

// Dropped returns how many messages the subscription refused.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Unsubscribe detaches the subscription, waits for the calls under way,
// also after Close, and then closes C.
func (s *Subscription) Unsubscribe() { s.bus.unsubscribe(s) }

// Interceptor sits between Publish and fan-out, modelling the transport
// under the bus: return (false, nil) to drop the message silently (the
// publish is still counted and hooks still run — the radio spent the
// energy), or a non-nil error to fail the publish (nothing delivered).
// It runs before any handler, so it sees a request before its reply.
// The chaos harness uses this to route bus traffic through a
// netsim.Network with an active fault plan.
type Interceptor func(msg Message) (deliver bool, err error)

// Bus is an in-process pub/sub broker, safe for concurrent use.
//
// Fan-out is indexed, so a publish costs the same whatever the roster:
// a wildcard-free pattern matches exactly the topic it spells, so those
// subscriptions sit in a map keyed by that topic, and only the patterns
// with a "+" or "#" segment are scanned. The in-process node command
// topics, responders and broker register are wildcard-free; the
// wildcards are the reply inbox of each scatter in flight and one
// pattern per TCP connection. A deployment with many wildcard
// subscribers is the reason to revisit this (DESIGN.md §2).
type Bus struct {
	mu          sync.RWMutex
	subs        map[*Subscription]chan Message // guarded by mu; Subscribe's channel, nil for the others
	exact       map[string][]*Subscription     // guarded by mu; wildcard-free patterns, by the one topic each matches
	wild        []*Subscription                // guarded by mu; patterns with a "+" or "#" segment
	hooks       []Hook                         // guarded by mu
	closed      bool                           // guarded by mu
	done        chan struct{}                  // closed by Close
	interceptor atomic.Pointer[Interceptor]

	// scatters numbers the bus's scatter calls. The number is a segment
	// of the call's reply topics, which keeps two calls in flight under
	// one root out of each other's inbox; counting per bus keeps a
	// request's bytes independent of what other buses ran before it.
	scatters atomic.Uint64

	planMu  sync.Mutex // serialises planWaves, which writes Subscription.wave and .load
	planned uint64     // guarded by planMu; the number of the last wave planWaves opened
}

// ErrClosed reports use of a closed bus.
var ErrClosed = errors.New("bus: closed")

// New returns an empty bus.
func New() *Bus {
	return &Bus{
		subs:  make(map[*Subscription]chan Message),
		exact: make(map[string][]*Subscription),
		done:  make(chan struct{}),
	}
}

// AddHook registers a publish observer.
func (b *Bus) AddHook(h Hook) {
	b.mu.Lock()
	b.hooks = append(b.hooks, h)
	b.mu.Unlock()
}

// ValidTopic reports whether a topic is publishable: non-empty, no
// wildcards, no empty segments. Used as a pattern, a valid topic matches
// itself and nothing else. Every publish runs it, so it is one pass over
// the bytes that allocates nothing.
func ValidTopic(topic string) bool {
	prev := byte('/') // the byte before topic[i]: the topic opens a segment
	for i := 0; i < len(topic); i++ {
		c := topic[i]
		switch {
		case c == '/' && prev == '/':
			return false // an empty segment
		case (c == '+' || c == '#') && prev == '/' && (i+1 == len(topic) || topic[i+1] == '/'):
			return false // a wildcard segment
		}
		prev = c
	}
	return prev != '/' // empty, or an empty last segment
}

// ValidPattern reports whether a subscription pattern is well formed:
// non-empty segments, "#" only in final position.
func ValidPattern(pattern string) bool {
	prev := byte('/')
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c == '/' && prev == '/':
			return false
		case c == '#' && prev == '/' && i+1 < len(pattern) && pattern[i+1] == '/':
			return false // "#" with a segment after it
		}
		prev = c
	}
	return prev != '/'
}

// Match reports whether a concrete topic matches a pattern. "+" matches
// exactly one segment; a trailing "#" matches any remainder (including
// none). It walks both strings a segment at a time, byte by byte, and
// allocates nothing: every publish runs it once per wildcard
// subscription.
func Match(pattern, topic string) bool {
	// p and t open the current segment of each; t past the end of topic
	// means the topic has no segment left.
	p, t := 0, 0
	for {
		wild := p < len(pattern) && (pattern[p] == '+' || pattern[p] == '#') &&
			(p+1 == len(pattern) || pattern[p+1] == '/')
		if wild && pattern[p] == '#' {
			return true
		}
		if t > len(topic) {
			return false
		}
		if wild { // "+": skip one topic segment
			p++
			for t < len(topic) && topic[t] != '/' {
				t++
			}
		} else {
			for p < len(pattern) && t < len(topic) && pattern[p] == topic[t] && pattern[p] != '/' {
				p++
				t++
			}
			if (p < len(pattern) && pattern[p] != '/') || (t < len(topic) && topic[t] != '/') {
				return false // the segments differ
			}
		}
		if p == len(pattern) {
			return t == len(topic)
		}
		p++ // past the '/' of each
		t++
	}
}

// Subscribe registers interest in a pattern with the given channel buffer
// (min 1): its function sends to C without waiting, a full buffer
// counting a drop. C closes once the subscription has left and its sends
// under way are done.
func (b *Bus) Subscribe(pattern string, buffer int) (*Subscription, error) {
	ch := make(chan Message, max(buffer, 1))
	return b.add(&Subscription{C: ch, room: int32(min(cap(ch), unbounded)), fn: func(msg Message) bool {
		select {
		case ch <- msg:
			return true
		default:
			return false
		}
	}}, pattern, ch)
}

// Handle registers fn for a pattern. Publish calls fn after the hooks
// and outside the bus lock, so fn may publish its reply on this bus;
// concurrent publishers' calls overlap. fn must not wait for another
// publisher, unsubscribe itself or close the bus.
func (b *Bus) Handle(pattern string, fn func(Message)) (*Subscription, error) {
	return b.add(&Subscription{fn: func(msg Message) bool { fn(msg); return true }, room: unbounded}, pattern, nil)
}

// add registers s, whose fn and room are set, for pattern; ch is
// Subscribe's channel, which the bus closes when s leaves.
func (b *Bus) add(s *Subscription, pattern string, ch chan Message) (*Subscription, error) {
	if !ValidPattern(pattern) {
		return nil, fmt.Errorf("bus: invalid pattern %q", pattern)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	s.pattern, s.bus = pattern, b
	b.subs[s] = ch
	// A pattern that is itself a publishable topic has no wildcard.
	if ValidTopic(pattern) {
		b.exact[pattern] = append(b.exact[pattern], s)
	} else {
		b.wild = append(b.wild, s)
	}
	return s, nil
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	ch, ok := b.subs[s]
	delete(b.subs, s)
	switch {
	case !ok:
	case !ValidTopic(s.pattern):
		b.wild = removeSub(b.wild, s)
	case len(b.exact[s.pattern]) > 1:
		b.exact[s.pattern] = removeSub(b.exact[s.pattern], s)
	default:
		// Reply topics are unique per request: a key left behind empty
		// would be a leak, so the last subscription out deletes it.
		delete(b.exact, s.pattern)
	}
	b.mu.Unlock()
	s.calls.Wait() // out of the index, so no call is counted any more
	if ch != nil {
		close(ch)
	}
}

// removeSub removes s from list in place; slices.Delete clears the
// vacated tail slot, so the backing array does not pin the subscription.
func removeSub(list []*Subscription, s *Subscription) []*Subscription {
	if i := slices.Index(list, s); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// SetInterceptor installs (or, with nil, removes) the transport
// interceptor consulted on every Publish. The interceptor runs outside
// the bus lock, so it may do its own locking but must not publish on
// this bus (the message it is deciding would recurse).
func (b *Bus) SetInterceptor(i Interceptor) {
	if i == nil {
		b.interceptor.Store(nil)
		return
	}
	b.interceptor.Store(&i)
}

// Publish delivers the message to every matching subscription: it
// counts each call in flight under the read lock, runs the hooks after
// the unlock, then calls the subscriptions. A full buffer refuses, never
// waits.
func (b *Bus) Publish(topic string, payload []byte) error {
	if !ValidTopic(topic) {
		return fmt.Errorf("bus: invalid topic %q", topic)
	}
	deliver := true
	if ip := b.interceptor.Load(); ip != nil {
		var err error
		if deliver, err = (*ip)(Message{Topic: topic, Payload: payload}); err != nil {
			return err
		}
	}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrClosed
	}
	// A message the interceptor lost was still transmitted: the publish is
	// counted and the energy hooks run, but no subscriber hears it.
	calls := make([]*Subscription, 0, 1)
	if deliver {
		calls = append(calls, b.exact[topic]...)
		for _, sub := range b.wild {
			if Match(sub.pattern, topic) {
				calls = append(calls, sub)
			}
		}
		for _, sub := range calls {
			sub.calls.Add(1) // under the lock: Unsubscribe waits for it
		}
	}
	hooks := b.hooks
	b.mu.RUnlock()
	obsPublished.Inc()
	obsPublishBytes.Add(int64(len(payload)))
	for _, h := range hooks {
		h(topic, len(payload))
	}
	msg := Message{Topic: topic, Payload: payload}
	for _, sub := range calls {
		if sub.fn(msg) {
			obsDelivered.Inc()
		} else {
			sub.noteDrop()
		}
		sub.calls.Done()
	}
	return nil
}

// ObsHook returns a Hook that breaks publish traffic down by top-level
// topic prefix into obs counters ("bus.topic.<prefix>.messages" and
// ".bytes") — the per-pipeline throughput view. Attach with AddHook; it
// costs one Enabled check per publish while obs is off.
//
// Counter handles are interned once per prefix in a hook-local cache, so
// the steady-state enabled path is one small map lookup — no registry
// RWMutex traffic and no per-publish name allocation.
func ObsHook() Hook {
	type prefixCounters struct {
		messages *obs.Counter
		bytes    *obs.Counter
	}
	var (
		mu      sync.Mutex
		handles = map[string]prefixCounters{}
	)
	return func(topic string, payloadBytes int) {
		if !obs.Enabled() {
			return
		}
		prefix := topic
		if i := strings.IndexByte(topic, '/'); i >= 0 {
			prefix = topic[:i]
		}
		mu.Lock()
		h, ok := handles[prefix]
		if !ok {
			h = prefixCounters{
				//lint:ignore obshot cold path: the handle is interned once per prefix; every later publish hits the local cache
				messages: obs.GetCounter("bus.topic." + prefix + ".messages"),
				//lint:ignore obshot cold path: the handle is interned once per prefix; every later publish hits the local cache
				bytes: obs.GetCounter("bus.topic." + prefix + ".bytes"),
			}
			handles[prefix] = h
		}
		mu.Unlock()
		h.messages.Inc()
		h.bytes.Add(int64(payloadBytes))
	}
}

// SubscriberCount returns how many subscriptions currently match topic.
func (b *Bus) SubscriberCount(topic string) int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	n := len(b.exact[topic])
	for _, sub := range b.wild {
		if Match(sub.pattern, topic) {
			n++
		}
	}
	return n
}

// Close shuts the bus: further operations fail with ErrClosed, every
// subscription leaves at once, and Subscribe's channels close as
// Unsubscribe closes them. Close waits for no handler; RespondContext
// and the scatters in flight hear of it on one bus-wide channel.
func (b *Bus) Close() {
	b.mu.Lock()
	subs := b.subs // nil once closed
	if !b.closed {
		close(b.done)
	}
	b.closed, b.subs, b.wild = true, nil, nil
	clear(b.exact)
	b.mu.Unlock()
	for sub, ch := range subs {
		if ch != nil {
			sub.calls.Wait()
			close(ch)
		}
	}
}
