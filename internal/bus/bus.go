// Package bus is SenseDroid's communication layer: a topic-based
// publish/subscribe message bus with MQTT-style wildcard matching, a
// request/reply helper, and (tcp.go) a TCP transport so brokers and nodes
// can also run as separate processes. The paper's middleware "provides
// libraries and APIs for communication, service discovery, and
// collaboration … for different network topologies"; pub/sub over a broker
// covers client-server, and peers subscribing to each other's topics
// covers peer-to-peer.
package bus

import (
	"errors"
	"fmt"
	"log"
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
		log.Printf("bus: subscriber %q buffer full; dropping messages (see bus.deliver.dropped metric and Subscription.Dropped; this warning is logged once)", s.pattern)
	}
}

// deliver hands msg to the subscriber without blocking: a full buffer
// counts a drop instead.
func (s *Subscription) deliver(msg Message) {
	select {
	case s.ch <- msg:
		obsDelivered.Inc()
	default:
		s.noteDrop()
	}
}

// Message is one published datagram.
type Message struct {
	Topic   string
	Payload []byte
}

// Hook observes every publish (for byte accounting / energy metering).
type Hook func(topic string, payloadBytes int)

// Subscription receives matching messages on C until Unsubscribe is
// called. Messages that would overflow the buffer are counted as dropped
// rather than blocking the publisher.
type Subscription struct {
	C       <-chan Message
	pattern string
	id      uint64
	bus     *Bus
	ch      chan Message
	dropped atomic.Int64
}

// Dropped returns how many messages were discarded due to a full buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Unsubscribe detaches the subscription and closes its channel.
func (s *Subscription) Unsubscribe() { s.bus.unsubscribe(s) }

// Interceptor sits between Publish and fan-out, modelling the transport
// under the bus: return (false, nil) to drop the message silently (the
// publish is still counted and hooks still run — the radio spent the
// energy), or a non-nil error to fail the publish (nothing delivered).
// The chaos harness uses this to route bus traffic through a
// netsim.Network with an active fault plan.
type Interceptor func(msg Message) (deliver bool, err error)

// Bus is an in-process pub/sub broker, safe for concurrent use.
//
// Fan-out is indexed, so a publish costs the same whatever the roster:
// a wildcard-free pattern matches exactly the topic it spells, so those
// subscriptions sit in a map keyed by that topic, and only the patterns
// with a "+" or "#" segment are scanned. Every in-process subscriber
// (node command topics, reply topics, responders, broker register) is
// wildcard-free; wildcards arrive from TCP clients, one per connection.
// A deployment with many wildcard subscribers is the reason to revisit
// this (DESIGN.md §2).
type Bus struct {
	mu          sync.RWMutex
	subs        map[uint64]*Subscription   // guarded by mu
	exact       map[string][]*Subscription // guarded by mu; wildcard-free patterns, by the one topic each matches
	wild        []*Subscription            // guarded by mu; patterns with a "+" or "#" segment
	nextID      uint64                     // guarded by mu
	hooks       []Hook                     // guarded by mu
	closed      bool                       // guarded by mu
	interceptor atomic.Pointer[Interceptor]
}

// ErrClosed reports use of a closed bus.
var ErrClosed = errors.New("bus: closed")

// New returns an empty bus.
func New() *Bus {
	return &Bus{
		subs:  make(map[uint64]*Subscription),
		exact: make(map[string][]*Subscription),
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
// itself and nothing else.
func ValidTopic(topic string) bool {
	for more := true; more; {
		var seg string
		seg, topic, more = strings.Cut(topic, "/")
		if seg == "" || seg == "+" || seg == "#" {
			return false
		}
	}
	return true
}

// ValidPattern reports whether a subscription pattern is well formed:
// non-empty segments, "#" only in final position.
func ValidPattern(pattern string) bool {
	for more := true; more; {
		var seg string
		seg, pattern, more = strings.Cut(pattern, "/")
		if seg == "" || (seg == "#" && more) {
			return false
		}
	}
	return true
}

// Match reports whether a concrete topic matches a pattern. "+" matches
// exactly one segment; a trailing "#" matches any remainder (including
// none). It walks both strings a segment at a time and allocates nothing:
// every publish runs it once per wildcard subscription.
func Match(pattern, topic string) bool {
	pMore, tMore := true, true
	for pMore {
		var p, t string
		p, pattern, pMore = strings.Cut(pattern, "/")
		if p == "#" {
			return true
		}
		if !tMore {
			return false
		}
		t, topic, tMore = strings.Cut(topic, "/")
		if p != "+" && p != t {
			return false
		}
	}
	return !tMore
}

// Subscribe registers interest in a pattern with the given channel buffer
// (min 1).
func (b *Bus) Subscribe(pattern string, buffer int) (*Subscription, error) {
	if !ValidPattern(pattern) {
		return nil, fmt.Errorf("bus: invalid pattern %q", pattern)
	}
	if buffer < 1 {
		buffer = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextID++
	ch := make(chan Message, buffer)
	sub := &Subscription{C: ch, ch: ch, pattern: pattern, id: b.nextID, bus: b}
	b.subs[sub.id] = sub
	// A pattern that is itself a publishable topic has no wildcard.
	if ValidTopic(pattern) {
		b.exact[pattern] = append(b.exact[pattern], sub)
	} else {
		b.wild = append(b.wild, sub)
	}
	return sub, nil
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s.id]; !ok {
		return
	}
	delete(b.subs, s.id)
	if ValidTopic(s.pattern) {
		// Reply topics are unique per request: a key left behind empty
		// would be a leak, so the last subscription out deletes it.
		if rest := removeSub(b.exact[s.pattern], s); len(rest) > 0 {
			b.exact[s.pattern] = rest
		} else {
			delete(b.exact, s.pattern)
		}
	} else {
		b.wild = removeSub(b.wild, s)
	}
	close(s.ch)
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

// Publish delivers the message to every matching subscription. It never
// blocks: a subscriber with a full buffer has the message counted as
// dropped instead.
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
	if deliver {
		msg := Message{Topic: topic, Payload: payload}
		for _, sub := range b.exact[topic] {
			sub.deliver(msg)
		}
		for _, sub := range b.wild {
			if Match(sub.pattern, topic) {
				sub.deliver(msg)
			}
		}
	}
	hooks := b.hooks
	b.mu.RUnlock()
	obsPublished.Inc()
	obsPublishBytes.Add(int64(len(payload)))
	for _, h := range hooks {
		h(topic, len(payload))
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

// Close shuts the bus; all subscription channels are closed and further
// operations fail with ErrClosed.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
	}
	clear(b.exact)
	b.wild = nil
}
