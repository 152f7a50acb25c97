package bus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// The TCP wire format: a big-endian uint32 body length, then the body: a
// version byte, an op byte, a big-endian uint16 topic length, the topic,
// and the raw payload to the end of the body. A peer that speaks another
// version (or the newline JSON of earlier releases, whose first four bytes
// read as a length far over the limit) is refused.
const (
	frameVersion = 1
	frameHeader  = 4       // the body-length prefix
	bodyHeader   = 4       // version, op and topic length
	maxFrameBody = 4 << 20 // a longer body drops the connection
	maxPending   = 1 << 20 // while this much is unsent, a connWriter's writes wait or are refused
	tcpRoom      = 256     // the room a remote pattern plans for, and a Client subscriber channel's depth

	opPub byte = 1 // client → server: publish on the server's bus
	opSub byte = 2 // client → server: forward what matches a pattern
	opMsg byte = 3 // server → client: a forwarded message
)

// frame is one decoded wire frame.
type frame struct {
	op      byte
	topic   string // pub/msg topic or sub pattern
	payload []byte
}

// appendFrame appends one frame to dst; write checks the topic fits.
func appendFrame(dst []byte, op byte, topic string, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyHeader+len(topic)+len(payload)))
	dst = append(dst, frameVersion, op)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(topic)))
	dst = append(dst, topic...)
	return append(dst, payload...)
}

// parseFrame decodes one whole frame, prefix included. Frames from the
// network are untrusted: one that is truncated, has a bad prefix, version
// or topic length, an unknown op, or a topic (pattern, for sub) the bus
// would refuse is rejected here. The payload aliases b, and appendFrame
// re-encodes an accepted frame to b.
func parseFrame(b []byte) (frame, error) {
	if len(b) < frameHeader+bodyHeader {
		return frame{}, fmt.Errorf("bus: truncated frame of %d bytes", len(b))
	}
	body := b[frameHeader:]
	if n := binary.BigEndian.Uint32(b); n > maxFrameBody || int(n) != len(body) {
		return frame{}, fmt.Errorf("bus: %d-byte frame body under length prefix %x", len(body), b[:frameHeader])
	}
	end := bodyHeader + int(binary.BigEndian.Uint16(body[2:]))
	if body[0] != frameVersion || end > len(body) {
		return frame{}, fmt.Errorf("bus: frame version %d, topic end %d of %d", body[0], end, len(body))
	}
	f := frame{op: body[1], topic: string(body[bodyHeader:end]), payload: body[end:]}
	if f.op == opSub && ValidPattern(f.topic) || (f.op == opPub || f.op == opMsg) && ValidTopic(f.topic) {
		return f, nil
	}
	return frame{}, fmt.Errorf("bus: frame op %d with topic %q", f.op, f.topic)
}

// readFrame returns the next frame from r that parseFrame accepts. An
// error (a failed read, or a prefix over maxFrameBody) ends the
// connection. Each frame gets its own buffer, so payloads can be kept.
func readFrame(r *bufio.Reader) (frame, error) {
	for {
		prefix, err := r.Peek(frameHeader)
		if err != nil {
			return frame{}, err
		}
		n := binary.BigEndian.Uint32(prefix)
		if n > maxFrameBody {
			return frame{}, errors.New("bus: frame body over 4 MiB")
		}
		b := make([]byte, frameHeader+int(n))
		if _, err := io.ReadFull(r, b); err != nil {
			return frame{}, err
		}
		if f, err := parseFrame(b); err == nil {
			return f, nil
		}
	}
}

// TCP counters (no-ops until obs.Enable). writes ÷ frames_out is the share
// of frames that left in a write of their own; client.dropped sums what
// every Client's Dropped counts.
var (
	obsFramesOut     = obs.GetCounter("bus.tcp.frames_out")
	obsWrites        = obs.GetCounter("bus.tcp.writes")
	obsClientDropped = obs.GetCounter("bus.tcp.client.dropped")
)

// connWriter puts frames on one connection for any number of goroutines:
// a write appends to pending and kicks the writer goroutine, which sends
// all that is pending in one Write. Frames that pile up during a syscall
// leave together, a lone frame leaves as soon as the writer is free, and
// frames leave in the order their appends took mu.
type connWriter struct {
	w    io.Writer
	kick chan struct{} // one slot, never closed
	done chan struct{} // closed when the writer goroutine has exited

	mu      sync.Mutex
	room    sync.Cond // on mu: pending was taken, or err was set
	pending []byte    // guarded by mu
	err     error     // guarded by mu; the failed Write's error, or ErrClosed once closed
}

func newConnWriter(w io.Writer) *connWriter {
	cw := &connWriter{w: w, kick: make(chan struct{}, 1), done: make(chan struct{})}
	cw.room.L = &cw.mu
	go cw.run()
	return cw
}

// errBacklog refuses a frame that write was not to wait for.
var errBacklog = errors.New("bus: connection backlog full")

// write queues one frame. While maxPending bytes are unsent it waits, so
// a peer that stops reading slows its senders, or without wait refuses
// the frame with errBacklog. It fails once closed or after a failed Write.
func (cw *connWriter) write(op byte, topic string, payload []byte, wait bool) error {
	if len(topic) > math.MaxUint16 {
		return fmt.Errorf("bus: topic of %d bytes does not fit a frame", len(topic))
	}
	cw.mu.Lock()
	for wait && cw.err == nil && len(cw.pending) >= maxPending {
		cw.room.Wait()
	}
	err := cw.err
	if err == nil && len(cw.pending) >= maxPending {
		err = errBacklog
	}
	if err == nil {
		cw.pending = appendFrame(cw.pending, op, topic, payload)
		obsFramesOut.Inc()
	}
	cw.mu.Unlock()
	cw.nudge()
	return err
}

// nudge wakes the writer unless a kick is already waiting for it.
func (cw *connWriter) nudge() {
	select {
	case cw.kick <- struct{}{}:
	default:
	}
}

// run is the writer goroutine; two buffers take turns on the wire.
func (cw *connWriter) run() {
	defer close(cw.done)
	var spare []byte
	for range cw.kick {
		cw.mu.Lock()
		buf, closed := cw.pending, cw.err != nil
		cw.pending = spare[:0]
		cw.room.Broadcast()
		cw.mu.Unlock()
		if len(buf) > 0 {
			obsWrites.Inc()
			if _, err := cw.w.Write(buf); err != nil {
				cw.mu.Lock()
				if cw.err == nil {
					cw.err = err
				}
				cw.room.Broadcast()
				cw.mu.Unlock()
				return
			}
		}
		if closed {
			return
		}
		spare = buf
	}
}

// close refuses further writes, lets the writer send what it accepted,
// and joins it. Safe to call more than once.
func (cw *connWriter) close() {
	cw.mu.Lock()
	cw.err = ErrClosed
	cw.room.Broadcast()
	cw.mu.Unlock()
	cw.nudge()
	<-cw.done
}

// subscribeRemote registers a connection's pattern on b as a function
// that offers each message to cw without waiting: a frame the writer
// refuses is the subscription's drop, so Publish never waits for a peer.
func subscribeRemote(b *Bus, cw *connWriter, pattern string) (*Subscription, error) {
	offer := func(msg Message) bool { return cw.write(opMsg, msg.Topic, msg.Payload, false) == nil }
	return b.add(&Subscription{fn: offer, room: tcpRoom}, pattern, nil)
}

// Server bridges a Bus onto a TCP listener so nodes in other processes
// can participate (the cmd/sensedroid-broker transport).
type Server struct {
	bus *Bus
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup
}

// NewServer starts serving the bus on addr (e.g. "127.0.0.1:0"). The
// returned server is already accepting.
func NewServer(b *Bus, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: listen: %w", err)
	}
	s := &Server{bus: b, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//lint:ignore errcheck closing a just-accepted conn during shutdown; nothing to report the error to
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	cw := newConnWriter(conn)
	var subs []*Subscription
	defer func() {
		for _, sub := range subs {
			sub.Unsubscribe()
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		//lint:ignore errcheck teardown after the serve loop exited; the close error has no consumer
		_ = conn.Close()
		cw.close() // the conn is shut, so this only joins the writer
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		switch f.op {
		case opPub:
			//lint:ignore errcheck remote publishes are fire-and-forget; an invalid topic or closed bus is not reportable over this one-way frame
			_ = s.bus.Publish(f.topic, f.payload)
		case opSub:
			if sub, err := subscribeRemote(s.bus, cw, f.topic); err == nil {
				subs = append(subs, sub)
			}
		}
	}
}

// Close stops accepting and drops all connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	//lint:ignore errcheck shutdown path; the listener error has no consumer
	_ = s.ln.Close()
	for conn := range s.conns {
		//lint:ignore errcheck shutdown path; per-conn close errors have no consumer
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Client is a TCP participant on a remote bus.
type Client struct {
	conn     net.Conn
	cw       *connWriter
	readDone chan struct{} // closed when readLoop exits
	dropped  atomic.Int64

	mu   sync.Mutex
	subs []chan Message // guarded by mu
}

// Dial connects to a bus server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: dial: %w", err)
	}
	c := &Client{conn: conn, cw: newConnWriter(conn), readDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// readLoop delivers msg frames until the connection fails, then drops it:
// Publish and Subscribe return ErrClosed and every subscriber channel closes.
func (c *Client) readLoop() {
	defer close(c.readDone)
	defer func() {
		c.mu.Lock()
		for _, ch := range c.subs {
			close(ch)
		}
		c.subs = nil
		c.mu.Unlock()
	}()
	defer c.cw.close()
	defer c.conn.Close() // first, so the writer's last pass cannot block
	r := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		if f.op != opMsg {
			continue
		}
		msg := Message{Topic: f.topic, Payload: f.payload}
		c.mu.Lock()
		for _, ch := range c.subs {
			select {
			case ch <- msg:
			default:
				c.dropped.Add(1)
				obsClientDropped.Inc()
			}
		}
		c.mu.Unlock()
	}
}

// Dropped returns how many received messages a full subscriber channel
// discarded: like the bus, the read loop never blocks on a slow consumer.
func (c *Client) Dropped() int64 { return c.dropped.Load() }

// Publish queues a message for the remote bus; Close still sends it.
func (c *Client) Publish(topic string, payload []byte) error {
	if !ValidTopic(topic) {
		return fmt.Errorf("bus: invalid topic %q", topic)
	}
	return c.cw.write(opPub, topic, payload, true)
}

// Subscribe asks the server for a pattern; matching messages arrive on the
// returned channel. All of the client's subscriptions share one TCP
// stream, so each channel receives every subscribed message that matches
// any pattern; callers filter with Match if they need exactness.
func (c *Client) Subscribe(pattern string) (<-chan Message, error) {
	if !ValidPattern(pattern) {
		return nil, fmt.Errorf("bus: invalid pattern %q", pattern)
	}
	c.mu.Lock() // so the read loop cannot close subs between write and append
	defer c.mu.Unlock()
	if err := c.cw.write(opSub, pattern, nil, true); err != nil {
		return nil, err
	}
	ch := make(chan Message, tcpRoom)
	c.subs = append(c.subs, ch)
	return ch, nil
}

// Close sends every frame already queued, drops the connection and joins
// both goroutines, so every subscriber channel is closed. Safe to call
// more than once, and after the server already dropped the connection.
func (c *Client) Close() error {
	c.cw.close()
	err := c.conn.Close()
	<-c.readDone
	if errors.Is(err, net.ErrClosed) {
		return nil // the read loop, or an earlier Close, got there first
	}
	return err
}
