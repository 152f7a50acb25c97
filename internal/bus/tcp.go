package bus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// frame is the newline-delimited JSON wire format of the TCP transport.
type frame struct {
	Op      string `json:"op"`                // "pub", "sub", "msg"
	Topic   string `json:"topic,omitempty"`   // pub/msg topic or sub pattern
	Payload []byte `json:"payload,omitempty"` // base64 via encoding/json
}

// parseFrame decodes and validates one wire line. Frames from the
// network are untrusted: a frame with an unknown op, a pub/msg frame
// with an invalid topic, or a sub frame with an invalid pattern is
// rejected here, before any of it reaches the bus. The encode side is
// plain encoding/json (see the json.Encoder writers below), so
// parseFrame(json.Marshal(f)) round-trips any frame it accepts.
func parseFrame(line []byte) (frame, error) {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return frame{}, fmt.Errorf("bus: bad frame: %w", err)
	}
	switch f.Op {
	case "pub", "msg":
		if !ValidTopic(f.Topic) {
			return frame{}, fmt.Errorf("bus: frame op %q with invalid topic %q", f.Op, f.Topic)
		}
	case "sub":
		if !ValidPattern(f.Topic) {
			return frame{}, fmt.Errorf("bus: sub frame with invalid pattern %q", f.Topic)
		}
	default:
		return frame{}, fmt.Errorf("bus: unknown frame op %q", f.Op)
	}
	return f, nil
}

// frameWriter puts frames on one connection for any number of
// goroutines. It buffers, so that a run of frames can leave in one write.
type frameWriter struct {
	mu  sync.Mutex
	buf *bufio.Writer // guarded by mu
	enc *json.Encoder // guarded by mu; encodes into buf
}

func newFrameWriter(w io.Writer) *frameWriter {
	buf := bufio.NewWriter(w)
	return &frameWriter{buf: buf, enc: json.NewEncoder(buf)}
}

// write queues f behind the frames already buffered and, unless the
// caller has more to follow at once, flushes the lot.
func (fw *frameWriter) write(f frame, more bool) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.enc.Encode(f); err != nil {
		return err
	}
	if more {
		return nil
	}
	return fw.buf.Flush()
}

// forward writes a subscription's messages to fw as msg frames until the
// subscription closes or a write fails. It flushes whenever its channel
// is empty, so a burst (a scatter wave bound for the nodes behind one
// connection) shares writes, while the last frame queued is never held
// back: a frame is left in the buffer only when another is already
// waiting behind it, and that one's write flushes both.
func forward(fw *frameWriter, sub *Subscription) {
	for msg := range sub.C {
		if err := fw.write(frame{Op: "msg", Topic: msg.Topic, Payload: msg.Payload}, len(sub.C) > 0); err != nil {
			return
		}
	}
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
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		//lint:ignore errcheck teardown after the serve loop exited; the close error has no consumer
		_ = conn.Close()
	}()
	var subs []*Subscription
	defer func() {
		for _, sub := range subs {
			sub.Unsubscribe()
		}
	}()
	fw := newFrameWriter(conn)
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for scanner.Scan() {
		f, err := parseFrame(scanner.Bytes())
		if err != nil {
			continue // unparseable or invalid frames from a peer are dropped
		}
		switch f.Op {
		case "pub":
			//lint:ignore errcheck remote publishes are fire-and-forget; an invalid topic or closed bus is not reportable over this one-way frame
			_ = s.bus.Publish(f.Topic, f.Payload)
		case "sub":
			sub, err := s.bus.Subscribe(f.Topic, 256)
			if err != nil {
				continue
			}
			subs = append(subs, sub)
			// The forwarder joins the server's WaitGroup: Close must not
			// return while any goroutine still writes to a conn. It exits
			// when serveConn's teardown unsubscribes (closing sub.C) or
			// the first failed write reports the conn gone.
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				forward(fw, sub)
			}()
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

// obsClientDropped counts messages a Client discarded because a
// subscriber channel was full (no-op until obs.Enable); the per-client
// count is Client.Dropped.
var obsClientDropped = obs.GetCounter("bus.tcp.client.dropped")

// Client is a TCP participant on a remote bus.
type Client struct {
	conn      net.Conn
	enc       *json.Encoder
	readDone  chan struct{} // closed when readLoop exits
	closeOnce sync.Once
	dropped   atomic.Int64

	mu     sync.Mutex
	subs   []chan Message // guarded by mu
	closed bool           // guarded by mu
}

// Dial connects to a bus server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: dial: %w", err)
	}
	c := &Client{conn: conn, enc: json.NewEncoder(conn), readDone: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	scanner := bufio.NewScanner(c.conn)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for scanner.Scan() {
		f, err := parseFrame(scanner.Bytes())
		if err != nil || f.Op != "msg" {
			continue
		}
		msg := Message{Topic: f.Topic, Payload: f.Payload}
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
	// Connection gone: close subscriber channels.
	c.mu.Lock()
	for _, ch := range c.subs {
		close(ch)
	}
	c.subs = nil
	c.closed = true
	c.mu.Unlock()
}

// Dropped returns how many received messages were discarded because a
// subscriber channel was full: like the bus, the read loop never blocks
// on a slow consumer.
func (c *Client) Dropped() int64 { return c.dropped.Load() }

// Publish sends a message to the remote bus.
func (c *Client) Publish(topic string, payload []byte) error {
	if !ValidTopic(topic) {
		return fmt.Errorf("bus: invalid topic %q", topic)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.enc.Encode(frame{Op: "pub", Topic: topic, Payload: payload})
}

// Subscribe asks the server for a pattern; matching messages arrive on the
// returned channel. All of the client's subscriptions share one TCP
// stream, so each channel receives every subscribed message that matches
// any pattern; callers filter with Match if they need exactness.
func (c *Client) Subscribe(pattern string) (<-chan Message, error) {
	if !ValidPattern(pattern) {
		return nil, fmt.Errorf("bus: invalid pattern %q", pattern)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if err := c.enc.Encode(frame{Op: "sub", Topic: pattern}); err != nil {
		return nil, err
	}
	ch := make(chan Message, 256)
	c.subs = append(c.subs, ch)
	return ch, nil
}

// Close drops the connection and joins the read loop: when Close
// returns, the readLoop goroutine has exited and every subscriber
// channel is closed. Safe to call more than once, and also after the
// server side already dropped the connection (the socket still needs
// closing on this side either way).
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.conn.Close() })
	<-c.readDone
	return err
}
