package bus

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/testutil"
)

// Failure-path coverage for the TCP transport and the request/reply
// helper: dial failures, request timeouts, oversized payloads, and a
// server closing mid-request. Every test that starts transport goroutines
// runs under the testutil.CheckGoroutines leak guard.

func TestDialFailureClosedPort(t *testing.T) {
	// Grab a port that is guaranteed closed: listen, note the address,
	// close the listener, then dial it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

func TestTCPOversizedPayloadKillsConnection(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ch, err := cli.Subscribe("big/#")
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: a normal payload round-trips.
	if err := cli.Publish("big/ok", []byte("fine")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ch:
		if string(msg.Payload) != "fine" {
			t.Fatalf("payload %q", msg.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("normal payload not delivered")
	}
	// A frame past the server's 4 MiB scanner limit makes the server drop
	// the connection (the documented failure mode for oversized payloads);
	// the client's subscription channels close when the read loop ends.
	// The server may hang up while the client is still writing the frame,
	// so a write error here is that same teardown seen from the sending
	// side, not a failure; the channel closing is what is required.
	if err := cli.Publish("big/huge", make([]byte, 5<<20)); err != nil {
		t.Logf("oversized publish: %v (connection dropped mid-write)", err)
	}
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("oversized payload was delivered")
		}
		// Channel closed: connection torn down as expected.
	case <-time.After(5 * time.Second):
		t.Fatal("connection not torn down after oversized payload")
	}
}

func TestTCPServerCloseClosesClientSubscriptions(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ch, err := cli.Subscribe("x/#")
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	b.Close()
	select {
	case _, ok := <-ch:
		if ok {
			t.Fatal("unexpected message after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel not closed after server close")
	}
	// After the read loop has ended the client refuses further use.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cli.Subscribe("y/#"); err != nil {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Subscribe error = %v, want ErrClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Subscribe still succeeding after connection loss")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cli.Publish("y/t", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Publish after close = %v, want ErrClosed", err)
	}
}

func TestRequestBusClosedMidRequest(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	// A responder that never answers, so Request parks on its reply
	// channel until Close tears the bus down under it.
	sub, err := b.Subscribe("svc/slow", 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		<-sub.C   // swallow the request
		b.Close() // server goes away mid-request
	}()
	err = requestWithin(b, "svc/slow", struct{}{}, nil, 10*time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Request during close = %v, want ErrClosed", err)
	}
}

func TestRequestTimeoutNoResponder(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	start := time.Now()
	err := requestWithin(b, "svc/absent", struct{}{}, nil, 50*time.Millisecond)
	if err == nil {
		t.Fatal("Request with no responder succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not fire promptly")
	}
}

func TestRequestUnmarshalableBody(t *testing.T) {
	b := New()
	defer b.Close()
	if err := requestWithin(b, "svc/enc", make(chan int), nil, time.Second); err == nil {
		t.Fatal("Request with unmarshalable body succeeded")
	}
}

func TestRespondIgnoresMalformedEnvelopes(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	served := make(chan string, 1)
	go func() {
		_ = RespondContext(context.Background(), b, "svc/echo", func(topic string, body []byte) (any, error) {
			served <- string(body)
			return map[string]string{"ok": "yes"}, nil
		})
	}()
	// Give Respond a moment to subscribe.
	time.Sleep(20 * time.Millisecond)
	// Garbage that is not an envelope must be skipped without killing the
	// responder loop...
	if err := b.Publish("svc/echo", []byte("not json at all")); err != nil {
		t.Fatal(err)
	}
	// ...so a well-formed request afterwards still gets served.
	var out map[string]string
	if err := requestWithin(b, "svc/echo", "hello", &out, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if out["ok"] != "yes" {
		t.Fatalf("reply = %v", out)
	}
	select {
	case body := <-served:
		if body != `"hello"` {
			t.Fatalf("served body = %q", body)
		}
	default:
		t.Fatal("handler never ran")
	}
}

func TestTCPPublishInvalidAfterDial(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Publish("bad//topic", []byte("x")); err == nil {
		t.Fatal("invalid topic accepted")
	}
	if _, err := cli.Subscribe("bad//+/pattern"); err == nil {
		t.Fatal("invalid pattern accepted")
	}
}

// --- Leak regressions -------------------------------------------------------
//
// Each of these pins a goroutine leak that once existed: the test fails
// under testutil.CheckGoroutines if the fix regresses.

// TestServerCloseJoinsForwarders pins that Server.Close waits for the
// per-subscription forwarder goroutines. Before the forwarders joined the
// server's WaitGroup, Close could return while they still wrote to
// half-dead connections.
func TestServerCloseJoinsForwarders(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 4; i++ {
		cli, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cli)
		ch, err := cli.Subscribe(fmt.Sprintf("leak/%d/#", i))
		if err != nil {
			t.Fatal(err)
		}
		// Round-trip once so the server has registered the sub (and its
		// forwarder goroutine) before we tear everything down.
		if err := cli.Publish(fmt.Sprintf("leak/%d/ping", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("subscription never became live")
		}
	}
	srv.Close()
	b.Close()
	for _, cli := range clients {
		if err := cli.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("client close: %v", err)
		}
	}
}

// TestClientCloseJoinsReadLoop pins that Client.Close does not return
// until the readLoop goroutine has exited — including the second Close
// after the server already dropped the connection.
func TestClientCloseJoinsReadLoop(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	b.Close()
	// Close after the remote end is gone, twice: both calls must return
	// (closeOnce) and the read loop must be joined by the first.
	if err := cli.Close(); err != nil {
		t.Logf("first close: %v", err) // socket may already be dead; only the join matters
	}
	if err := cli.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	select {
	case <-cli.readDone:
	default:
		t.Fatal("Close returned before readLoop exited")
	}
}

// TestRequestCancelReleasesResources pins that an abandoned request
// leaves nothing behind: the old implementation parked a time.After
// timer (and with it the reply subscription) for the full timeout even
// after the caller gave up.
func TestRequestCancelReleasesResources(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RequestContext(ctx, b, "svc/never", struct{}{}, nil)
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RequestContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return")
	}
}

// TestRespondContextStops pins the responder shutdown path that Respond
// never had: cancelling the context stops the loop even while the bus
// stays open.
func TestRespondContextStops(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RespondContext(ctx, b, "svc/stoppable", func(topic string, body []byte) (any, error) {
			return "ok", nil
		})
	}()
	// Serve one request to prove the responder is live. The responder
	// subscribes asynchronously, so retry short requests until one lands.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var out string
		if err := requestWithin(b, "svc/stoppable", "hi", &out, 100*time.Millisecond); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("responder never served a request")
		}
	}
	// ...then stop it without touching the bus.
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RespondContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled responder did not stop")
	}
}

// --- Scatter over TCP, frame coalescing, client drops ----------------------

// tcpNodes hosts n node identities "<host>/n<i>" of NanoCloud "nc0" behind
// one client connection, answering every command with the node's ID. With
// dieOnCommand it drops the connection at the first command instead.
func tcpNodes(t *testing.T, srv *Server, b *Bus, host string, n int, dieOnCommand bool) (ids []string) {
	t.Helper()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := cli.Subscribe(NodeCommandPattern("nc0", host))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for msg := range cmds {
			if dieOnCommand {
				//lint:ignore errcheck the test kills the connection on purpose; the close error is not the point
				_ = cli.conn.Close()
				continue // cmds closes once the read loop notices
			}
			var env envelope
			if err := json.Unmarshal(msg.Payload, &env); err != nil || env.ReplyTo == "" {
				continue
			}
			id := strings.TrimSuffix(strings.TrimPrefix(msg.Topic, "nc0/node/"), "/measure")
			raw, err := json.Marshal(id)
			if err != nil {
				continue
			}
			if err := cli.Publish(env.ReplyTo, raw); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() {
		//lint:ignore errcheck teardown; a connection the test already killed reports net.ErrClosed
		_ = cli.Close()
		<-done
	})
	for i := 0; i < n; i++ {
		ids = append(ids, fmt.Sprintf("%s/n%d", host, i))
	}
	waitSubscribed(t, b, NodeMeasureTopic("nc0", ids[0]))
	return ids
}

// One wave spans more nodes than either connection hosts: its requests
// fan out over both sockets and every reply finds its slot.
func TestScatterWaveSpansTCPConnections(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ids := append(tcpNodes(t, srv, b, "w0", 5, false), tcpNodes(t, srv, b, "w1", 5, false)...)
	if len(ids) > scatterWidth {
		t.Fatalf("%d nodes do not fit one wave of %d", len(ids), scatterWidth)
	}
	for round := 0; round < 20; round++ {
		calls, outs := make([]Call, len(ids)), make([]string, len(ids))
		for i, id := range ids {
			calls[i] = NewCall(NodeMeasureTopic("nc0", id), id, struct{}{}, &outs[i])
		}
		Scatter(context.Background(), b, "nc0", calls, RetryPolicy{Attempts: 1, AttemptTimeout: 10 * time.Second})
		for i, id := range ids {
			if calls[i].Err != nil || outs[i] != id {
				t.Fatalf("round %d, node %s: err %v, reply %q", round, id, calls[i].Err, outs[i])
			}
		}
	}
}

// A connection that dies mid-wave costs its own nodes their attempts and
// nobody else anything: the wave settles at the attempt deadline, the
// other connection's replies are kept, and nothing leaks.
func TestScatterTCPConnectionKilledMidWave(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	alive := tcpNodes(t, srv, b, "w0", 4, false)
	dead := tcpNodes(t, srv, b, "w1", 4, true)
	ids := append(append([]string(nil), alive...), dead...)
	calls, outs := make([]Call, len(ids)), make([]string, len(ids))
	for i, id := range ids {
		calls[i] = NewCall(NodeMeasureTopic("nc0", id), id, struct{}{}, &outs[i])
	}
	keys0, subs0, _ := indexSize(t, b)
	Scatter(context.Background(), b, "nc0", calls, RetryPolicy{Attempts: 2, AttemptTimeout: 150 * time.Millisecond, BaseBackoff: time.Millisecond})
	for i, id := range ids {
		if i < len(alive) {
			if calls[i].Err != nil || outs[i] != id {
				t.Errorf("node %s on the live connection: err %v, reply %q", id, calls[i].Err, outs[i])
			}
			continue
		}
		if !errors.Is(calls[i].Err, context.DeadlineExceeded) || calls[i].Attempts != 2 {
			t.Errorf("node %s on the dead connection: %v after %d attempt(s), want 2 timed-out attempts", id, calls[i].Err, calls[i].Attempts)
		}
	}
	if keys, subs, _ := indexSize(t, b); keys != keys0 || subs != subs0 {
		t.Errorf("exact index after the wave: %d keys, %d subscriptions; before %d, %d", keys, subs, keys0, subs0)
	}
}

// countingWriter records what each Write call carried. delay makes it a
// slow socket: each Write sleeps that long first. A non-nil next also
// receives every write, and fail fails every write instead.
type countingWriter struct {
	delay time.Duration
	next  io.Writer
	fail  error

	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.fail != nil {
		return 0, w.fail
	}
	w.buf.Write(p)
	if w.next != nil {
		return w.next.Write(p)
	}
	return len(p), nil
}

// frames parses everything written so far.
func (w *countingWriter) frames(t *testing.T) (writes int, frames []frame) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for b := w.buf.Bytes(); len(b) > 0; {
		if len(b) < frameHeader {
			t.Fatalf("wrote a torn length prefix %x", b)
		}
		n := int(binary.BigEndian.Uint32(b))
		if len(b) < frameHeader+n {
			t.Fatalf("wrote a torn frame %x", b)
		}
		f, err := parseFrame(b[:frameHeader+n])
		if err != nil {
			t.Fatalf("wrote an unparseable frame %x: %v", b[:frameHeader+n], err)
		}
		frames = append(frames, f)
		b = b[frameHeader+n:]
	}
	return w.writes, frames
}

// A queue of N frames leaves a slow writer in fewer than N/4 writes, and
// a frame with nothing queued behind it is on the wire without waiting
// for a successor, a timer or the subscription's end.
func TestForwardCoalescesQueuedFramesAndStrandsNone(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	const n = 100
	sub, err := b.Subscribe("burst/#", n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := b.Publish("burst/"+strconv.Itoa(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w := &countingWriter{delay: time.Millisecond}
	cw := newConnWriter(w)
	defer cw.close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		forward(cw, sub)
	}()
	// The forwarder stays parked on the open subscription: the frames must
	// arrive all the same.
	arrived := func(want int) (writes int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			writes, frames := w.frames(t)
			if len(frames) == want {
				for i, f := range frames {
					if f.op != opMsg || f.topic != "burst/"+strconv.Itoa(i) || len(f.payload) != 1 || f.payload[0] != byte(i) {
						t.Fatalf("frame %d is %+v", i, f)
					}
				}
				return writes
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d frames written with the subscription still open", len(frames), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if writes := arrived(n); writes >= n/4 {
		t.Errorf("%d queued frames took %d writes", n, writes)
	}
	// One more, alone: it must not sit in the buffer.
	if err := b.Publish("burst/"+strconv.Itoa(n), []byte{byte(n)}); err != nil {
		t.Fatal(err)
	}
	arrived(n + 1)
	sub.Unsubscribe()
	<-done
}

// dialSlow is Dial with every write of the client's connection going
// through w (whose next it sets), so a test can slow and count them.
func dialSlow(t *testing.T, addr string, w *countingWriter) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	w.next = conn
	c := &Client{conn: conn, cw: newConnWriter(w), readDone: make(chan struct{})}
	go c.readLoop()
	return c
}

// The client end coalesces too: publishes that pile up behind a slow
// write leave together, and a lone publish is not stranded.
func TestClientPublishCoalescesAndStrandsNone(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 100
	sink, err := b.Subscribe("up/#", n+1)
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWriter{delay: time.Millisecond}
	cli := dialSlow(t, srv.Addr(), w)
	defer cli.Close()
	receive := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			select {
			case msg := <-sink.C:
				if msg.Topic != "up/"+strconv.Itoa(i) {
					t.Fatalf("message %d arrived on %q", i, msg.Topic)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("message %d of %d never arrived", i, to)
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := cli.Publish("up/"+strconv.Itoa(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	receive(0, n)
	if writes, _ := w.frames(t); writes >= n/4 {
		t.Errorf("%d publishes took %d writes", n, writes)
	}
	if err := cli.Publish("up/"+strconv.Itoa(n), nil); err != nil {
		t.Fatal(err)
	}
	receive(n, n+1)
}

// Eight goroutines publish while Close runs. Nothing panics; a publish
// that starts after Close has returned gets ErrClosed; and every publish
// that returned nil reaches the server's subscriber, each goroutine's in
// the order it sent them, because Close sends what it accepted.
func TestClientPublishRacingClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const publishers, most = 8, 2000
	sink, err := b.Subscribe("race/#", publishers*most)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var (
		closed   atomic.Bool
		sent     atomic.Int64
		finished sync.WaitGroup
		accepted [publishers]int
	)
	finished.Add(publishers)
	for g := 0; g < publishers; g++ {
		go func() {
			defer finished.Done()
			topic := "race/" + strconv.Itoa(g)
			for seq, after := 0, 0; seq < most && after < 10; seq++ {
				wasClosed := closed.Load()
				err := cli.Publish(topic, []byte(strconv.Itoa(seq)))
				switch {
				case err == nil && wasClosed:
					t.Errorf("publisher %d: publish %d accepted after Close returned", g, seq)
					return
				case err == nil:
					accepted[g]++
					sent.Add(1)
				case !errors.Is(err, ErrClosed):
					t.Errorf("publisher %d: publish %d: %v, want ErrClosed", g, seq, err)
					return
				default:
					after++
				}
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); sent.Load() < 10*publishers && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	finished.Wait()
	t.Logf("accepted per publisher: %v", accepted)
	total := 0
	for _, n := range accepted {
		total += n
	}
	next := [publishers]int{}
	for i := 0; i < total; i++ {
		select {
		case msg := <-sink.C:
			g, err := strconv.Atoi(strings.TrimPrefix(msg.Topic, "race/"))
			if err != nil {
				t.Fatalf("message on %q", msg.Topic)
			}
			if want := strconv.Itoa(next[g]); string(msg.Payload) != want {
				t.Fatalf("publisher %d: message %q arrived where %s was due", g, msg.Payload, want)
			}
			next[g]++
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d accepted publishes reached the server (per publisher %v of %v)", i, total, next, accepted)
		}
	}
}

// A write that fails fails the writer: the frame after it is refused with
// that error, nothing is written again, and close still returns. Over
// TCP, a client whose server hangs up starts refusing publishes, and
// keeps refusing them.
func TestPublishFailsAfterTheConnectionFails(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := errors.New("peer hung up")
	w := &countingWriter{fail: boom}
	cw := newConnWriter(w)
	if err := cw.write(opPub, "a/b", nil); err != nil {
		t.Fatalf("first write: %v", err)
	}
	<-cw.done // the writer exits on the failed Write
	if err := cw.write(opPub, "a/b", nil); !errors.Is(err, boom) {
		t.Fatalf("write after a failed Write: %v, want %v", err, boom)
	}
	cw.close()
	if writes, _ := w.frames(t); writes != 1 {
		t.Fatalf("%d Write calls, want 1", writes)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close() // the server hangs up
	deadline := time.Now().Add(5 * time.Second)
	for cli.Publish("a/b", []byte("x")) == nil {
		if time.Now().After(deadline) {
			t.Fatal("publishes still accepted 5 s after the server hung up")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if err := cli.Publish("a/b", []byte("x")); err == nil {
			t.Fatal("a publish was accepted after one was refused")
		}
	}
}

// bus.tcp.frames_out and bus.tcp.writes count what a connWriter queued
// and how many writes carried it; disabled, a queued frame allocates
// nothing.
func TestConnWriterCounters(t *testing.T) {
	testutil.CheckGoroutines(t)
	payload := make([]byte, 64)
	cw := newConnWriter(io.Discard)
	for i := 0; i < 10; i++ {
		if err := cw.write(opPub, "a/b", payload); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := cw.write(opPub, "a/b", payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a queued frame allocates %v times with obs disabled", allocs)
	}
	cw.close()

	obs.Enable()
	defer obs.Disable()
	frames0, writes0 := obsFramesOut.Value(), obsWrites.Value()
	w := &countingWriter{delay: time.Millisecond}
	cw = newConnWriter(w)
	const n = 50
	for i := 0; i < n; i++ {
		if err := cw.write(opPub, "a/b", payload); err != nil {
			t.Fatal(err)
		}
	}
	cw.close()
	writes, frames := w.frames(t)
	if len(frames) != n || obsFramesOut.Value()-frames0 != n {
		t.Errorf("%d frames written, bus.tcp.frames_out advanced by %d; want %d", len(frames), obsFramesOut.Value()-frames0, n)
	}
	if got := obsWrites.Value() - writes0; got != int64(writes) {
		t.Errorf("bus.tcp.writes advanced by %d over %d writes", got, writes)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	payload := []byte(`{"nodeId":"w0/n17","gridIdx":517,"value":21.73,"sigma":0.2}`)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], opMsg, "nc0/inbox/12/w0/n17/3", payload)
		if _, err := parseFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// 256 publishes from a client, counted as they reach an in-process
// subscriber on the server's bus.
func BenchmarkClientPublishBurst(b *testing.B) {
	bs := New()
	defer bs.Close()
	srv, err := NewServer(bs, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	const burst = 256
	sink, err := bs.Subscribe("probe/burst", burst)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := cli.Publish("probe/burst", payload); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < burst; j++ {
			<-sink.C
		}
	}
}

// A subscriber that stops draining loses messages at the client; the
// loss is counted, per client and in obs.
func TestClientCountsDroppedMessages(t *testing.T) {
	testutil.CheckGoroutines(t)
	obs.Enable()
	defer obs.Disable()
	dropped0 := obsClientDropped.Value()
	b := New()
	defer b.Close()
	srv, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ch, err := cli.Subscribe("flood/#")
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribed(t, b, "flood/x")
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: client channel holds %d, client dropped %d", what, len(ch), cli.Dropped())
			}
		}
	}
	// Fill the client's channel exactly, then send ten more. The two
	// steps keep the server-side subscription (as deep) from overflowing.
	for i := 0; i < cap(ch); i++ {
		if err := b.Publish("flood/x", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("filling the channel", func() bool { return len(ch) == cap(ch) })
	if d := cli.Dropped(); d != 0 {
		t.Fatalf("%d drops before the channel overflowed", d)
	}
	const extra = 10
	for i := 0; i < extra; i++ {
		if err := b.Publish("flood/x", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("overflowing the channel", func() bool { return cli.Dropped() == extra })
	if got := obsClientDropped.Value() - dropped0; got != extra {
		t.Fatalf("bus.tcp.client.dropped advanced by %d, want %d", got, extra)
	}
}
