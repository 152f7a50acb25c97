package bus

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
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

// countingWriter records what each Write call carried.
type countingWriter struct {
	mu     sync.Mutex
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	return w.buf.Write(p)
}

// frames parses everything written so far.
func (w *countingWriter) frames(t *testing.T) (writes int, frames []frame) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, line := range bytes.Split(bytes.TrimSpace(w.buf.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		f, err := parseFrame(line)
		if err != nil {
			t.Fatalf("wrote an unparseable frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return w.writes, frames
}

// A queue of N frames leaves in fewer than N writes, and a frame with
// nothing queued behind it is on the wire without waiting for a
// successor, a timer or the subscription's end.
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
	w := &countingWriter{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		forward(newFrameWriter(w), sub)
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
					if f.Op != "msg" || f.Topic != "burst/"+strconv.Itoa(i) || len(f.Payload) != 1 || f.Payload[0] != byte(i) {
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
