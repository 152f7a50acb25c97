package bus

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

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
	err = Request(b, "svc/slow", struct{}{}, nil, 10*time.Second)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Request during close = %v, want ErrClosed", err)
	}
}

func TestRequestTimeoutNoResponder(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	start := time.Now()
	err := Request(b, "svc/absent", struct{}{}, nil, 50*time.Millisecond)
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
	if err := Request(b, "svc/enc", make(chan int), nil, time.Second); err == nil {
		t.Fatal("Request with unmarshalable body succeeded")
	}
}

func TestRespondIgnoresMalformedEnvelopes(t *testing.T) {
	testutil.CheckGoroutines(t)
	b := New()
	defer b.Close()
	served := make(chan string, 1)
	go func() {
		_ = Respond(b, "svc/echo", func(topic string, body []byte) (any, error) {
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
	if err := Request(b, "svc/echo", "hello", &out, 5*time.Second); err != nil {
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
		if err := Request(b, "svc/stoppable", "hi", &out, 100*time.Millisecond); err == nil {
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
