package bus

import (
	"context"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testutil"
)

func TestMatch(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b/c", "a/b/c", true},
		{"a/b/c", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/+/c", "a/b/c", true},
		{"a/+/c", "a/x/c", true},
		{"a/+/c", "a/b/d", false},
		{"+/+/+", "a/b/c", true},
		{"a/#", "a/b/c", true},
		{"a/#", "a", true}, // MQTT: '#' also matches the parent level itself
		{"#", "anything/at/all", true},
		{"a/b/#", "a/b", true},
		{"a/#", "b", false},
		{"a/b/#", "a/b/c/d", true},
	}
	for _, c := range cases {
		if got := Match(c.pattern, c.topic); got != c.want {
			t.Errorf("Match(%q,%q)=%v want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

func TestValidTopicAndPattern(t *testing.T) {
	for _, bad := range []string{"", "a//b", "a/+/b", "a/#", "+"} {
		if ValidTopic(bad) {
			t.Errorf("ValidTopic(%q) should be false", bad)
		}
	}
	for _, good := range []string{"a", "a/b", "nc/0/cmd"} {
		if !ValidTopic(good) {
			t.Errorf("ValidTopic(%q) should be true", good)
		}
	}
	for _, bad := range []string{"", "a//b", "#/a", "a/#/b"} {
		if ValidPattern(bad) {
			t.Errorf("ValidPattern(%q) should be false", bad)
		}
	}
	for _, good := range []string{"a/+/b", "a/#", "#", "+"} {
		if !ValidPattern(good) {
			t.Errorf("ValidPattern(%q) should be true", good)
		}
	}
}

func TestPublishSubscribe(t *testing.T) {
	b := New()
	sub, err := b.Subscribe("sensors/+/temp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("sensors/n1/temp", []byte("21.5")); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("sensors/n1/humidity", []byte("55")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-sub.C:
		if msg.Topic != "sensors/n1/temp" || string(msg.Payload) != "21.5" {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("no delivery")
	}
	select {
	case msg := <-sub.C:
		t.Fatalf("unexpected second message %+v", msg)
	default:
	}
}

func TestPublishInvalidTopic(t *testing.T) {
	b := New()
	if err := b.Publish("a/+/b", nil); err == nil {
		t.Fatal("want invalid topic error")
	}
	if _, err := b.Subscribe("a//b", 1); err == nil {
		t.Fatal("want invalid pattern error")
	}
}

func TestUnsubscribeClosesChannel(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe("x", 1)
	sub.Unsubscribe()
	if _, ok := <-sub.C; ok {
		t.Fatal("channel should be closed")
	}
	sub.Unsubscribe() // idempotent
	if b.SubscriberCount("x") != 0 {
		t.Fatal("subscriber not removed")
	}
}

func TestFullBufferDrops(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe("x", 1)
	b.Publish("x", []byte("1"))
	b.Publish("x", []byte("2")) // buffer full → dropped
	if sub.Dropped() != 1 {
		t.Fatalf("dropped=%d, want 1", sub.Dropped())
	}
}

func TestHooks(t *testing.T) {
	b := New()
	var mu sync.Mutex
	total := 0
	b.AddHook(func(topic string, n int) {
		mu.Lock()
		total += n
		mu.Unlock()
	})
	b.Publish("a", []byte("12345"))
	b.Publish("b", []byte("xy"))
	mu.Lock()
	defer mu.Unlock()
	if total != 7 {
		t.Fatalf("hook total %d, want 7", total)
	}
}

func TestCloseBus(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe("x", 1)
	b.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("channel should be closed")
	}
	if err := b.Publish("x", nil); err != ErrClosed {
		t.Fatalf("err=%v, want ErrClosed", err)
	}
	if _, err := b.Subscribe("x", 1); err != ErrClosed {
		t.Fatalf("err=%v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// requestWithin is one RequestContext round trip that gives up after
// timeout.
func requestWithin(b *Bus, topic string, body, out any, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return RequestContext(ctx, b, topic, body, out)
}

func TestRequestReply(t *testing.T) {
	testutil.Watchdog(t, 30*time.Second)
	b := New()
	go RespondContext(context.Background(), b, "svc/echo", func(topic string, body []byte) (any, error) {
		return map[string]string{"echo": string(body)}, nil
	})
	// Give the responder a moment to subscribe.
	deadline := time.Now().Add(time.Second)
	for b.SubscriberCount("svc/echo") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var out map[string]string
	if err := requestWithin(b, "svc/echo", "ping", &out, time.Second); err != nil {
		t.Fatal(err)
	}
	if out["echo"] != `"ping"` {
		t.Fatalf("reply %v", out)
	}
}

func TestRequestTimeout(t *testing.T) {
	testutil.Watchdog(t, 30*time.Second)
	b := New()
	err := requestWithin(b, "svc/nobody", "x", nil, 20*time.Millisecond)
	if err == nil {
		t.Fatal("want timeout error")
	}
}

func TestConcurrentPublishers(t *testing.T) {
	b := New()
	sub, _ := b.Subscribe("#", 4096)
	var wg sync.WaitGroup
	const publishers, each = 8, 100
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				b.Publish("load/test", []byte("x"))
			}
		}()
	}
	wg.Wait()
	got := 0
	for {
		select {
		case <-sub.C:
			got++
		default:
			if got != publishers*each {
				t.Fatalf("received %d of %d", got, publishers*each)
			}
			return
		}
	}
}

func TestTCPServerClientRoundTrip(t *testing.T) {
	b := New()
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

	ch, err := cli.Subscribe("remote/#")
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the server registered the subscription.
	deadline := time.Now().Add(2 * time.Second)
	for b.SubscriberCount("remote/x") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Local → remote.
	if err := b.Publish("remote/x", []byte("down")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-ch:
		if msg.Topic != "remote/x" || string(msg.Payload) != "down" {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no downstream delivery")
	}
	// Remote → local.
	local, _ := b.Subscribe("up/#", 4)
	if err := cli.Publish("up/y", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-local.C:
		if msg.Topic != "up/y" || string(msg.Payload) != "hello" {
			t.Fatalf("got %+v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no upstream delivery")
	}
}

func TestTCPClientValidation(t *testing.T) {
	b := New()
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
	if err := cli.Publish("bad//topic", nil); err == nil {
		t.Fatal("want topic error")
	}
	if _, err := cli.Subscribe("#/bad"); err == nil {
		t.Fatal("want pattern error")
	}
}

func TestDialRefused(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("want connection error")
	}
}

// Property: a concrete topic always matches itself as a pattern, and "#"
// matches every valid topic.
func TestPropMatchReflexive(t *testing.T) {
	f := func(segs []uint8) bool {
		if len(segs) == 0 {
			return true
		}
		topic := ""
		for i, s := range segs {
			if i > 0 {
				topic += "/"
			}
			topic += string(rune('a' + s%26))
		}
		return Match(topic, topic) && Match("#", topic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPublish publishes to one subscriber among a growing roster:
// alone, among one NanoCloud's 48 wildcard-free command topics, and with
// two TCP-style wildcard patterns beside those. The first two should cost
// the same, the third one Match more per wildcard pattern, and none should
// allocate.
func BenchmarkPublish(b *testing.B) {
	payload := make([]byte, 128)
	run := func(bus *Bus, topic string, sub *Subscription) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bus.Publish(topic, payload); err != nil {
					b.Fatal(err)
				}
				<-sub.C
			}
		}
	}
	lone := New()
	defer lone.Close()
	sub, err := lone.Subscribe("bench/x", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("subs=1", run(lone, "bench/x", sub))
	roster, target, sub := rosterBus(b, 0)
	b.Run("subs=48", run(roster, target, sub))
	roster, target, sub = rosterBus(b, 2)
	b.Run("subs=48+2wild", run(roster, target, sub))
}
