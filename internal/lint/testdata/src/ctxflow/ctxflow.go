// Package ctxflow is golden input for the context-propagation analyzer:
// fresh context roots minted inside context-accepting functions, calls
// that drop the incoming ctx, blocking convenience wrappers with known
// ctx-aware variants, and the derivation chains that must stay silent.
package ctxflow

import "context"

// Request is a context-less convenience wrapper: the package also
// declares RequestContext, so ctxflow derives the pair by name.
func Request(topic string) {}

// RequestContext is the context-aware variant.
func RequestContext(ctx context.Context, topic string) {}

func waitDone(done <-chan struct{}) {}

// forward is the good path: the incoming ctx flows down.
func forward(ctx context.Context) {
	RequestContext(ctx, "a")
}

// derive tracks ctx through context.With* assignments.
func derive(ctx context.Context) {
	c2, cancel := context.WithCancel(ctx)
	defer cancel()
	RequestContext(c2, "a")
}

// fresh mints a new root instead of deriving: rule one.
func fresh(ctx context.Context) {
	RequestContext(context.Background(), "a") // want `derive from the incoming ctx`
}

// drop passes a context unrelated to the incoming one.
func drop(ctx context.Context) {
	var other context.Context
	RequestContext(other, "a") // want `does not forward the caller's context`
}

// downgrade calls the blocking wrapper, discarding ctx silently.
func downgrade(ctx context.Context) {
	Request("a") // want `use RequestContext`
}

// downgradeSuppressed pins the suppression geometry: a detached
// background task may outlive the request, with an audited reason.
func downgradeSuppressed(ctx context.Context) {
	//lint:ignore ctxflow golden-test fixture: detached task outlives the request
	Request("a")
}

// closure captures ctx like any other variable; the rules follow it into
// the literal body.
func closure(ctx context.Context) {
	run := func() {
		Request("a") // want `use RequestContext`
	}
	run()
}

// noCtx has no context parameter: the wrapper and a fresh root are both
// fine here.
func noCtx() {
	Request("a")
	ctx := context.Background()
	RequestContext(ctx, "a")
}

// doneForward treats a conventional shutdown channel like a context.
func doneForward(done <-chan struct{}) {
	waitDone(done)
}

// doneDrop passes an unrelated channel instead of the incoming one.
func doneDrop(done <-chan struct{}) {
	var other chan struct{}
	waitDone(other) // want `does not forward the caller's context`
}

// client pairs a method wrapper with its ctx-aware variant the same way.
type client struct{}

func (*client) Do()                           {}
func (*client) DoContext(ctx context.Context) {}

func methodDowngrade(ctx context.Context, c *client) {
	c.Do() // want `use client\.DoContext`
}
