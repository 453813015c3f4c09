package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/inboxtest"
	"repro/internal/obs"
)

// reader consumes ep's (g, ch) inbox one envelope at a time.
func reader(ep Endpoint, g ident.GroupID, ch Channel) *inboxtest.Reader[Envelope] {
	return inboxtest.New(ep.InboxBatch(g, ch))
}

func recvOne(t *testing.T, in *inboxtest.Reader[Envelope]) Envelope {
	t.Helper()
	e, ok := in.Next(2 * time.Second)
	if !ok && in.Closed() {
		t.Fatal("inbox closed")
	}
	if !ok {
		t.Fatal("timed out waiting for envelope")
	}
	return e
}

func TestMemNetworkBasicSendRecv(t *testing.T) {
	n := NewMemNetwork()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if err := a.Send("b", ident.NodeGroup, Data, "hello"); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, reader(b, ident.NodeGroup, Data))
	if env.From != "a" || env.Msg != "hello" {
		t.Fatalf("got %+v", env)
	}
}

func TestMemNetworkFIFOPerSender(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	const count = 500
	for i := 0; i < count; i++ {
		if err := a.Send("b", ident.NodeGroup, Data, i); err != nil {
			t.Fatal(err)
		}
	}
	in := reader(b, ident.NodeGroup, Data)
	for i := 0; i < count; i++ {
		env := recvOne(t, in)
		if env.Msg != i {
			t.Fatalf("out of order: got %v want %d", env.Msg, i)
		}
	}
}

func TestMemNetworkChannelsAreIsolated(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	if err := a.Send("b", ident.NodeGroup, Ctl, "ctl"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ident.NodeGroup, Data, "data"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(b, ident.NodeGroup, Data)); env.Msg != "data" {
		t.Fatalf("data channel got %v", env.Msg)
	}
	if env := recvOne(t, reader(b, ident.NodeGroup, Ctl)); env.Msg != "ctl" {
		t.Fatalf("ctl channel got %v", env.Msg)
	}
}

// TestMemNetworkGroupDemux: one endpoint pair carries several groups'
// traffic into independent (group, channel) inboxes with per-group FIFO.
func TestMemNetworkGroupDemux(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	groups := []ident.GroupID{1, 2, 9}
	for _, g := range groups {
		b.Register(g)
	}
	const perGroup = 50
	for i := 0; i < perGroup; i++ {
		for _, g := range groups {
			if err := a.Send("b", g, Data, int(g)*1000+i); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, g := range groups {
		in := reader(b, g, Data)
		for i := 0; i < perGroup; i++ {
			env := recvOne(t, in)
			if env.Group != g || env.Msg != int(g)*1000+i {
				t.Fatalf("group %d envelope %d: got %+v", g, i, env)
			}
		}
	}
}

// TestMemNetworkDropsUnknownGroupAndChannel: envelopes for an
// unregistered group or an undefined channel are dropped and counted
// instead of silently deposited into inboxes nothing consumes.
func TestMemNetworkDropsUnknownGroupAndChannel(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	if err := a.Send("b", 42, Data, "stray"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ident.NodeGroup, Channel(77), "bogus"); err != nil {
		t.Fatal(err)
	}
	st := b.Drops()
	if st.DroppedUnknownGroup != 1 || st.DroppedUnknownChannel != 1 {
		t.Fatalf("drops = %+v, want 1 unknown-group and 1 unknown-channel", st)
	}

	// Deregistering a live group closes its inboxes and drops what
	// arrives afterwards.
	b.Register(3)
	in := b.InboxBatch(3, Data)
	b.Deregister(3)
	if _, ok := <-in; ok {
		t.Fatal("inbox not closed by Deregister")
	}
	if err := a.Send("b", 3, Data, "late"); err != nil {
		t.Fatal(err)
	}
	if st := b.Drops(); st.DroppedUnknownGroup != 2 {
		t.Fatalf("drops after deregister = %+v, want 2 unknown-group", st)
	}
}

func TestMemNetworkSelfSend(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	defer a.Close()

	if err := a.Send("a", ident.NodeGroup, Ctl, 42); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(a, ident.NodeGroup, Ctl)); env.Msg != 42 || env.From != "a" {
		t.Fatalf("got %+v", env)
	}
}

func TestMemNetworkUnknownPeer(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	defer a.Close()
	if err := a.Send("ghost", ident.NodeGroup, Data, 1); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestMemNetworkDuplicateEndpoint(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	defer a.Close()
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("duplicate endpoint should fail")
	}
}

func TestMemNetworkClosedEndpointSend(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer b.Close()
	a.Close()
	if err := a.Send("b", ident.NodeGroup, Data, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestMemNetworkCrashDropsTraffic(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()

	inbox := b.InboxBatch(ident.NodeGroup, Data)
	n.Crash("b")
	if err := a.Send("b", ident.NodeGroup, Data, 1); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to crashed peer: err = %v, want ErrUnknownPeer", err)
	}
	select {
	case _, ok := <-inbox:
		if ok {
			t.Fatal("crashed endpoint received a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("crashed endpoint's inbox not closed")
	}
}

func TestMemNetworkCutAndHeal(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	n.Cut("a", "b")
	if err := a.Send("b", ident.NodeGroup, Data, "lost"); err != nil {
		t.Fatalf("send on cut link should silently drop, got %v", err)
	}
	// Reverse direction still works.
	if err := b.Send("a", ident.NodeGroup, Data, "back"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(a, ident.NodeGroup, Data)); env.Msg != "back" {
		t.Fatalf("got %v", env.Msg)
	}

	n.Heal("a", "b")
	if err := a.Send("b", ident.NodeGroup, Data, "again"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(b, ident.NodeGroup, Data)); env.Msg != "again" {
		t.Fatalf("after heal got %v", env.Msg)
	}
}

func TestMemNetworkDelayPreservesFIFO(t *testing.T) {
	n := NewMemNetwork()
	n.SetDelay(func(from, to ident.PID) time.Duration { return time.Millisecond })
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	const count = 20
	start := time.Now()
	for i := 0; i < count; i++ {
		if err := a.Send("b", ident.NodeGroup, Data, i); err != nil {
			t.Fatal(err)
		}
	}
	in := reader(b, ident.NodeGroup, Data)
	for i := 0; i < count; i++ {
		env := recvOne(t, in)
		if env.Msg != i {
			t.Fatalf("out of order with delay: got %v want %d", env.Msg, i)
		}
	}
	if elapsed := time.Since(start); elapsed < count*time.Millisecond {
		t.Fatalf("delay not applied: %v elapsed for %d paced messages", elapsed, count)
	}
}

func TestMemNetworkDelayOnFakeClockIsDeterministic(t *testing.T) {
	n := NewMemNetwork()
	fake := obs.NewFake(time.Unix(0, 0))
	n.SetClock(fake)
	n.SetDelay(func(from, to ident.PID) time.Duration { return 50 * time.Millisecond })
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	defer a.Close()
	defer b.Close()

	in := reader(b, ident.NodeGroup, Data)
	if err := a.Send("b", ident.NodeGroup, Data, "first"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", ident.NodeGroup, Data, "second"); err != nil {
		t.Fatal(err)
	}

	// Rendezvous with the paced-link goroutine: its timer for "first" is
	// registered, but the frozen clock must be holding the message back.
	fake.BlockUntil(1)
	if env, ok := in.Next(0); ok {
		t.Fatalf("delivered %v with a frozen clock", env.Msg)
	}

	fake.Advance(50 * time.Millisecond)
	if env := recvOne(t, in); env.Msg != "first" {
		t.Fatalf("got %v, want first", env.Msg)
	}

	// The link serialises: "second" only starts its delay after "first"
	// delivers, and stays queued until the clock moves again.
	fake.BlockUntil(1)
	if env, ok := in.Next(0); ok {
		t.Fatalf("second message delivered without an advance: %v", env.Msg)
	}
	fake.Advance(50 * time.Millisecond)
	if env := recvOne(t, in); env.Msg != "second" {
		t.Fatalf("got %v, want second", env.Msg)
	}
}

func TestMemNetworkCloseUnblocksInbox(t *testing.T) {
	n := NewMemNetwork()
	a, _ := n.Endpoint("a")
	in := a.InboxBatch(ident.NodeGroup, Data)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range in {
		}
	}()
	a.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("inbox reader not released by Close")
	}
}
