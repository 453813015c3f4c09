package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/inboxtest"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// backoffRecv waits for one envelope on the contact's control inbox.
func backoffRecv(t *testing.T, in *inboxtest.Reader[transport.Envelope]) transport.Envelope {
	t.Helper()
	env, ok := in.Next(5 * time.Second)
	if !ok {
		t.Fatal("timed out waiting for a join request")
	}
	return env
}

// backoffNone asserts no envelope arrives within a short grace period.
func backoffNone(t *testing.T, in *inboxtest.Reader[transport.Envelope]) {
	t.Helper()
	if env, ok := in.Next(30 * time.Millisecond); ok {
		t.Fatalf("unexpected envelope before the backoff elapsed: %+v", env)
	}
}

// TestJoinBackoffScheduleFake pins the retransmission schedule under a
// fake clock: with jitter disabled, retries fire at exactly
// Retry·2ⁿ capped at RetryMax — here 100ms, 200ms, 400ms, 400ms — and
// not a tick earlier.
func TestJoinBackoffScheduleFake(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	net := transport.NewMemNetwork()
	jep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	cep, err := net.Endpoint("c")
	if err != nil {
		t.Fatal(err)
	}
	defer cep.Close()
	inbox := inboxtest.New(cep.InboxBatch(0, transport.Ctl))

	det := fd.NewManual()
	defer det.Stop()
	eng, err := New(Config{
		Self: "j", Endpoint: jep, Detector: det,
		Join: &JoinSpec{
			Contacts:    ident.NewPIDs("c"),
			Retry:       100 * time.Millisecond,
			RetryMax:    400 * time.Millisecond,
			RetryJitter: -1, // deterministic intervals
		},
		Obs: obs.New(fake, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// The initial request is sent on Start, before any timer fires.
	if env := backoffRecv(t, inbox); env.From != "j" {
		t.Fatalf("initial join request from %q, want j", env.From)
	}

	for i, d := range []time.Duration{
		100 * time.Millisecond, // attempt 0: Retry
		200 * time.Millisecond, // attempt 1: Retry·2
		400 * time.Millisecond, // attempt 2: Retry·4 = RetryMax
		400 * time.Millisecond, // attempt 3: capped
	} {
		// The engine re-arms the timer after each retransmission; wait for
		// it to register before advancing, or the tick lands nowhere.
		fake.BlockUntil(1)
		fake.Advance(d - time.Millisecond)
		backoffNone(t, inbox)
		fake.Advance(time.Millisecond)
		if env := backoffRecv(t, inbox); env.From != "j" {
			t.Fatalf("retry %d from %q, want j", i, env.From)
		}
	}
}

// TestJoinGiveUpFake: a joiner whose retry budget (GiveUp) expires fails
// terminally — Deliver and Multicast return ErrJoinTimeout, including
// calls parked before the budget ran out.
func TestJoinGiveUpFake(t *testing.T) {
	fake := obs.NewFake(time.Unix(0, 0))
	net := transport.NewMemNetwork()
	jep, err := net.Endpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	det := fd.NewManual()
	defer det.Stop()
	eng, err := New(Config{
		Self: "j", Endpoint: jep, Detector: det,
		Join: &JoinSpec{
			Contacts:    ident.NewPIDs("ghost"), // never attached: every send fails
			Retry:       50 * time.Millisecond,
			RetryJitter: -1,
			GiveUp:      200 * time.Millisecond,
		},
		Obs: obs.New(fake, nil, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// Park a Deliver before the budget expires; it must be failed, not
	// stranded.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	delErr := make(chan error, 1)
	go func() {
		_, err := eng.Deliver(ctx)
		delErr <- err
	}()

	// One big advance fires the pending retry timer; by the time the
	// engine processes the tick the clock reads 400ms — past the 200ms
	// budget — so the retry gives up instead of retransmitting.
	fake.BlockUntil(1)
	fake.Advance(400 * time.Millisecond)

	if err := <-delErr; !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("parked Deliver = %v, want ErrJoinTimeout", err)
	}
	if _, err := eng.Deliver(ctx); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Deliver after give-up = %v, want ErrJoinTimeout", err)
	}
	meta := obsolete.Msg{Sender: "j", Seq: 1}
	if _, err := eng.Multicast(ctx, meta, []byte("x")); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Multicast after give-up = %v, want ErrJoinTimeout", err)
	}
}

// TestJoinDeadContactMem: a contact list with one dead and one live member
// must still admit the joiner — requests to the dead contact fail (counted
// as send errors) while the live one triggers the admitting view change.
func TestJoinDeadContactMem(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1")
	nodes := make(map[ident.PID]*Node)
	for _, p := range pids {
		nodes[p] = joinerNode(t, net, p)
	}
	gc := GroupConfig{Relation: obsolete.Empty{}}
	groups := createEverywhere(t, nodes, pids, 1, gc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, p := range pids {
		g := groups[p]
		go func() {
			for {
				if _, err := g.Deliver(ctx); err != nil {
					return
				}
			}
		}()
	}

	jn := joinerNode(t, net, "j")
	// "dead" was never attached to the network: sends to it return
	// ErrUnknownPeer. The join must ride on the live contact n1.
	jg, err := jn.Join(1, gc, "dead", "n1")
	if err != nil {
		t.Fatal(err)
	}
	joinWaitCond(t, "joiner admitted despite a dead contact", func() bool {
		v := jg.View()
		return v.ID >= 2 && v.Includes("j")
	})
}

// TestJoinAllDeadContactsTimeout: when every contact is dead, JoinWith a
// GiveUp budget ends in a clean ErrJoinTimeout — and closing the node
// leaks no goroutines.
func TestJoinAllDeadContactsTimeout(t *testing.T) {
	baseline := runtime.NumGoroutine()

	net := transport.NewMemNetwork()
	jn := joinerNode(t, net, "j")
	jg, err := jn.JoinWith(1, GroupConfig{}, JoinSpec{
		Contacts: ident.NewPIDs("d0", "d1"),
		Retry:    5 * time.Millisecond,
		GiveUp:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := jg.Deliver(ctx); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Deliver = %v, want ErrJoinTimeout", err)
	}
	meta := obsolete.Msg{Sender: "j", Seq: 1}
	if _, err := jg.Multicast(ctx, meta, []byte("x")); !errors.Is(err, ErrJoinTimeout) {
		t.Fatalf("Multicast = %v, want ErrJoinTimeout", err)
	}

	jn.Close()
	joinWaitCond(t, "goroutines to settle after Close", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
