package transport

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/inboxtest"
	"repro/internal/obs"
)

// faultPair wraps two MemNetwork endpoints in one Faults controller.
func faultPair(t *testing.T, f *Faults) (*FaultEndpoint, *FaultEndpoint) {
	t.Helper()
	n := NewMemNetwork()
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := f.Wrap(a), f.Wrap(b)
	t.Cleanup(func() {
		fa.Close()
		fb.Close()
	})
	return fa, fb
}

func expectNone(t *testing.T, in *inboxtest.Reader[Envelope], d time.Duration) {
	t.Helper()
	if e, ok := in.Next(d); ok {
		t.Fatalf("unexpected envelope %+v", e)
	}
}

func TestFaultsPartitionAndHeal(t *testing.T) {
	f := NewFaults(1)
	fa, fb := faultPair(t, f)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "lost-ab"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Send("a", ident.NodeGroup, Data, "lost-ba"); err != nil {
		t.Fatal(err)
	}
	expectNone(t, reader(fb, ident.NodeGroup, Data), 50*time.Millisecond)
	expectNone(t, reader(fa, ident.NodeGroup, Data), 50*time.Millisecond)

	f.Heal()
	if err := fa.Send("b", ident.NodeGroup, Data, "after-heal"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(fb, ident.NodeGroup, Data)); env.Msg != "after-heal" {
		t.Fatalf("got %+v", env)
	}

	st := f.Stats()
	if st.Partitioned != 2 {
		t.Fatalf("Partitioned = %d, want 2", st.Partitioned)
	}
}

func TestFaultsPartitionOneWayIsAsymmetric(t *testing.T) {
	f := NewFaults(1)
	fa, fb := faultPair(t, f)

	f.PartitionOneWay([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "cut"); err != nil {
		t.Fatal(err)
	}
	if err := fb.Send("a", ident.NodeGroup, Data, "open"); err != nil {
		t.Fatal(err)
	}
	// b→a still flows; a→b is cut.
	if env := recvOne(t, reader(fa, ident.NodeGroup, Data)); env.Msg != "open" {
		t.Fatalf("got %+v", env)
	}
	expectNone(t, reader(fb, ident.NodeGroup, Data), 50*time.Millisecond)
}

func TestFaultsDropAllAndRemove(t *testing.T) {
	f := NewFaults(7)
	fa, fb := faultPair(t, f)

	f.Drop("a", "b", 1.0)
	for i := 0; i < 10; i++ {
		if err := fa.Send("b", ident.NodeGroup, Data, i); err != nil {
			t.Fatal(err)
		}
	}
	expectNone(t, reader(fb, ident.NodeGroup, Data), 50*time.Millisecond)
	if st := f.Stats(); st.Dropped != 10 {
		t.Fatalf("Dropped = %d, want 10", st.Dropped)
	}

	f.Drop("a", "b", 0) // remove the rule
	if err := fa.Send("b", ident.NodeGroup, Data, "through"); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(fb, ident.NodeGroup, Data)); env.Msg != "through" {
		t.Fatalf("got %+v", env)
	}
}

func TestFaultsDuplicate(t *testing.T) {
	f := NewFaults(3)
	fa, fb := faultPair(t, f)

	f.Duplicate("a", "b", 1.0)
	if err := fa.Send("b", ident.NodeGroup, Data, "twin"); err != nil {
		t.Fatal(err)
	}
	in := reader(fb, ident.NodeGroup, Data)
	for i := 0; i < 2; i++ {
		if env := recvOne(t, in); env.Msg != "twin" {
			t.Fatalf("copy %d: got %+v", i, env)
		}
	}
	if st := f.Stats(); st.Duplicated != 1 {
		t.Fatalf("Duplicated = %d, want 1", st.Duplicated)
	}
}

// TestFaultsDelayDeterministicUnderFakeClock: a delayed message stays in
// flight until the fake clock advances past its delay — the DES hook.
func TestFaultsDelayDeterministicUnderFakeClock(t *testing.T) {
	clock := obs.NewFake(time.Unix(0, 0))
	f := NewFaults(5)
	f.SetClock(clock)
	fa, fb := faultPair(t, f)

	f.Delay("a", "b", 100*time.Millisecond)
	if err := fa.Send("b", ident.NodeGroup, Data, "slow"); err != nil {
		t.Fatal(err)
	}
	// The delay-link goroutine registers its timer with the fake clock.
	clock.BlockUntil(1)
	expectNone(t, reader(fb, ident.NodeGroup, Data), 30*time.Millisecond)

	clock.Advance(100 * time.Millisecond)
	if env := recvOne(t, reader(fb, ident.NodeGroup, Data)); env.Msg != "slow" {
		t.Fatalf("got %+v", env)
	}
	if st := f.Stats(); st.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", st.Delayed)
	}
}

// TestFaultsDelayRemovalKeepsFIFO: a message sent after the delay rule is
// removed must not overtake one still sitting in the delay queue.
func TestFaultsDelayRemovalKeepsFIFO(t *testing.T) {
	clock := obs.NewFake(time.Unix(0, 0))
	f := NewFaults(5)
	f.SetClock(clock)
	fa, fb := faultPair(t, f)

	f.Delay("a", "b", 200*time.Millisecond)
	if err := fa.Send("b", ident.NodeGroup, Data, "first"); err != nil {
		t.Fatal(err)
	}
	clock.BlockUntil(1)
	f.Delay("a", "b", 0) // remove the rule while "first" is in flight
	if err := fa.Send("b", ident.NodeGroup, Data, "second"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(200 * time.Millisecond)

	in := reader(fb, ident.NodeGroup, Data)
	if env := recvOne(t, in); env.Msg != "first" {
		t.Fatalf("reordered: got %+v first", env)
	}
	if env := recvOne(t, in); env.Msg != "second" {
		t.Fatalf("got %+v second", env)
	}
}

func TestFaultsCrashClosesEndpoint(t *testing.T) {
	f := NewFaults(9)
	fa, fb := faultPair(t, f)

	if err := f.Crash("b"); err != nil {
		t.Fatal(err)
	}
	// b's endpoint is gone: sends from b fail, sends to b vanish with it.
	if err := fb.Send("a", ident.NodeGroup, Data, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send from crashed endpoint: err = %v, want ErrClosed", err)
	}
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("send to crashed peer: err = %v, want ErrUnknownPeer", err)
	}
	if st := f.Stats(); st.Crashed != 1 {
		t.Fatalf("Crashed = %d, want 1", st.Crashed)
	}
	if err := f.Crash("b"); err == nil {
		t.Fatal("second Crash of the same endpoint should error")
	}
}

func TestFaultsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := NewFaults(11)
	f.Instrument(obs.New(nil, reg, nil))
	fa, _ := faultPair(t, f)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); err != nil {
		t.Fatal(err)
	}
	f.Heal()
	f.Drop("a", "b", 1.0)
	if err := fa.Send("b", ident.NodeGroup, Data, "x"); err != nil {
		t.Fatal(err)
	}
	if err := f.Crash("a"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, want := range []string{
		`transport_faults_total{kind=partition}`,
		`transport_faults_total{kind=drop}`,
		`transport_faults_total{kind=crash}`,
	} {
		if v := snap.Counters[want]; v != 1 {
			t.Fatalf("%s = %d, want 1", want, v)
		}
	}
}

// TestFaultsOverTCP: the same controller drives a real TCP transport —
// partition silences the link, heal restores it.
func TestFaultsOverTCP(t *testing.T) {
	a, b := tcpPair(t)
	f := NewFaults(13)
	fa := f.Wrap(a)

	f.Partition([]ident.PID{"a"}, []ident.PID{"b"})
	if err := fa.Send("b", ident.NodeGroup, Data, tcpPayload{N: 1}); err != nil {
		t.Fatal(err)
	}
	expectNone(t, reader(b, ident.NodeGroup, Data), 50*time.Millisecond)

	f.Heal()
	if err := fa.Send("b", ident.NodeGroup, Data, tcpPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if env := recvOne(t, reader(b, ident.NodeGroup, Data)); env.Msg.(tcpPayload).N != 2 {
		t.Fatalf("got %+v", env)
	}
}
