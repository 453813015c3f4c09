package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/inboxtest"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

func TestFlowDisabledUnboundedNeverParks(t *testing.T) {
	// Window 0 disables credit flow control entirely; with unbounded
	// queues multicasts never park.
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Tagging{}})
	for i := 1; i <= 100; i++ {
		if err := h.multicast("p0", ident.Seq(i), obsolete.TagAnnot(uint32(i%5)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks != 0 {
		t.Fatalf("parks = %d with flow control disabled", st.MulticastParks)
	}
	h.verify()
}

func TestFlowStateCredits(t *testing.T) {
	cfg := Config{Self: "me", Window: 4, OutgoingCap: 8, Relation: obsolete.Empty{}}
	f := newFlowState(cfg, ident.NewPIDs("me", "peer"))

	if !f.enabled() {
		t.Fatal("window 4 should enable flow control")
	}
	for i := 0; i < 4; i++ {
		if !f.hasCredit("peer") || !f.takeCredit("peer") {
			t.Fatalf("credit %d unavailable", i)
		}
	}
	if f.hasCredit("peer") || f.takeCredit("peer") {
		t.Fatal("credit available past the window")
	}
	f.credit("peer", 2)
	if !f.takeCredit("peer") || !f.takeCredit("peer") || f.takeCredit("peer") {
		t.Fatal("granted credits miscounted")
	}
	// Negative and zero grants are ignored.
	f.credit("peer", 0)
	f.credit("peer", -5)
	if f.hasCredit("peer") {
		t.Fatal("non-positive grant added credit")
	}
	// Reset re-arms the full window.
	f.reset(ident.NewPIDs("me", "peer"))
	for i := 0; i < 4; i++ {
		if !f.takeCredit("peer") {
			t.Fatalf("credit %d unavailable after reset", i)
		}
	}
}

func TestFlowStateDisabled(t *testing.T) {
	cfg := Config{Self: "me", Relation: obsolete.Empty{}}
	f := newFlowState(cfg, ident.NewPIDs("me", "peer"))
	if f.enabled() {
		t.Fatal("window 0 must disable flow control")
	}
	for i := 0; i < 1000; i++ {
		if !f.takeCredit("peer") {
			t.Fatal("disabled flow control must never refuse")
		}
	}
	if f.pending("peer") != nil {
		t.Fatal("disabled flow control must have no outgoing queues")
	}
}

// TestDrainOutgoingNeverDropsWithoutCredit pins the drain loop's
// pop/credit ordering: a queued message may only leave the outgoing queue
// when its send is paid for. The old loop popped first and dropped the
// message if the credit check then failed.
func TestDrainOutgoingNeverDropsWithoutCredit(t *testing.T) {
	net := transport.NewMemNetwork()
	ep, err := net.Endpoint("me")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	pep, err := net.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	defer pep.Close()
	inbox := inboxtest.New(pep.InboxBatch(0, transport.Data))

	cfg := Config{Self: "me", Endpoint: ep, Window: 4, Relation: obsolete.Empty{}}
	e := &Engine{
		cfg:  cfg,
		cv:   View{ID: 3, Members: ident.NewPIDs("me", "peer")},
		flow: newFlowState(cfg, ident.NewPIDs("me", "peer")),
	}
	out := e.flow.pending("peer")
	// One stale leftover from view 2, then five live messages.
	out.ForceAppend(queue.Item{Kind: queue.Data, View: 2, Meta: obsolete.Msg{Sender: "me", Seq: 90}})
	for i := 1; i <= 5; i++ {
		out.ForceAppend(queue.Item{Kind: queue.Data, View: 3, Meta: obsolete.Msg{Sender: "me", Seq: ident.Seq(i)}})
	}
	// Exhaust all but one credit: the drain may send exactly one message,
	// skip the stale head for free, and must keep the rest queued.
	for i := 0; i < 3; i++ {
		e.flow.takeCredit("peer")
	}
	recv := func() []ident.Seq {
		var got []ident.Seq
		for {
			env, ok := inbox.Next(50 * time.Millisecond)
			if !ok {
				return got
			}
			switch m := env.Msg.(type) {
			case DataMsg:
				got = append(got, m.Meta.Seq)
			case *DataBatchMsg:
				for _, dm := range m.Msgs {
					got = append(got, dm.Meta.Seq)
				}
			default:
				t.Fatalf("unexpected data-channel message %T", env.Msg)
			}
		}
	}

	e.drainOutgoing("peer")
	if got := recv(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("first drain sent %v, want [1]", got)
	}
	if out.Len() != 4 {
		t.Fatalf("outgoing holds %d after credit exhaustion, want 4 (nothing dropped)", out.Len())
	}
	// Each granted credit releases exactly the next message, in order.
	e.flow.credit("peer", 2)
	e.drainOutgoing("peer")
	if got := recv(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("second drain sent %v, want [2 3]", got)
	}
	e.flow.credit("peer", 10)
	e.drainOutgoing("peer")
	if got := recv(); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("final drain sent %v, want [4 5]", got)
	}
	if out.Len() != 0 {
		t.Fatalf("outgoing not drained: %d left", out.Len())
	}
}

// TestOwedCreditsFlushWhenSenderBlocked pins the quiescence stall: with
// Window 8 the receiver grants credits in batches of 2, so a single freed
// slot used to sit in `owed` forever if no further traffic arrived —
// leaving the sender parked until an unrelated view change. Now a freed
// slot is granted immediately once the sender is known to have consumed
// its whole window.
func TestOwedCreditsFlushWhenSenderBlocked(t *testing.T) {
	h := newGroup(t, harnessOpts{
		n: 2, rel: obsolete.Empty{}, // no purging: the window really fills
		toDeliverCap: 16, outgoingCap: 4, window: 8,
	})
	consumer := h.members["p1"]
	consumer.mu.Lock()
	consumer.paused = true
	consumer.mu.Unlock()

	// 8 sends exhaust the window, 4 more fill the outgoing queue.
	for i := 1; i <= 12; i++ {
		if err := h.multicast("p0", ident.Seq(i), nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The 13th has nowhere to go: it parks.
	parked := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: 13}, []byte{13})
		parked <- err
	}()
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().MulticastParks == 0 {
		select {
		case <-deadline:
			t.Fatal("producer never parked")
		case <-time.After(time.Millisecond):
		}
	}

	// The paused consumer's application pulls exactly ONE delivery. That
	// frees one slot — below the batch threshold of 2 — and traffic then
	// quiesces. The single owed credit must still reach the sender and
	// release the parked multicast.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	d, err := consumer.eng.Deliver(ctx)
	if err != nil || d.Kind != DeliverData {
		t.Fatalf("manual deliver = %+v, %v", d, err)
	}
	h.rec.Deliver("p1", d.Meta, d.View)

	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("released multicast failed: %v", err)
		}
		h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: 13}, 1)
	case <-time.After(15 * time.Second):
		t.Fatal("owed credit never flushed: sender still parked after the receiver freed a slot")
	}

	// Drain the rest and verify the run.
	consumer.mu.Lock()
	consumer.paused = false
	consumer.mu.Unlock()
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 13) })
	h.verify()
}

// TestStaleViewCreditRejected pins the view check on credit grants: a
// credit from another view must not inflate the sender's window.
func TestStaleViewCreditRejected(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, toDeliverCap: 8, outgoingCap: 1, window: 1})
	consumer := h.members["p1"]
	consumer.mu.Lock()
	consumer.paused = true
	consumer.mu.Unlock()

	// Window 1: the first multicast consumes the only credit, the second
	// queues, the third parks.
	for i := 1; i <= 2; i++ {
		if err := h.multicast("p0", ident.Seq(i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := h.members["p0"].eng.Multicast(ctx, obsolete.Msg{Sender: "p0", Seq: 3}, nil); err == nil {
			h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: 3}, 1)
		}
	}()
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().MulticastParks == 0 {
		select {
		case <-deadline:
			t.Fatal("producer never parked")
		case <-time.After(time.Millisecond):
		}
	}

	// A forged credit grant for a view p0 is not in arrives. It must be
	// discarded (counted), leaving the producer parked.
	if err := consumer.ep.Send("p0", 0, transport.Ctl, CreditMsg{View: 99, Credits: 1000}); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().CreditsStaleView == 0 {
		select {
		case <-deadline:
			t.Fatal("stale credit never counted")
		case <-time.After(time.Millisecond):
		}
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks == 0 {
		t.Fatalf("producer unexpectedly unparked: %+v", st)
	}

	// Real progress still works once the consumer resumes.
	consumer.mu.Lock()
	consumer.paused = false
	consumer.mu.Unlock()
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 3) })
	h.verify()
}

// TestDeferredCtlOverflowCounted pins the maxDeferredCtl backstop: control
// envelopes for future views past the cap are dropped, and the drop is
// visible in Stats rather than silent.
func TestDeferredCtlOverflowCounted(t *testing.T) {
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}})
	evil, err := h.net.Endpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()

	const extra = 7
	for i := 0; i < defaultMaxDeferredCtl+extra; i++ {
		if err := evil.Send("p0", 0, transport.Ctl, InitMsg{View: 99}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(15 * time.Second)
	for h.members["p0"].eng.Stats().CtlDeferredDropped != extra {
		select {
		case <-deadline:
			t.Fatalf("CtlDeferredDropped = %d, want %d",
				h.members["p0"].eng.Stats().CtlDeferredDropped, extra)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestBlockedProducerUnblocksWhenConsumerResumes(t *testing.T) {
	// A paused consumer exhausts the producer's window; resuming it must
	// release the parked multicast (the engine-level analogue of the
	// perturbation experiment, Fig. 5b).
	h := newGroup(t, harnessOpts{
		n: 2, rel: obsolete.Empty{}, // no purging: pressure builds
		toDeliverCap: 4, outgoingCap: 4, window: 4,
	})
	// Pause p1's application entirely.
	m := h.members["p1"]
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()

	// Fill far beyond window+buffer: the producer must eventually park.
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= 40; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, err := h.members["p0"].eng.Multicast(ctx,
				obsolete.Msg{Sender: "p0", Seq: ident.Seq(i)}, []byte{byte(i)})
			cancel()
			if err != nil {
				done <- err
				return
			}
			h.rec.Multicast(obsolete.Msg{Sender: "p0", Seq: ident.Seq(i)}, 1)
		}
		done <- nil
	}()

	// The producer must be stuck while p1 naps...
	select {
	case err := <-done:
		t.Fatalf("producer finished against a stopped consumer: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
	if st := h.members["p0"].eng.Stats(); st.MulticastParks == 0 {
		t.Fatal("producer never parked against a stopped consumer")
	}

	// ... and released once it wakes up.
	m.mu.Lock()
	m.paused = false
	m.mu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("producer never unblocked after consumer resumed")
	}
	h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 40) })
	h.verify()
}
