package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

func TestStabilityPrunesHistoryAndShrinksFlush(t *testing.T) {
	// Classic VS (no purging) so every message would otherwise stay in
	// the delivery history until the next view change.
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}, stability: 5 * time.Millisecond})

	const count = 50
	var seq ident.Seq
	for i := 0; i < count; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	}

	// Give the gossip a few rounds to converge, then the history must
	// have been pruned at every member.
	deadline := time.After(10 * time.Second)
	for _, p := range h.pids {
		for {
			st := h.members[p].eng.Stats()
			if st.StablePruned > 0 && st.HistoryLen < count/2 {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("%s: stability never pruned: %+v", p, h.members[p].eng.Stats())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}

	// A view change now flushes only the unstable tail.
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	if st := h.members["p0"].eng.Stats(); st.LastFlushLen >= count {
		t.Errorf("flush set %d not reduced by stability (multicast %d)", st.LastFlushLen, count)
	}
	h.verify()
}

func TestNoGossipFlushCarriesOnlyUnreceived(t *testing.T) {
	// Without gossip the frontiers the members report on the INIT round
	// are the only stability knowledge, and they are enough: the flush
	// carries exactly the messages some member has not received.
	const count = 30
	// The helpers report through h.t, the subtest that built h.
	multicastAll := func(h *groupHarness, from, to ident.Seq) {
		h.t.Helper()
		for seq := from; seq <= to; seq++ {
			if err := h.multicast("p0", seq, nil, nil); err != nil {
				h.t.Fatal(err)
			}
		}
	}
	changeView := func(h *groupHarness) {
		h.t.Helper()
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			h.t.Fatal(err)
		}
		for _, p := range h.pids {
			h.waitView(p, 2)
		}
	}
	requireFlush := func(h *groupHarness, want int) {
		h.t.Helper()
		for _, p := range h.pids {
			if st := h.members[p].eng.Stats(); st.LastFlushLen != want {
				h.t.Errorf("%s: flush set %d, want %d", p, st.LastFlushLen, want)
			}
		}
	}

	t.Run("quiescent", func(t *testing.T) {
		h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}})
		multicastAll(h, 1, count)
		for _, p := range h.pids {
			h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
		}
		changeView(h)
		requireFlush(h, 0)
		h.verify()
	})

	t.Run("one member behind", func(t *testing.T) {
		// p2 misses p0's last k messages; only they are flushed, and p2
		// delivers them from the flush.
		const k = 7
		h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}})
		multicastAll(h, 1, count-k)
		for _, p := range h.pids {
			h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count-k) })
		}
		h.net.Cut("p0", "p2")
		multicastAll(h, count-k+1, count)
		h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", count) })
		h.net.Heal("p0", "p2")
		changeView(h)
		requireFlush(h, k)
		h.waitDelivered("p2", func(log []check.Event) bool { return hasSeq(log, "p0", count) })
		h.verify()
	})
}

func TestStabilityFrontierWaitSurvivesCrash(t *testing.T) {
	// A member that crashed before the INIT round never reports its
	// frontier. The survivors hold their PREDs until they suspect it,
	// then fall back to flushing every unstable message.
	fake := obs.NewFake(time.Unix(0, 0))
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}, clock: fake})
	const count = 10
	for seq := ident.Seq(1); seq <= count; seq++ {
		if err := h.multicast("p0", seq, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	}
	h.net.Crash("p2")
	if err := h.members["p0"].eng.RequestViewChange("p2"); err != nil {
		t.Fatal(err)
	}
	survivors := ident.NewPIDs("p0", "p1")
	// Unsuspected and silent, p2 holds every PRED back: no view installs.
	// The pause only gives a wrong implementation time to install; the
	// outcome does not depend on its length.
	time.Sleep(20 * time.Millisecond)
	for _, p := range survivors {
		if v := h.lastView(p); v.ID >= 2 {
			t.Fatalf("%s installed view %d before suspecting the crashed member", p, v.ID)
		}
	}
	for _, p := range survivors {
		h.members[p].det.Suspect("p2")
	}
	h.advanceUntil(fake, "view 2 at the survivors", func() bool {
		for _, p := range survivors {
			if h.lastView(p).ID != 2 {
				return false
			}
		}
		return true
	})
	for _, p := range survivors {
		if v := h.lastView(p); !v.Members.Equal(survivors) {
			t.Fatalf("%s: view 2 members %v, want %v", p, v.Members, survivors)
		}
		if st := h.members[p].eng.Stats(); st.LastFlushLen != count {
			t.Errorf("%s: flush set %d, want the full unstable %d", p, st.LastFlushLen, count)
		}
	}
	h.verify()
}

func TestStabilityInitRowSupersedesGossip(t *testing.T) {
	// With gossip on, a member's gossip row is older than the frontier
	// it reports on the INIT: the fresher INIT row must win, so messages
	// sent after the last gossip round are not flushed either.
	fake := obs.NewFake(time.Unix(0, 0))
	const interval = 10 * time.Millisecond
	h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}, stability: interval, clock: fake})
	const first, count = 10, 20
	for seq := ident.Seq(1); seq <= count; seq++ {
		if err := h.multicast("p0", seq, nil, nil); err != nil {
			t.Fatal(err)
		}
		if seq != first {
			continue
		}
		for _, p := range h.pids {
			h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", first) })
		}
		// One gossip round: every member reports p0's stream up to first,
		// and the history is pruned everywhere.
		fake.Advance(interval)
		waitStats(t, h, func(st Stats) bool { return st.StablePruned == first && st.HistoryLen == 0 })
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", count) })
	}
	if err := h.members["p0"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	for _, p := range h.pids {
		if st := h.members[p].eng.Stats(); st.LastFlushLen != 0 {
			t.Errorf("%s: flush set %d, want 0: the gossip row (%d) won over the INIT row (%d)",
				p, st.LastFlushLen, first, count)
		}
	}
	h.verify()
}

// waitStats polls until cond holds for every member's Stats.
func waitStats(t *testing.T, h *groupHarness, cond func(Stats) bool) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for _, p := range h.pids {
		for !cond(h.members[p].eng.Stats()) {
			select {
			case <-deadline:
				t.Fatalf("%s: condition never met: %+v", p, h.members[p].eng.Stats())
			case <-time.After(time.Millisecond):
			}
		}
	}
}

func TestStabilitySafetyUnderPurging(t *testing.T) {
	// Stability + semantic purging + slow member + view change: the
	// recorded execution must still satisfy every §3.2 property.
	h := newGroup(t, harnessOpts{
		n:            3,
		rel:          obsolete.KEnumeration{K: 64},
		toDeliverCap: 8, outgoingCap: 8, window: 8,
		stability: 3 * time.Millisecond,
	})
	h.members["p2"].slowDown(2 * time.Millisecond)

	it := obsolete.NewItemTracker(obsolete.NewKTracker(64))
	var last ident.Seq
	for i := 0; i < 150; i++ {
		seq, annot := it.Update(uint32(i % 3))
		if err := h.multicast("p0", seq, annot, nil); err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", last) })
	}
	if err := h.members["p1"].eng.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range h.pids {
		h.waitView(p, 2)
	}
	h.verify()
}

func TestStabilityAcrossViewChanges(t *testing.T) {
	// Frontiers are global per sender; pruning must keep working in later
	// views after the per-view gossip table resets.
	h := newGroup(t, harnessOpts{n: 2, rel: obsolete.Empty{}, stability: 3 * time.Millisecond})
	var seq ident.Seq
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			seq++
			if err := h.multicast("p0", seq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		for _, p := range h.pids {
			h.waitView(p, ident.ViewID(2+round))
		}
	}
	// After the last view change, new traffic must still stabilise.
	for i := 0; i < 10; i++ {
		seq++
		if err := h.multicast("p0", seq, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range h.pids {
		h.waitDelivered(p, func(log []check.Event) bool { return hasSeq(log, "p0", seq) })
	}
	deadline := time.After(10 * time.Second)
	for {
		st := h.members["p1"].eng.Stats()
		if st.HistoryLen == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("history never drained in the final view: %+v", st)
		case <-time.After(2 * time.Millisecond):
		}
	}
	h.verify()
}

// sentMsg is one send a recordingEndpoint captured.
type sentMsg struct {
	to  ident.PID
	msg any
}

// recordingEndpoint records every send instead of delivering it.
type recordingEndpoint struct {
	transport.Endpoint
	sent []sentMsg
}

func (r *recordingEndpoint) Send(to ident.PID, _ ident.GroupID, _ transport.Channel, m any) error {
	r.sent = append(r.sent, sentMsg{to: to, msg: m})
	return nil
}

// takeSent returns and clears the recorded sends.
func (r *recordingEndpoint) takeSent() []sentMsg {
	out := r.sent
	r.sent = nil
	return out
}

// newLoopless builds an engine whose protocol loop never runs: the test
// goroutine plays the loop and calls its handlers directly, so every
// step happens in a fixed order. Sends are recorded, not delivered.
func newLoopless(t *testing.T, cfg Config) (*Engine, *recordingEndpoint) {
	t.Helper()
	ep, err := transport.NewMemNetwork().Endpoint(cfg.Self)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingEndpoint{Endpoint: ep}
	det := fd.NewManual()
	cfg.Endpoint, cfg.Detector = rec, det
	cfg.Obs = obs.New(obs.NewFake(time.Unix(0, 0)), nil, nil)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		e.cancel() // releases the decision watchers onInit spawned
		det.Stop()
		ep.Close()
	})
	return e, rec
}

func dataRun(view ident.ViewID, sender ident.PID, from, to ident.Seq) []DataMsg {
	var out []DataMsg
	for seq := from; seq <= to; seq++ {
		out = append(out, DataMsg{View: view, Meta: obsolete.Msg{Sender: sender, Seq: seq}})
	}
	return out
}

// sentKinds splits recorded sends into INITs and PREDs by destination.
func sentKinds(sent []sentMsg) (inits map[ident.PID]InitMsg, preds map[ident.PID]PredMsg) {
	inits, preds = make(map[ident.PID]InitMsg), make(map[ident.PID]PredMsg)
	for _, s := range sent {
		switch m := s.msg.(type) {
		case InitMsg:
			inits[s.to] = m
		case PredMsg:
			preds[s.to] = m
		}
	}
	return inits, preds
}

func TestStabilityDeferredInitKeepsFrontier(t *testing.T) {
	// A joiner receives the INIT of the next change before the state
	// transfer that installs its first view. The INIT is deferred and
	// replayed at the install; its frontier row must survive, so the
	// joiner's PRED goes out once the remaining members report, without
	// waiting for a suspicion that never comes.
	members := ident.NewPIDs("p0", "p1", "p2", "p3")
	e, rec := newLoopless(t, Config{Self: "p3", Join: &JoinSpec{Contacts: ident.NewPIDs("p0")}})
	reported := []ident.Seq{5, 0, 0, 0} // p0's stream up to 5
	e.onCtl(transport.Envelope{From: "p1", Msg: InitMsg{View: 2, Recv: reported}})
	if len(e.deferredCtl) != 1 || e.recvTable["p1"] != nil {
		t.Fatalf("INIT for an uninstalled view not deferred: deferred %d, row %v", len(e.deferredCtl), e.recvTable["p1"])
	}

	// The transfer installs view 2 with p0's five messages unstable.
	e.onCtl(transport.Envelope{From: "p0", Msg: StateMsg{
		View: 2, Members: members, Recv: map[ident.PID]ident.Seq{"p0": 5}, Backlog: dataRun(2, "p0", 1, 5),
	}})
	if !e.blocked {
		t.Fatal("replayed INIT did not block the joiner")
	}
	if got := e.recvTable["p1"]["p0"]; got != 5 {
		t.Fatalf("p1's replayed frontier row lost: p0 at %d, want 5", got)
	}
	inits, preds := sentKinds(rec.takeSent())
	for _, p := range members.Without(ident.NewPIDs("p3")) {
		if m, ok := inits[p]; !ok || !reflect.DeepEqual(m.Recv, reported) {
			t.Fatalf("forwarded INIT to %s = %+v (sent %v), want frontier %v", p, m, ok, reported)
		}
	}
	if len(preds) != 0 {
		t.Fatalf("PRED sent before p0 and p2 reported: %v", preds)
	}

	e.onCtl(transport.Envelope{From: "p0", Msg: InitMsg{View: 2, Recv: reported}})
	if _, preds := sentKinds(rec.takeSent()); len(preds) != 0 {
		t.Fatalf("PRED sent before p2 reported: %v", preds)
	}
	e.onCtl(transport.Envelope{From: "p2", Msg: InitMsg{View: 2, Recv: reported}})
	_, preds = sentKinds(rec.takeSent())
	if len(preds) != len(members) {
		t.Fatalf("PRED sent to %d members, want %d", len(preds), len(members))
	}
	if m := preds["p0"]; len(m.Msgs) != 0 {
		t.Fatalf("PRED carries %d messages every member holds", len(m.Msgs))
	}
}

func TestStabilityFrontierIgnoresMalformed(t *testing.T) {
	// A frontier whose length does not match the view, or that comes
	// from outside it, is ignored after a codec round trip: never
	// indexed out of range, never counted as a report.
	members := ident.NewPIDs("p0", "p1", "p2")
	e, rec := newLoopless(t, Config{Self: "p0", InitialView: View{ID: 1, Members: members}})
	for _, bad := range []struct {
		from ident.PID
		recv []ident.Seq
	}{
		{"p1", nil},
		{"p1", []ident.Seq{}},
		{"p1", []ident.Seq{9}},
		{"p1", []ident.Seq{9, 9, 9, 9}},
		{"px", []ident.Seq{9, 9, 9}},
	} {
		raw, err := codec.Marshal(nil, InitMsg{View: 1, Recv: bad.recv})
		if err != nil {
			t.Fatal(err)
		}
		m, err := codec.UnmarshalBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		e.onCtl(transport.Envelope{From: bad.from, Msg: m})
		if row := e.recvTable[bad.from]; row != nil {
			t.Fatalf("frontier %v from %s recorded: %v", bad.recv, bad.from, row)
		}
		if e.initFrom.Contains(bad.from) {
			t.Fatalf("frontier %v from %s counted as a report", bad.recv, bad.from)
		}
	}
	// The INITs still started the change (p1 is a member); only p0's own
	// frontier counts as reported, and with nothing unstable to flush its
	// empty PRED went out at once.
	if !e.blocked || !e.initFrom.Equal(ident.NewPIDs("p0")) {
		t.Fatalf("blocked %v, reports %v; want blocked with p0's own report only", e.blocked, e.initFrom)
	}
	if _, preds := sentKinds(rec.takeSent()); len(preds) != len(members) {
		t.Fatalf("empty PRED sent to %d members, want %d at once", len(preds), len(members))
	}
}

// frontierCovers checks the invariant coveredLocally relies on: every
// data entry either queue holds is at or below its sender's reception
// frontier (lastSent for the engine's own stream). Call it only while no
// loop runs the engine.
func frontierCovers(e *Engine) error {
	var err error
	check := func(it *queue.Item) bool {
		if it.Kind != queue.Data {
			return true
		}
		f := e.recvMax[it.Meta.Sender]
		if it.Meta.Sender == e.cfg.Self {
			f = e.lastSent
		}
		if it.Meta.Seq > f {
			err = fmt.Errorf("%s holds %s:%d above its frontier %d", e.cfg.Self, it.Meta.Sender, it.Meta.Seq, f)
		}
		return err == nil
	}
	e.toDeliver.EachRef(check)
	e.delivered.EachRef(check)
	return err
}

// stopAndCheckFrontiers stops every member's engine and requires the
// frontier invariant of its final state.
func (h *groupHarness) stopAndCheckFrontiers() {
	h.t.Helper()
	for _, p := range h.pids {
		e := h.members[p].eng
		e.Stop()
		if err := frontierCovers(e); err != nil {
			h.t.Error(err)
		}
	}
}

func TestStabilityFrontierCoversQueues(t *testing.T) {
	t.Run("accept and flush adoption", func(t *testing.T) {
		// p2's application is paused, so what it accepted and what it
		// adopts from the flush stays queued.
		h := newGroup(t, harnessOpts{n: 3, rel: obsolete.Empty{}})
		h.members["p2"].mu.Lock()
		h.members["p2"].paused = true
		h.members["p2"].mu.Unlock()
		for seq := ident.Seq(1); seq <= 10; seq++ {
			if seq == 6 {
				h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 5) })
				h.net.Cut("p0", "p2")
			}
			if err := h.multicast("p0", seq, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		h.waitDelivered("p1", func(log []check.Event) bool { return hasSeq(log, "p0", 10) })
		h.net.Heal("p0", "p2")
		if err := h.members["p0"].eng.RequestViewChange(); err != nil {
			t.Fatal(err)
		}
		waitStats(t, h, func(st Stats) bool { return st.View == 2 })
		if st := h.members["p2"].eng.Stats(); st.FlushAdded == 0 {
			t.Fatalf("p2 adopted nothing from the flush: %+v", st)
		}
		h.stopAndCheckFrontiers()
	})

	t.Run("join seeding", func(t *testing.T) {
		// The sponsor's frontier lags its own backlog (p0 at 3, backlog
		// to 5) and the backlog carries the joiner's earlier stream.
		e, _ := newLoopless(t, Config{Self: "p3", Join: &JoinSpec{Contacts: ident.NewPIDs("p0")}})
		backlog := append(dataRun(2, "p0", 1, 5), dataRun(2, "p3", 1, 2)...)
		e.onCtl(transport.Envelope{From: "p0", Msg: StateMsg{
			View: 2, Members: ident.NewPIDs("p0", "p3"), Recv: map[ident.PID]ident.Seq{"p0": 3}, Backlog: backlog,
		}})
		if e.joining {
			t.Fatal("state transfer not installed")
		}
		if err := frontierCovers(e); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("merge install", func(t *testing.T) {
		// The union decision's flush carries the far side's backlog above
		// its decided frontier.
		e, _ := newLoopless(t, Config{Self: "p0", InitialView: View{ID: 3, Members: ident.NewPIDs("p0")}})
		e.merge = &mergeState{started: e.clock.Now()}
		e.blocked = true
		e.install(consensusValue{
			Next: View{Epoch: 7, ID: 4, Members: ident.NewPIDs("p0", "p1")},
			Pred: dataRun(2, "p1", 1, 4),
			Recv: map[ident.PID]ident.Seq{"p1": 2},
		})
		if err := frontierCovers(e); err != nil {
			t.Fatal(err)
		}
	})
}
