package core

// merge.go implements partition healing: the discovery, split and merge
// protocol enabled by Config.Heal.
//
// A network partition leaves the group in one of two shapes. The majority
// side completes its view change normally and evicts the unreachable
// minority. The minority, under plain SVS, wedges: it blocks at t5 and can
// never reach the majority quorum its consensus instance needs. With
// healing enabled the reachable minority instead *splits* — it declares
// the set of members it can still see and continues as a sub-view under a
// fresh lineage epoch (ident.ViewRef), so its view numbering can advance
// without ever colliding with the majority's.
//
// When the partition heals, members discover each other again through
// probes — tiny beacons sent to every process a member once shared a view
// with but no longer does (Engine.former) — and drive both sub-views into
// a *merge*:
//
//	probe ───────▶ far side (different epoch detected)
//	MergeMsg ────▶ union     (both sides' refs + memberships, flooded)
//	MergePredMsg ▶ union     (each member's relation-purged backlog +
//	                          reception frontiers — the bidirectional
//	                          semantic state exchange, O(window) per side)
//	consensus(union ref) ───▶ union view installs on both sides
//
// The union view's flush set is the deduplicated, re-purged combination of
// every contribution, so each side delivers the other's relation-surviving
// backlog before the union-view marker — the SVS guarantee holds across
// the merge exactly as it does across an ordinary view change.
//
// Concurrency discipline: every handler here runs on the engine loop; the
// state machine tolerates concurrent proposals (an ordinary change, a
// shrinking series of split declarations, a merge) through the
// Engine.pendingNext ledger — the first decided successor wins and every
// other decision is counted as ignored. Races that slip through (e.g. a
// split and an ordinary change both deciding on opposite sides of a
// flapping partition) leave the loser on a divergent lineage, which the
// member-with-different-epoch probe case below detects and re-merges: the
// protocol converges by construction instead of enumerating every
// interleaving.

import (
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// mergeSide is one sub-view being merged: its global ref and membership.
type mergeSide struct {
	ref     ident.ViewRef
	members ident.PIDs
}

// mergeState is the loop-owned state of an in-flight merge.
type mergeState struct {
	// ref names the union view under decision; its consensus instance is
	// registered in Engine.pendingNext like any other candidate successor.
	ref ident.ViewRef
	// sides are the two sub-views, normalised so sides[0].ref is the
	// lesser — every participant derives the identical state from the
	// same announcement.
	sides [2]mergeSide
	// union is the combined membership — the consensus participant set
	// and the audience of every merge message.
	union ident.PIDs
	// contrib collects each member's state contribution; declined lists
	// members that answered they were expelled meanwhile.
	contrib  map[ident.PID]*MergePredMsg
	declined ident.PIDs
	proposed bool
	// started/deadline drive the merge-duration histogram and the abort
	// timeout (HealSpec.MergeTimeout).
	started  time.Time
	deadline time.Time
	bytesIn  uint64
}

// onHealTick fires every HealSpec.ProbeInterval: beacon the processes we
// lost to a partition, and time out a merge that stopped making progress.
func (e *Engine) onHealTick() {
	now := e.clock.Now()
	if e.merge != nil {
		if now.After(e.merge.deadline) {
			e.abortMerge("timeout")
		}
		return
	}
	if e.blocked || e.joining || e.expelled || len(e.former) == 0 {
		return
	}
	probe := ProbeMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: e.cv.Members.Clone()}
	for p := range e.former {
		e.send(p, transport.Ctl, probe)
	}
}

// onProbe classifies a discovery beacon. The sender considers us a former
// member (probes only target those), so the interesting cases are all
// disagreements about who belongs where.
func (e *Engine) onProbe(from ident.PID, m ProbeMsg) {
	if e.cfg.Heal == nil || e.joining || e.expelled || e.merge != nil {
		return
	}
	ref := m.Ref()
	members := ident.NewPIDs(m.Members...)
	if !members.Contains(from) {
		return // malformed: a probe speaks for the sender's own view
	}
	if ref.Epoch != e.cv.Epoch {
		// Another lineage. Usually the healed far side of a partition; if
		// from is currently *our* member, the group diverged (e.g. a split
		// and an ordinary change both decided) — either way the union of
		// the two views reconverges everyone.
		e.maybeStartMerge(mergeSide{ref: ref, members: members})
		return
	}
	// Same lineage: one of us is simply behind.
	switch {
	case ref.ID > e.cv.ID && !members.Contains(e.cfg.Self):
		// Proof that a newer view of our own lineage excludes us: the
		// group evicted us while we were cut off. Retire.
		e.retireExpelled(ref, members)
	case ref.ID < e.cv.ID && !e.blocked && !e.cv.Includes(from):
		// The prober is the stale one; answer with our view so it can
		// draw the same conclusion.
		e.send(from, transport.Ctl,
			ProbeMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: e.cv.Members.Clone()})
	}
}

// retireExpelled delivers the expulsion a probe proved: a newer view of
// our own lineage does not include us, so the eviction decided while we
// were unreachable and its decide flood never found us.
func (e *Engine) retireExpelled(ref ident.ViewRef, members ident.PIDs) {
	e.expelled = true
	e.blocked = false
	e.blockStart = time.Time{}
	e.m.blockedG.Set(0)
	clear(e.pendingNext)
	e.ev.Expelled(uint64(ref.ID))
	for _, m := range e.multicastQ {
		m.mcC <- mcResult{err: ErrExpelled}
	}
	e.multicastQ = nil
	e.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(ref.ID), Epoch: uint64(ref.Epoch),
		Ctl: View{Epoch: ref.Epoch, ID: ref.ID, Members: members.Clone()},
	})
	e.serveDeliveries()
}

// ---- split: a reachable minority continues under a fresh lineage ------------

// checkSplit fires from checkPropose when every reachable pred is in but
// the members form a minority: the ordinary change can never decide (its
// quorum is unreachable), so the reachable set continues as a sub-view
// under a split epoch. The lowest reachable member declares the split; if
// it dies, growing suspicion shrinks the reachable set until a surviving
// member finds itself lowest — a rotating proposer, with every declared
// continuation registered in pendingNext so whichever decides first wins.
func (e *Engine) checkSplit() {
	if e.cfg.Heal == nil || e.joining {
		return
	}
	var split ident.PIDs
	for _, p := range e.predReceived {
		if !e.cfg.Detector.Suspected(p) {
			split = split.Add(p)
		}
	}
	split = split.Without(e.leave)
	if len(split) == 0 || !split.Contains(e.cfg.Self) || split[0] != e.cfg.Self {
		return
	}
	ref := ident.ViewRef{Epoch: SplitEpoch(e.cv.Ref(), split), ID: e.cv.ID + 1}
	if e.pendingNext[ref] {
		return // this exact continuation is already declared and pending
	}
	e.ev.SplitDeclared(ref.String(), len(split))
	msg := SplitMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Members: split.Clone()}
	for _, p := range split {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, msg)
		}
	}
	e.adoptSplit(split)
}

// onSplit handles a split declaration from the reachable set's leader.
func (e *Engine) onSplit(from ident.PID, m SplitMsg) {
	if e.cfg.Heal == nil || e.joining || e.merge != nil || !e.blocked {
		return
	}
	if m.Ref() != e.cv.Ref() {
		return
	}
	members := ident.NewPIDs(m.Members...)
	if len(members) == 0 || members[0] != from || !members.Contains(e.cfg.Self) {
		return // only the declared set's lowest member may declare
	}
	for _, p := range members {
		if !e.predReceived.Contains(p) {
			// We cannot yet cover every declared member's deliveries, so
			// we must not propose — but the declaration is legitimate, so
			// watch the instance for the decide flood.
			e.awaitDecision(ident.ViewRef{Epoch: SplitEpoch(e.cv.Ref(), members), ID: e.cv.ID + 1})
			return
		}
	}
	e.adoptSplit(members)
}

// adoptSplit registers the split continuation and proposes it: the next
// view is the declared set, under an epoch derived from (parent ref,
// member set) so concurrent declarations for different sets occupy
// different consensus instances.
func (e *Engine) adoptSplit(members ident.PIDs) {
	ref := ident.ViewRef{Epoch: SplitEpoch(e.cv.Ref(), members), ID: e.cv.ID + 1}
	e.awaitDecision(ref)
	next := View{Epoch: ref.Epoch, ID: ref.ID, Members: members.Clone()}
	e.propose(consensusValue{Next: next, Pred: sortedPred(e.globalPred)}, members)
}

// ---- merge: two sub-views reconverge into their union -----------------------

// maybeStartMerge begins a merge with the remote sub-view a probe
// revealed, if no change or merge is already in flight.
func (e *Engine) maybeStartMerge(remote mergeSide) {
	if e.merge != nil || e.blocked || e.joining || e.expelled {
		return
	}
	if remote.ref == e.cv.Ref() {
		return
	}
	e.startMerge(mergeSide{ref: e.cv.Ref(), members: e.cv.Members.Clone()}, remote)
}

// mergeRefFor names the union view of two sub-views: a fresh epoch hashed
// from both parent refs, one past the higher of the two view numbers — so
// both sides' numbering is respected and re-runs of the same merge land on
// the same instance.
func mergeRefFor(a, b ident.ViewRef) ident.ViewRef {
	maxID := a.ID
	if b.ID > maxID {
		maxID = b.ID
	}
	return ident.ViewRef{Epoch: MergeEpoch(a, b), ID: maxID + 1}
}

// startMerge blocks the engine and runs the merge handshake: announce the
// merge to the union, extend the failure detector across it, contribute
// our own state, and watch the union instance for the decision. Both
// initiators (each side probes the other) derive the identical normalised
// state, so their floods are idempotent.
func (e *Engine) startMerge(a, b mergeSide) {
	if b.ref.Less(a.ref) {
		a, b = b, a
	}
	ref := mergeRefFor(a.ref, b.ref)
	union := a.members.Union(b.members)
	now := e.clock.Now()
	e.merge = &mergeState{
		ref:      ref,
		sides:    [2]mergeSide{a, b},
		union:    union,
		contrib:  make(map[ident.PID]*MergePredMsg),
		started:  now,
		deadline: now.Add(e.cfg.Heal.MergeTimeout),
	}
	e.blocked = true
	e.blockStart = now
	e.m.blockedG.Set(1)
	e.ev.MergeStarted(ref.String(), a.ref.String(), b.ref.String(), len(union))
	// Unaccepted arrivals: covered by their senders' contributions.
	e.pendingHead = nil
	e.pendingRest = e.pendingRest[:0]
	e.pendingPos = 0
	// Extend the heartbeat fanout across the union: the propose condition
	// below needs suspicion to develop for far-side members that died.
	if pd, ok := e.cfg.Detector.(interface{ SetPeers(ident.PIDs) }); ok {
		pd.SetPeers(union)
	}
	// Flood the announcement (everyone re-floods once, so the handshake
	// survives the initiator crashing mid-broadcast), then contribute.
	// Per-link FIFO guarantees every peer sees our announcement before
	// our contribution.
	ann := MergeMsg{
		A: MergeSide{View: a.ref.ID, Epoch: a.ref.Epoch, Members: a.members.Clone()},
		B: MergeSide{View: b.ref.ID, Epoch: b.ref.Epoch, Members: b.members.Clone()},
	}
	for _, p := range union {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, ann)
		}
	}
	contrib := MergePredMsg{Merge: ref, Msgs: e.localPred(true), Recv: e.recvSnapshot()}
	for _, p := range union {
		e.send(p, transport.Ctl, contrib) // including self: loopback keeps one code path
	}
	e.awaitDecision(ref)
}

// onMerge handles a merge announcement: if it names our current view as
// one side, adopt it and run the same handshake as the initiator.
func (e *Engine) onMerge(from ident.PID, m MergeMsg) {
	if e.cfg.Heal == nil || e.joining {
		return
	}
	a := mergeSide{ref: m.A.Ref(), members: ident.NewPIDs(m.A.Members...)}
	b := mergeSide{ref: m.B.Ref(), members: ident.NewPIDs(m.B.Members...)}
	if e.merge != nil || e.blocked {
		// Already merging (this announcement is the flood echo), or an
		// ordinary change is mid-flight — its install or abort comes
		// first; the far side times out and re-probes.
		return
	}
	cur := e.cv.Ref()
	if cur != a.ref && cur != b.ref {
		return // stale announcement for a view we have moved past
	}
	// Our own side's membership is consensus-agreed state; use the
	// authoritative copy (it equals the announced one at every correct
	// sender).
	if cur == a.ref {
		a.members = e.cv.Members.Clone()
	} else {
		b.members = e.cv.Members.Clone()
	}
	e.startMerge(a, b)
}

// declineMerge answers a merge announcement that names this process on a
// side it was since expelled from: a broadcast "count me out", so the
// union can proceed without waiting for suspicion to develop.
func (e *Engine) declineMerge(m MergeMsg) {
	ref := mergeRefFor(m.A.Ref(), m.B.Ref())
	union := ident.NewPIDs(m.A.Members...).Union(ident.NewPIDs(m.B.Members...))
	msg := MergePredMsg{Merge: ref, Decline: true}
	for _, p := range union {
		if p != e.cfg.Self {
			e.send(p, transport.Ctl, msg)
		}
	}
}

// onMergePred collects one member's merge contribution (or decline).
func (e *Engine) onMergePred(from ident.PID, m MergePredMsg) {
	if e.merge == nil || m.Merge != e.merge.ref || !e.merge.union.Contains(from) {
		return // not merging, a different merge, or an outsider
	}
	if m.Decline {
		e.merge.declined = e.merge.declined.Add(from)
	} else if e.merge.contrib[from] == nil {
		c := m
		e.merge.contrib[from] = &c
		size := uint64(mergePredBytes(m))
		e.merge.bytesIn += size
		e.m.mergeBytesRecv.Add(size)
	}
	e.checkMergePropose()
}

// checkMergePropose fires the union-view proposal once, per side, every
// non-declined member has either contributed or become suspected, and the
// contributors form a majority of the side. The first condition is the SVS
// obligation — a proposal may only omit a member it excludes from the
// union view, since an excluded member never installs the union and so
// never forms a delivery-coverage pair with those who do. The second keeps
// a merge from installing a union view dominated by one side's wreckage.
func (e *Engine) checkMergePropose() {
	mg := e.merge
	if mg == nil || mg.proposed {
		return
	}
	for i := range mg.sides {
		eligible := mg.sides[i].members.Without(mg.declined)
		contributed := 0
		for _, p := range eligible {
			if mg.contrib[p] != nil {
				contributed++
				continue
			}
			if !e.cfg.Detector.Suspected(p) {
				return // still waiting on a live member
			}
		}
		if 2*contributed <= len(eligible) {
			return
		}
	}
	mg.proposed = true

	var members ident.PIDs
	combined := make(map[obsolete.MsgID]DataMsg)
	recv := make(map[ident.PID]ident.Seq)
	for p, c := range mg.contrib {
		members = members.Add(p)
		for _, dm := range c.Msgs {
			combined[dm.Meta.ID()] = dm
		}
		for s, q := range c.Recv {
			if q > recv[s] {
				recv[s] = q
			}
		}
	}
	next := View{Epoch: mg.ref.Epoch, ID: mg.ref.ID, Members: members}
	val := consensusValue{Next: next, Pred: mergeFlush(e.rel, combined), Recv: recv}
	e.propose(val, mg.union)
}

// mergeFlush turns the combined contribution set into the union view's
// flush: deduplicated (the map key), deterministically ordered, and
// purged once more through the obsolescence relation so covers across
// contributions collapse. Purging never relates across view tags, so one
// side's backlog cannot purge the other's — each side stays O(window) and
// the flush is at most the sum of both.
func mergeFlush(rel obsolete.Relation, combined map[obsolete.MsgID]DataMsg) []DataMsg {
	msgs := sortedPred(combined)
	snap := queue.New(rel, 0)
	for _, dm := range msgs {
		_, _ = snap.AppendPurge(queue.Item{
			Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch),
			Meta: dm.Meta, Payload: dm.Payload,
		})
	}
	out := make([]DataMsg, 0, snap.Len())
	snap.EachRef(func(it *queue.Item) bool {
		out = append(out, DataMsg{
			View: ident.ViewID(it.View), Epoch: ident.Epoch(it.Epoch),
			Meta: it.Meta, Payload: it.Payload,
		})
		return true
	})
	return out
}

// finishMerge records the completed merge; install() has already adopted
// the flush, the frontiers and the union view.
func (e *Engine) finishMerge(val consensusValue) {
	mg := e.merge
	e.m.mergesTotal.Inc()
	took := e.clock.Since(mg.started)
	e.m.mergeDur.ObserveDuration(took)
	e.m.mergeBytes.Observe(float64(mg.bytesIn))
	e.ev.MergeComplete(val.Next.Ref().String(), len(val.Next.Members), len(val.Pred), int(mg.bytesIn), took)
}

// abortMerge abandons a merge whose union decision did not arrive in
// time — the partition re-opened mid-handshake, or a side was wedged in
// its own view change. The engine unblocks, restores its view-scoped
// detector fanout and puts the far side back on the probe list; a later
// probe retries the merge on the same (deterministic) instance.
func (e *Engine) abortMerge(reason string) {
	mg := e.merge
	e.merge = nil
	delete(e.pendingNext, mg.ref)
	e.blocked = false
	e.blockStart = time.Time{}
	e.m.blockedG.Set(0)
	e.m.mergeAborts.Inc()
	e.ev.MergeAborted(mg.ref.String(), reason)
	for _, p := range mg.union {
		if p != e.cfg.Self && !e.cv.Includes(p) {
			e.former[p] = struct{}{}
		}
	}
	if pd, ok := e.cfg.Detector.(interface{ SetPeers(ident.PIDs) }); ok {
		pd.SetPeers(e.cv.Members)
	}
	e.serveDeliveries()
	e.retryParked()
}

// mergePredBytes is the wire size of one merge contribution — what the
// merge benchmarks compare between semantic and reliable configurations.
func mergePredBytes(m MergePredMsg) int {
	b, err := codec.Marshal(nil, m)
	if err != nil {
		return 0
	}
	return len(b)
}
