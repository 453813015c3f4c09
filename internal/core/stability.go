package core

import (
	"math"

	"repro/internal/ident"
	"repro/internal/queue"
	"repro/internal/transport"
)

// Stability: which messages every member has received.
//
// §2.1 of the paper observes that a view-synchronous protocol must keep a
// message buffered "until it is known to be stable, i.e. received by all
// processes", because the view-change flush may need any process to
// retransmit it. A message from s with sequence number at or below the
// minimum reception frontier over every current member has been received
// everywhere: each member either still buffers it, already delivered it,
// or purged/discarded it under a covering message — in all three cases
// the SVS obligations for it are met without flushing it. Flushing only
// the rest is what keeps view changes cheap (§5.4).
//
// Frontiers reach the engine two ways, and both merge into one table
// (recvTable) by per-sender maximum, so the fresher report wins:
//
//   - On the INIT round of every view change (always on). Each member
//     reports its frontier on the INIT it sends to every member anyway
//     (InitMsg.Recv). A member with anything not yet known stable in its
//     pred set holds its PRED until every member it does not suspect has
//     reported, then leaves out every message at or below the minimum
//     frontier over all members; a member that never reported counts as
//     0, so a crashed or silent one falls back to the full flush. The
//     flush and the consensus value are then O(messages in flight), not
//     O(view history). The cut shrinks the PRED only: the delivery
//     history, and with it a joiner's backlog, is left as it is.
//   - Between view changes, by gossip (Config.StabilityInterval > 0).
//     Every interval each member sends its frontier (StableMsg); the
//     stable frontier they yield drops stable entries from the delivery
//     history, bounding memory in long-lived views.

// StableMsg is the reception-frontier gossip.
type StableMsg struct {
	View  ident.ViewID
	Epoch ident.Epoch
	// Recv maps each sender to the highest sequence number the reporter
	// has received from it (reception is FIFO, so frontiers are dense).
	Recv map[ident.PID]ident.Seq
}

// recvSnapshot copies this process's per-sender reception frontier,
// including its own stream: everything we multicast is trivially received
// here. Both the stability gossip and the join state transfer ship it.
func (e *Engine) recvSnapshot() map[ident.PID]ident.Seq {
	recv := make(map[ident.PID]ident.Seq, len(e.recvMax)+1)
	for s, q := range e.recvMax {
		recv[s] = q
	}
	if e.lastSent > recv[e.cfg.Self] {
		recv[e.cfg.Self] = e.lastSent
	}
	return recv
}

// gossipStability broadcasts this process's reception frontier.
func (e *Engine) gossipStability() {
	if e.expelled || e.blocked {
		return
	}
	m := StableMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Recv: e.recvSnapshot()}
	for _, p := range e.cv.Members {
		if p == e.cfg.Self {
			e.onStable(p, m)
			continue
		}
		e.send(p, transport.Ctl, m)
	}
}

// onStable folds a frontier report into the stability table.
func (e *Engine) onStable(from ident.PID, m StableMsg) {
	if m.View != e.cv.ID || m.Epoch != e.cv.Epoch || !e.cv.Includes(from) {
		return
	}
	row := e.recvRow(from)
	for s, q := range m.Recv {
		if q > row[s] {
			row[s] = q
		}
	}
	e.recomputeStable()
}

// recvRow returns from's row of the frontier table, creating it.
func (e *Engine) recvRow(from ident.PID) map[ident.PID]ident.Seq {
	if e.recvTable == nil {
		e.recvTable = make(map[ident.PID]map[ident.PID]ident.Seq)
	}
	row := e.recvTable[from]
	if row == nil {
		row = make(map[ident.PID]ident.Seq, len(e.cv.Members))
		e.recvTable[from] = row
	}
	return row
}

// frontier is this process's reception frontier over the current view's
// members, indexed by rank in the sorted member list: the compact form an
// INIT carries.
func (e *Engine) frontier() []ident.Seq {
	out := make([]ident.Seq, len(e.cv.Members))
	for i, p := range e.cv.Members {
		out[i] = e.recvMax[p]
		if p == e.cfg.Self && e.lastSent > out[i] {
			out[i] = e.lastSent
		}
	}
	return out
}

// onInitFrontier folds the frontier an INIT of the current view carries
// into the table and re-checks a PRED waiting for it. A frontier from
// outside the view, or whose length does not match it, is ignored. It
// does not advance the stable frontier: the cut shrinks the flush, never
// the delivery history.
func (e *Engine) onInitFrontier(from ident.PID, m InitMsg) {
	if m.View != e.cv.ID || m.Epoch != e.cv.Epoch || len(m.Recv) != len(e.cv.Members) || !e.cv.Includes(from) {
		return
	}
	row := e.recvRow(from)
	for i, q := range m.Recv {
		if s := e.cv.Members[i]; q > row[s] {
			row[s] = q
		}
	}
	e.initFrom = e.initFrom.Add(from)
	e.sendPred()
}

// sendPred disseminates the PRED this member owes since it blocked (t5).
// With nothing unstable in it, it goes at once. Otherwise it waits until
// every member this process does not suspect has reported its frontier on
// the INIT round, and then carries only the messages some member lacks.
func (e *Engine) sendPred() {
	if !e.predOwed {
		return
	}
	msgs := e.ownPred
	if len(msgs) > 0 {
		for _, p := range e.cv.Members {
			if !e.initFrom.Contains(p) && !e.cfg.Detector.Suspected(p) {
				return
			}
		}
		msgs = e.keepUnreceived(msgs)
	}
	e.predOwed, e.ownPred = false, nil
	pred := PredMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Msgs: msgs}
	for _, p := range e.cv.Members {
		e.send(p, transport.Ctl, pred)
	}
}

// keepUnreceived filters msgs in place down to the messages some member
// may lack: those above their sender's minimum frontier over all current
// members. A member with no row holds every sender at 0, and a sender
// outside the view has no floor, so neither ever excludes anything.
func (e *Engine) keepUnreceived(msgs []DataMsg) []DataMsg {
	floor := make(map[ident.PID]ident.Seq, len(e.cv.Members))
	for _, s := range e.cv.Members {
		min := ident.Seq(math.MaxUint64)
		for _, q := range e.cv.Members {
			if v := e.recvTable[q][s]; v < min {
				min = v
			}
		}
		floor[s] = min
	}
	out := msgs[:0]
	for _, dm := range msgs {
		if dm.Meta.Seq > floor[dm.Meta.Sender] {
			out = append(out, dm)
		}
	}
	return out
}

// recomputeStable derives the group-wide stable frontier: per sender, the
// minimum frontier over every current member. Members that have not
// reported yet hold everything at zero.
func (e *Engine) recomputeStable() {
	if e.stable == nil {
		e.stable = make(map[ident.PID]ident.Seq)
	}
	senders := make(map[ident.PID]struct{})
	for _, row := range e.recvTable {
		for s := range row {
			senders[s] = struct{}{}
		}
	}
	for s := range senders {
		min := ident.Seq(0)
		first := true
		for _, q := range e.cv.Members {
			row := e.recvTable[q]
			v := row[s] // zero when q never reported (or lacks s)
			if first || v < min {
				min, first = v, false
			}
		}
		if min > e.stable[s] {
			e.stable[s] = min
		}
	}
	e.pruneStable()
}

// pruneStable drops stable entries from the delivery history: they will
// never need to be flushed, so their payloads can be reclaimed.
//
// With healing enabled the current view's entries are exempt: "received
// by all processes" is a fact about *this view's* members, but a merge
// contributes the view's non-obsolete backlog to the far side of a
// healed partition — processes the stable frontier never covered.
// Relation purging still bounds the retained history at O(window); only
// flush-adopted entries tagged with older views remain prunable.
func (e *Engine) pruneStable() {
	if len(e.stable) == 0 {
		return
	}
	removed := e.delivered.RemoveIf(func(it queue.Item) bool {
		if it.Kind != queue.Data || !e.isStable(it.Meta.Sender, it.Meta.Seq) {
			return false
		}
		if e.cfg.Heal != nil && it.View == uint64(e.cv.ID) && it.Epoch == uint64(e.cv.Epoch) {
			return false
		}
		return true
	})
	e.m.stablePruned.Add(uint64(removed))
}

// isStable reports whether message (s, seq) is known received everywhere.
func (e *Engine) isStable(s ident.PID, seq ident.Seq) bool {
	return seq <= e.stable[s]
}

// resetStabilityForView clears per-view rows and the INIT round after a
// membership change; the stable frontier itself is monotone and survives
// (sequence numbers are global per sender).
func (e *Engine) resetStabilityForView() {
	e.recvTable = make(map[ident.PID]map[ident.PID]ident.Seq)
	e.initFrom = nil
	e.ownPred, e.predOwed = nil, false
}
