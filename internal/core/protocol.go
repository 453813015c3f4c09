package core

import (
	"context"
	"errors"
	"log/slog"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// pidStrings renders a PID set for an event attribute.
func pidStrings(ps ident.PIDs) []string {
	if len(ps) == 0 {
		return nil
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}

// ---- t2: multicast -------------------------------------------------------

func (e *Engine) onMulticastReq(req *request) {
	// Park while a join is still in flight: the first view (and with it
	// membership and flow windows) arrives with the state transfer.
	if e.joining {
		e.park(req)
		return
	}
	e.committing = true
	done := e.advance(req)
	e.committing = false
	if !done {
		e.park(req)
	}
	// Committing (and the purges it caused) may have unblocked the
	// parked queue; the inner retries were suppressed by the guard.
	e.retryParked()
}

// advance commits as many of req's messages as flow control and buffer
// room allow, staging the per-peer copies and flushing them as one
// coalesced envelope per peer. It returns false when the request must
// (stay) park(ed): the committed prefix is recorded in req.done, so a
// resumed request continues exactly where it stopped — semantically the
// batch behaves as that many individual multicasts back to back.
//
// Callers hold e.committing around the call: commitOne's delivery serving
// re-enters retryParked, and interleaving another request into this
// half-committed transaction would trip its sequence precheck.
func (e *Engine) advance(req *request) bool {
	n := req.batchLen()
	for req.done < n {
		meta, payload := req.msgAt(req.done)
		if err := e.multicastPrecheck(meta); err != nil {
			// Fail the message and the rest of the batch; the committed
			// prefix stands (documented in MulticastBatch).
			e.flushStage()
			req.mcC <- mcResult{err: err}
			return true
		}
		// Park while the group is blocked or buffers lack room; install,
		// credit arrivals and deliveries retry the queue head.
		if e.blocked || !e.canCommit(meta, payload) {
			e.flushStage()
			return false
		}
		e.stageHint = n - req.done
		e.commitOne(meta, payload)
		req.done++
	}
	e.flushStage()
	e.m.batchSize.Observe(float64(n))
	if !req.parkedAt.IsZero() {
		stalled := e.clock.Since(req.parkedAt)
		e.m.parkDur.ObserveDuration(stalled)
		e.ev.FlowUnblocked(uint64(e.lastSent), stalled)
		req.parkedAt = time.Time{}
	}
	req.mcC <- mcResult{view: e.cv.Ref()}
	return true
}

// park appends a multicast to the flow-control wait queue, stamping the
// stall start for the park-duration histogram.
func (e *Engine) park(req *request) {
	e.m.parks.Inc()
	if req.parkedAt.IsZero() && (e.m.parkDur != nil || e.ev != nil) {
		req.parkedAt = e.clock.Now()
		e.ev.FlowBlocked(uint64(req.curSeq()))
	}
	e.multicastQ = append(e.multicastQ, req)
}

func (e *Engine) multicastPrecheck(meta obsolete.Msg) error {
	if e.joinFailed {
		return ErrJoinTimeout
	}
	if e.expelled {
		return ErrExpelled
	}
	if !e.cv.Includes(e.cfg.Self) {
		return ErrNotMember
	}
	if meta.Seq != e.lastSent+1 {
		return ErrBadSeq
	}
	return nil
}

// canCommit reports whether the message fits everywhere it must be
// buffered, counting the entries its arrival would purge. The check is
// all-or-nothing: no queue is touched unless every queue fits, so a parked
// multicast never half-purges state it has not yet committed to send.
func (e *Engine) canCommit(meta obsolete.Msg, payload []byte) bool {
	it := e.dataItem(meta, payload)
	if fullAfterPurge(e.toDeliver, it) {
		return false
	}
	for _, p := range e.cv.Members {
		if p == e.cfg.Self {
			continue
		}
		if out := e.flow.pending(p); out != nil && !e.flow.hasCredit(p) && fullAfterPurge(out, it) {
			return false
		}
	}
	return true
}

func fullAfterPurge(q *queue.Queue, it queue.Item) bool {
	if q.Cap() == 0 {
		return false
	}
	return q.Len()-q.CountPurgeableFor(it) >= q.Cap()
}

func (e *Engine) dataItem(meta obsolete.Msg, payload []byte) queue.Item {
	meta.Sender = e.cfg.Self
	return queue.Item{
		Kind:    queue.Data,
		View:    uint64(e.cv.ID),
		Epoch:   uint64(e.cv.Epoch),
		Meta:    meta,
		Payload: payload,
	}
}

// commitOne commits a single message of the transaction advance drives:
// local append (with its purges), per-peer staging, counters. Room in
// every queue is guaranteed by canCommit.
func (e *Engine) commitOne(meta obsolete.Msg, payload []byte) {
	it := e.dataItem(meta, payload)
	dm := DataMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Meta: it.Meta, Payload: it.Payload}
	if e.m.deliverLatency != nil {
		it.At = e.clock.Now()
	}

	e.lastSent = it.Meta.Seq
	e.purgeToDeliver(it)
	e.toDeliver.ForceAppend(it) // room guaranteed by canCommit
	for _, p := range e.cv.Members {
		if p == e.cfg.Self {
			continue
		}
		e.stageData(p, dm)
	}
	e.m.multicast.Inc()
	e.serveDeliveries()
}

// stageData stages dm for transmission to p, or buffers it in the
// per-peer outgoing queue when p is out of window credits.
func (e *Engine) stageData(p ident.PID, dm DataMsg) {
	if e.flow.takeCredit(p) {
		if e.stage == nil {
			e.stage = make(map[ident.PID][]DataMsg)
		}
		s := e.stage[p]
		if s == nil {
			s = make([]DataMsg, 0, e.stageHint)
		}
		e.stage[p] = append(s, dm)
		return
	}
	out := e.flow.pending(p)
	it := queue.Item{Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload}
	n := uint64(out.PurgeForN(it))
	e.m.purgedOutgoing.Add(n)
	out.ForceAppend(it) // room guaranteed by canCommit
}

// flushStage transmits every staged per-peer run: a single message goes
// out as a plain DataMsg, a longer run as one DataBatchMsg envelope. The
// staged slices are handed to the transport (the decode side aliases
// nothing, and fault injection may duplicate the envelope), so each flush
// hands off ownership and the next transaction starts slices afresh.
func (e *Engine) flushStage() {
	if len(e.stage) == 0 {
		return
	}
	for p, msgs := range e.stage {
		switch len(msgs) {
		case 0:
		case 1:
			e.stage[p] = nil
			e.send(p, transport.Data, msgs[0])
		default:
			e.stage[p] = nil
			e.send(p, transport.Data, &DataBatchMsg{Msgs: msgs})
		}
	}
}

// ---- t3: receive data ----------------------------------------------------

// onDataBatch processes one batched receive from the data inbox. Each
// envelope carries either a single DataMsg or a DataBatchMsg run; both
// routes go through ingestData per message, so batching never changes a
// message's fate — only how many channel operations it shared.
func (e *Engine) onDataBatch(envs []transport.Envelope) {
	for i := range envs {
		switch m := envs[i].Msg.(type) {
		case DataMsg:
			e.ingestData(m)
		case *DataBatchMsg:
			for j := range m.Msgs {
				e.ingestData(m.Msgs[j])
			}
		default:
			// A data-channel envelope that is not data: miscoded or
			// hostile peer. This was an entirely silent discard before.
			e.m.dropBadType.Inc()
			e.ev.Drop(obs.DropBadType, slog.String("from", string(envs[i].From)))
		}
	}
}

// ingestData routes one arrival: process it now, or — when an earlier
// arrival of this batch is already waiting for queue space — stash it
// raw behind it, preserving per-sender FIFO. (The data inbox is gated
// while anything is pending, so the stash is bounded by one batched
// receive.)
func (e *Engine) ingestData(dm DataMsg) {
	if e.pendingHead != nil || e.pendingPos < len(e.pendingRest) {
		e.pendingRest = append(e.pendingRest, dm)
		return
	}
	if !e.processData(dm) {
		h := dm
		e.pendingHead = &h
	}
}

// processData runs the t3 receive checks for one arrival. It returns
// false only when the message passed every check (and its credit charge
// and purges were applied) but the delivery queue is full — the caller
// keeps it as pendingHead until space frees.
func (e *Engine) processData(dm DataMsg) bool {
	if e.expelled {
		e.m.dropExpelled.Inc()
		return true
	}
	if dm.View != e.cv.ID || dm.Epoch != e.cv.Epoch {
		// Not this view — stale, or another lineage's traffic racing a
		// partition merge. Either way its pred/flush obligations are
		// handled by view-change machinery, not the data path.
		e.m.dropStale.Inc()
		return true
	}
	if dm.Meta.Sender == e.cfg.Self {
		return true // never accept echoes of our own stream
	}
	// Whatever happens to it next, this arrival consumed one of the
	// credits we granted its sender (receiver-side ledger, flow.go).
	e.flow.received(dm.Meta.Sender)
	if dm.Meta.Seq <= e.recvMax[dm.Meta.Sender] || e.coveredLocally(dm.Meta) {
		// Duplicate, or an m with some m' : m ⊑ m' already queued or
		// delivered (Figure 1, t3). The slot it would have used is free.
		// Either way the message was received: advance the reception
		// frontier so stability tracking is not held back by it.
		if dm.Meta.Seq > e.recvMax[dm.Meta.Sender] {
			e.recvMax[dm.Meta.Sender] = dm.Meta.Seq
		}
		e.m.dropCovered.Inc()
		e.flow.freed(dm.Meta.Sender, e)
		return true
	}
	it := queue.Item{Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload}
	e.purgeToDeliver(it)
	if e.toDeliver.Full() {
		// Keep the arrival in the one reserved stall slot; the data inbox
		// stays closed until space frees, so per-sender FIFO holds.
		return false
	}
	e.acceptData(it)
	return true
}

func (e *Engine) acceptData(it queue.Item) {
	if e.m.deliverLatency != nil {
		it.At = e.clock.Now()
	}
	e.recvMax[it.Meta.Sender] = it.Meta.Seq
	e.toDeliver.ForceAppend(it)
	e.serveDeliveries()
	e.retryParked()
}

// retryPending re-attempts the stashed arrivals once space frees: first
// the processed head waiting on its stall slot, then the raw remainder of
// the batch behind it. Only the outermost call drains (pumpingPending):
// acceptData → serveDeliveries re-enters here, and unbounded recursion
// would grow the stack by one frame per stashed arrival.
func (e *Engine) retryPending() {
	if e.pumpingPending {
		return
	}
	e.pumpingPending = true
	defer func() { e.pumpingPending = false }()
	for !e.blocked && !e.expelled {
		if e.pendingHead != nil {
			if e.toDeliver.Full() {
				return
			}
			dm := *e.pendingHead
			e.pendingHead = nil
			if dm.View != e.cv.ID || dm.Epoch != e.cv.Epoch {
				e.m.dropStale.Inc()
				continue
			}
			it := queue.Item{Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload}
			e.acceptData(it)
			continue
		}
		if e.pendingPos < len(e.pendingRest) {
			dm := e.pendingRest[e.pendingPos]
			e.pendingRest[e.pendingPos] = DataMsg{} // release payload refs
			e.pendingPos++
			if !e.processData(dm) {
				h := dm
				e.pendingHead = &h
			}
			continue
		}
		e.pendingRest = e.pendingRest[:0]
		e.pendingPos = 0
		return
	}
}

// coveredLocally reports whether a message m with m ⊑ m' for some queued
// or delivered m' exists. Both queues answer from their sender index when
// the relation is sender-local, keeping the per-arrival check O(window).
//
// Every caller first rejects m.Seq <= recvMax[m.Sender] (or, for our own
// stream, <= lastSent), and every entry either queue holds from a sender
// is at or below that frontier: acceptData, the flush adoption in
// install, join seeding and a merge install all raise it. Under the empty
// relation only an exact duplicate covers, so the answer is known to be
// false without scanning the history.
func (e *Engine) coveredLocally(m obsolete.Msg) bool {
	if _, never := e.rel.(obsolete.Empty); never {
		return false
	}
	return e.toDeliver.Covers(m) || e.delivered.Covers(m)
}

// purgeToDeliver purges the delivery-queue entries obsoleted by it and
// releases flow-control credits for them: their buffer slots are free
// again (this is the heart of SVS's advantage — a slow receiver's window
// refills without consuming). The purged entries pass through the
// engine's reusable scratch slice, so the hot path allocates nothing.
func (e *Engine) purgeToDeliver(it queue.Item) {
	purged := e.toDeliver.PurgeForInto(it, e.purgeScratch[:0])
	e.m.purgedToDeliver.Add(uint64(len(purged)))
	for i := range purged {
		p := &purged[i]
		if p.Meta.Sender != e.cfg.Self && p.View == uint64(e.cv.ID) && p.Epoch == uint64(e.cv.Epoch) && !e.seededAtJoin(p.Meta) {
			e.flow.freed(p.Meta.Sender, e)
		}
		purged[i] = queue.Item{} // release payload references
	}
	e.purgeScratch = purged[:0]
}

// seededAtJoin reports whether a current-view entry was adopted from a
// state transfer rather than received through the sender's flow-controlled
// channel: consuming it frees no window slot, so no credit may be granted
// for it (a duplicate arriving on the channel is credited separately).
func (e *Engine) seededAtJoin(m obsolete.Msg) bool {
	return e.joinSeeded != nil && m.Seq <= e.joinSeeded[m.Sender]
}

// ---- t1: deliver ---------------------------------------------------------

// serveDeliveries hands queue heads to waiting Deliver and DeliverBatch
// calls. A batch waiter takes as many heads as its buffer holds in one
// wake-up; like Deliver it never completes empty — it waits for the first
// item (or a terminal error) instead.
func (e *Engine) serveDeliveries() {
	for len(e.deliverWaiters) > 0 {
		w := e.deliverWaiters[0]
		if w.ctx != nil && w.ctx.Err() != nil {
			e.deliverWaiters = e.deliverWaiters[1:]
			continue
		}
		if w.dst != nil {
			n := 0
			for n < len(w.dst) {
				it, ok := e.toDeliver.PopHead()
				if !ok {
					break
				}
				w.dst[n] = e.deliverItem(it)
				n++
			}
			if n == 0 {
				if e.joinFailed {
					e.deliverWaiters = e.deliverWaiters[1:]
					w.errC <- ErrJoinTimeout
					continue
				}
				if e.expelled {
					e.deliverWaiters = e.deliverWaiters[1:]
					w.errC <- ErrExpelled
					continue
				}
				return
			}
			e.deliverWaiters = e.deliverWaiters[1:]
			w.nC <- n
			continue
		}
		it, ok := e.toDeliver.PopHead()
		if !ok {
			if e.joinFailed {
				e.deliverWaiters = e.deliverWaiters[1:]
				w.errC <- ErrJoinTimeout
				continue
			}
			if e.expelled {
				e.deliverWaiters = e.deliverWaiters[1:]
				w.errC <- ErrExpelled
				continue
			}
			return
		}
		e.deliverWaiters = e.deliverWaiters[1:]
		w.delC <- e.deliverItem(it)
	}
	// Space freed by pops lets pending arrivals and parked multicasts in.
	e.retryPending()
	e.retryParked()
}

func (e *Engine) deliverItem(it queue.Item) Delivery {
	switch it.Kind {
	case queue.Control:
		v := it.Ctl.(View)
		kind := DeliverView
		if !v.Includes(e.cfg.Self) {
			kind = DeliverExpelled
		}
		return Delivery{Kind: kind, View: v.ID, Epoch: v.Epoch, NewView: v}
	default:
		e.m.delivered.Inc()
		if !it.At.IsZero() {
			e.m.deliverLatency.ObserveDuration(e.clock.Since(it.At))
		}
		if it.View == uint64(e.cv.ID) && it.Epoch == uint64(e.cv.Epoch) {
			// Keep it in the per-view history for pred sets; purge the
			// history with the same relation so it holds live items only.
			e.delivered.PurgeForN(it)
			e.delivered.ForceAppend(it)
			if it.Meta.Sender != e.cfg.Self && !e.seededAtJoin(it.Meta) {
				e.flow.freed(it.Meta.Sender, e)
			}
		}
		return Delivery{
			Kind:    DeliverData,
			View:    ident.ViewID(it.View),
			Epoch:   ident.Epoch(it.Epoch),
			Meta:    it.Meta,
			Payload: it.Payload,
		}
	}
}

// retryParked re-attempts parked multicasts in FIFO order. The head stays
// in place until its whole batch commits, so a half-committed transaction
// resumes exactly where it stopped; the committing guard keeps the
// re-entrant calls advance itself triggers from interleaving another
// request into the open transaction.
func (e *Engine) retryParked() {
	if e.joining || e.committing {
		return
	}
	e.committing = true
	defer func() { e.committing = false }()
	for len(e.multicastQ) > 0 {
		req := e.multicastQ[0]
		if req.ctx != nil && req.ctx.Err() != nil {
			e.multicastQ = e.multicastQ[1:]
			continue
		}
		if !e.advance(req) {
			return // progress is recorded in req.done; the head stays parked
		}
		e.multicastQ = e.multicastQ[1:]
	}
}

// ---- t4: trigger view change ---------------------------------------------

func (e *Engine) triggerViewChange(join, leave ident.PIDs) error {
	if e.joinFailed {
		return ErrJoinTimeout
	}
	if e.expelled {
		return ErrExpelled
	}
	if e.joining {
		return ErrJoining
	}
	if e.blocked {
		// A view change is already in progress; joiners it does not admit
		// re-request admission and are picked up by the next change.
		return nil
	}
	init := InitMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Leave: leave, Join: join, Recv: e.frontier()}
	for _, p := range e.cv.Members {
		e.send(p, transport.Ctl, init)
	}
	return nil
}

// onSuspicion reacts to failure detector events: they re-evaluate a PRED
// waiting for frontiers and the propose condition and, with AutoEvict,
// trigger eviction view changes.
func (e *Engine) onSuspicion(ev fd.Event) {
	if e.expelled {
		return
	}
	if ev.Suspected && e.cfg.AutoEvict && !e.blocked && !e.joining && e.cv.Includes(ev.P) {
		_ = e.triggerViewChange(nil, ident.NewPIDs(ev.P))
	}
	e.sendPred()
	e.checkPropose()
	e.checkMergePropose()
}

// ---- t5/t6: ctl handling ---------------------------------------------------

func (e *Engine) onCtl(env transport.Envelope) {
	if e.expelled {
		// An expelled-but-alive process still answers merge announcements
		// with a decline, so a union that names it can proceed without
		// waiting for suspicion to develop.
		if m, ok := env.Msg.(MergeMsg); ok && e.cfg.Heal != nil {
			e.declineMerge(m)
			return
		}
		e.m.dropExpelled.Inc()
		return
	}
	switch m := env.Msg.(type) {
	case InitMsg:
		if e.deferFuture(env, ident.ViewRef{Epoch: m.Epoch, ID: m.View}) {
			return
		}
		e.onInit(env.From, m)
	case PredMsg:
		if e.deferFuture(env, ident.ViewRef{Epoch: m.Epoch, ID: m.View}) {
			return
		}
		e.onPred(env.From, m)
	case CreditMsg:
		// A grant from another view must not inflate this view's window:
		// both sides re-arm to a full window at install, so crediting a
		// stale grant would double-count the slots it stood for.
		if m.View != e.cv.ID || m.Epoch != e.cv.Epoch {
			e.m.dropStaleCredit.Inc()
			e.ev.Drop(obs.DropStaleCredit, slog.String("from", string(env.From)),
				slog.Uint64("view", uint64(m.View)))
			return
		}
		e.flow.credit(env.From, m.Credits)
		e.drainOutgoing(env.From)
		e.retryParked()
	case StableMsg:
		e.onStable(env.From, m)
	case JoinReqMsg:
		e.onJoinReq(env.From)
	case StateMsg:
		e.onJoinState(env.From, m)
	case ProbeMsg:
		e.onProbe(env.From, m)
	case SplitMsg:
		e.onSplit(env.From, m)
	case MergeMsg:
		e.onMerge(env.From, m)
	case MergePredMsg:
		e.onMergePred(env.From, m)
	default:
		// A control envelope of no known kind fell through every case —
		// before, it vanished without a trace.
		e.m.dropUnknownCtl.Inc()
		e.ev.Drop(obs.DropUnknownCtl, slog.String("from", string(env.From)))
	}
}

// deferFuture stashes a control message for a view this process has not
// installed yet. A peer that already installed view v may initiate the
// change to v+1 before we finish installing v ourselves; dropping its INIT
// would strand it blocked (it cannot retransmit — it blocked itself at
// t5). The decide flood guarantees we install v shortly, at which point
// the stashed messages are replayed. The stash is bounded by
// Config.MaxDeferredCtl as a backstop against garbage from broken peers;
// drops past it are counted in Stats.CtlDeferredDropped.
//
// Cross-lineage traffic is deferred only while an epoch-changing install
// may be in flight (blocked on a merge decision, or joining — the state
// transfer may land us in a split epoch); then the replay after the
// install re-evaluates it under the new epoch. Otherwise a ref from
// another epoch is not "our future" — it is another partition's
// view-change chatter, which the merge protocol handles through its own
// messages — and is dropped as stale rather than stashed against an
// install that may never come.
func (e *Engine) deferFuture(env transport.Envelope, ref ident.ViewRef) bool {
	if ref.Epoch == e.cv.Epoch && ref.ID <= e.cv.ID {
		return false
	}
	if ref.Epoch != e.cv.Epoch && !e.blocked && !e.joining {
		e.m.dropStale.Inc()
		e.ev.Drop(obs.DropStaleView, slog.String("from", string(env.From)),
			slog.String("view", ref.String()))
		return true
	}
	if len(e.deferredCtl) < e.cfg.MaxDeferredCtl {
		e.deferredCtl = append(e.deferredCtl, env)
	} else {
		e.m.dropDefer.Inc()
		e.ev.Drop(obs.DropDeferOverflow, slog.String("from", string(env.From)),
			slog.Uint64("view", uint64(ref.ID)))
	}
	return true
}

// replayDeferred re-dispatches stashed control traffic after an install.
func (e *Engine) replayDeferred() {
	if len(e.deferredCtl) == 0 {
		return
	}
	pending := e.deferredCtl
	e.deferredCtl = nil
	for _, env := range pending {
		e.onCtl(env)
	}
}

// onInit is transition t5: block the group, adopt the leave and join
// sets, compute the local pred sequence and disseminate it once the
// members' frontiers allow (sendPred). Every INIT of the current view
// reports its sender's frontier, also one arriving after we blocked.
func (e *Engine) onInit(from ident.PID, m InitMsg) {
	if e.merge != nil && m.View == e.cv.ID && m.Epoch == e.cv.Epoch && e.cv.Includes(from) {
		// A member started an ordinary change while we were merging. The
		// change's quorum is reachable (the INIT got here) but its members
		// will not answer a merge mid-change — so yield: abort the merge
		// and join the change. The far side's probes retry the merge once
		// the change completes.
		e.abortMerge("view_change")
	}
	e.onInitFrontier(from, m)
	if m.View != e.cv.ID || e.blocked || e.joining {
		return
	}
	if !e.cv.Includes(from) {
		return
	}
	if from != e.cfg.Self {
		// Forward so every correct process initiates even if the
		// initiator crashed mid-dissemination; the copy reports our own
		// frontier.
		fwd := m
		fwd.Recv = e.frontier()
		e.onInitFrontier(e.cfg.Self, fwd)
		for _, p := range e.cv.Members {
			if p != e.cfg.Self {
				e.send(p, transport.Ctl, fwd)
			}
		}
	}
	e.blocked = true
	e.blockStart = e.clock.Now()
	e.m.blockedG.Set(1)
	// Unaccepted arrivals: covered by their senders' pred sets.
	e.pendingHead = nil
	e.pendingRest = e.pendingRest[:0]
	e.pendingPos = 0
	e.leave = ident.NewPIDs(m.Leave...).Intersect(e.cv.Members)
	// Current members need no admission and a process asked to leave is
	// not admitted by the same change.
	e.join = ident.NewPIDs(m.Join...).Without(e.cv.Members).Without(e.leave)

	e.ownPred, e.predOwed = e.localPred(false), true
	e.sendPred()

	// Watch for the decision even if we never reach the propose condition
	// ourselves — the decide flood must still install the view here.
	e.awaitDecision(ident.ViewRef{Epoch: e.cv.Epoch, ID: e.cv.ID + 1})
	e.checkPropose()
}

// awaitDecision registers ref as a legitimate successor of the current
// blocked state and watches its consensus instance for the decide flood.
// pendingNext is the arbitration ledger of the concurrent-proposal machine:
// several successors may be pending at once (the ordinary next view, a
// shrinking series of split continuations, a merge union), and onDecision
// installs whichever instance decides first — everything else is counted
// as ignored.
func (e *Engine) awaitDecision(ref ident.ViewRef) {
	if e.pendingNext[ref] {
		return
	}
	e.pendingNext[ref] = true
	go func() {
		raw, err := e.cons.Await(e.rootCtx, viewInstance(ref))
		e.pushDecision(ref, raw, err)
	}()
}

// localPred is the sequence of data messages this process has accepted to
// deliver in the current view: delivered history then still-queued, FIFO.
// For an ordinary view change messages known stable (received by every
// member) are excluded — the SVS obligations for them hold everywhere
// without flushing. A merge contribution keeps them (includeStable): the
// far side of a healed partition was never counted by this view's stable
// frontier, so for it "stable" proves nothing.
func (e *Engine) localPred(includeStable bool) []DataMsg {
	var out []DataMsg
	collect := func(it *queue.Item) bool {
		if it.Kind == queue.Data && it.View == uint64(e.cv.ID) && it.Epoch == uint64(e.cv.Epoch) &&
			(includeStable || !e.isStable(it.Meta.Sender, it.Meta.Seq)) {
			out = append(out, DataMsg{View: e.cv.ID, Epoch: e.cv.Epoch, Meta: it.Meta, Payload: it.Payload})
		}
		return true
	}
	e.delivered.EachRef(collect)
	e.toDeliver.EachRef(collect)
	return out
}

// onPred is transition t6: accumulate pred sequences.
func (e *Engine) onPred(from ident.PID, m PredMsg) {
	if m.View != e.cv.ID || m.Epoch != e.cv.Epoch || !e.cv.Includes(from) {
		return
	}
	for _, dm := range m.Msgs {
		e.globalPred[dm.Meta.ID()] = dm
	}
	e.predReceived = e.predReceived.Add(from)
	e.checkPropose()
}

// ---- t7: propose and install ----------------------------------------------

// checkPropose fires the consensus proposal once every unsuspected member's
// pred set has arrived and they form a majority. When every reachable pred
// is in but a majority is unreachable, the ordinary change can never decide;
// with healing enabled the reachable minority continues under a split epoch
// instead of wedging (checkSplit, merge.go).
func (e *Engine) checkPropose() {
	if !e.blocked || e.proposed || e.expelled || e.merge != nil {
		return
	}
	for _, p := range e.cv.Members {
		if !e.cfg.Detector.Suspected(p) && !e.predReceived.Contains(p) {
			return
		}
	}
	if 2*len(e.predReceived) <= len(e.cv.Members) {
		e.checkSplit()
		return
	}
	e.proposed = true

	// Joiners are added verbatim: they have no pred set to contribute and
	// take no part in the consensus deciding the view that admits them.
	next := View{Epoch: e.cv.Epoch, ID: e.cv.ID + 1, Members: e.predReceived.Without(e.leave).Union(e.join)}
	e.propose(consensusValue{Next: next, Pred: sortedPred(e.globalPred)}, e.cv.Members)
}

// propose encodes val and submits it to the consensus instance named by
// the next view's ref, with the given participant set. The decision (ours
// or a competitor's for the same instance) comes back through pushDecision.
func (e *Engine) propose(val consensusValue, participants ident.PIDs) {
	ref := val.Next.Ref()
	raw, err := encodeValue(val)
	if err != nil {
		// Unreachable with the hand-rolled wire encoder; surface as a
		// failed decision rather than wedging silently.
		e.pushDecision(ref, nil, err)
		return
	}
	members := participants.Clone()
	go func() {
		dec, err := e.cons.Propose(e.rootCtx, viewInstance(ref), members, raw)
		e.pushDecision(ref, dec, err)
	}()
}

// sortedPred flattens the accumulated global pred set deterministically:
// by sender, then sequence number — preserving each sender's FIFO order.
func sortedPred(m map[obsolete.MsgID]DataMsg) []DataMsg {
	out := make([]DataMsg, 0, len(m))
	for _, dm := range m {
		out = append(out, dm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Meta.Sender != out[j].Meta.Sender {
			return out[i].Meta.Sender < out[j].Meta.Sender
		}
		return out[i].Meta.Seq < out[j].Meta.Seq
	})
	return out
}

// pushDecision forwards a consensus outcome into the loop.
func (e *Engine) pushDecision(ref ident.ViewRef, raw []byte, err error) {
	var dec decision
	dec.forRef = ref
	if err != nil {
		dec.err = err
	} else if raw != nil {
		val, derr := decodeValue(raw)
		if derr != nil {
			dec.err = derr
		} else {
			dec.val = val
		}
	}
	select {
	case e.decC <- dec:
	case <-e.stopC:
	}
}

// onDecision installs the agreed view (the tail of t7) — but only a
// decision this blocked state is actually waiting on. With concurrent
// proposals (ordinary successor, split continuations, a merge union) more
// than one instance can decide; the first pending one wins and every
// other outcome is counted instead of silently dropped.
func (e *Engine) onDecision(dec decision) {
	if dec.err != nil {
		// A failed outcome where a view decision was expected used to be
		// invisible. Cancellation is the engine's own shutdown; anything
		// else (a decode failure, a stopped consensus service) is counted
		// and logged — the group will stay blocked until another decide
		// flood reaches it, and an operator should be able to see why.
		if !errors.Is(dec.err, context.Canceled) {
			e.m.decisionFails.Inc()
			e.ev.DecisionFailed(uint64(dec.forRef.ID), dec.err)
		}
		return
	}
	if e.blocked && e.pendingNext[dec.forRef] {
		e.install(dec.val)
		return
	}
	// Accounted, not installed: the duplicate report of the view we just
	// installed (Await and Propose both resolve), a decision that lost a
	// concurrent-proposal race, or a flood arriving after we moved on.
	switch {
	case dec.forRef == e.cv.Ref():
		e.ignoreDecision(dec.forRef, ignoreDuplicate)
	case !e.blocked:
		e.ignoreDecision(dec.forRef, ignoreNotBlocked)
	default:
		e.ignoreDecision(dec.forRef, ignoreWrongView)
	}
}

// ignoreDecision counts and logs a consensus outcome the engine chose not
// to act on — the paths the old machine silently `return`ed from.
func (e *Engine) ignoreDecision(ref ident.ViewRef, reason string) {
	e.m.decisionsIgnored[reason].Inc()
	e.ev.DecisionIgnored(ref.String(), reason)
}

func (e *Engine) install(val consensusValue) {
	e.m.viewsInstalled.Inc()
	e.m.flushLast.Set(int64(len(val.Pred)))
	var blockedFor time.Duration
	if !e.blockStart.IsZero() {
		blockedFor = e.clock.Since(e.blockStart)
		e.m.viewChange.ObserveDuration(blockedFor)
		e.blockStart = time.Time{}
	}
	e.m.blockedG.Set(0)
	if e.ev != nil {
		e.ev.ViewInstall(uint64(val.Next.ID), len(val.Next.Members), len(val.Pred), blockedFor)
		e.ev.MemberChange(uint64(val.Next.ID),
			pidStrings(val.Next.Members.Without(e.cv.Members)),
			pidStrings(e.cv.Members.Without(val.Next.Members)))
	}

	// Adopt flush messages we have not seen. Messages at or below recvMax
	// were genuinely received before (reception is FIFO per sender), so
	// anything missing locally was purged under a justified cover chain;
	// re-adding it would break per-sender FIFO delivery. For a merge
	// decision the flush carries both sides' backlogs, so this same loop
	// is what delivers the other partition's relation-surviving messages
	// before the union-view marker.
	added := 0
	for _, dm := range val.Pred {
		if dm.Meta.Seq <= e.recvMax[dm.Meta.Sender] {
			continue
		}
		if dm.Meta.Sender == e.cfg.Self && dm.Meta.Seq <= e.lastSent {
			continue
		}
		if e.coveredLocally(dm.Meta) {
			continue
		}
		e.recvMax[dm.Meta.Sender] = dm.Meta.Seq
		e.toDeliver.ForceAppend(queue.Item{
			Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload,
		})
		added++
	}
	e.m.flushAdded.Add(uint64(added))

	// The view marker follows the flush in the delivery queue.
	e.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(val.Next.ID), Epoch: uint64(val.Next.Epoch), Ctl: val.Next.Clone(),
	})
	e.m.purgedToDeliver.Add(uint64(e.toDeliver.Purge()))

	if e.merge == nil {
		// Dynamic membership: newcomers admitted by this view get a
		// semantic state transfer from their sponsor. This must read
		// e.delivered and e.cv before the per-view reset below.
		e.sendJoinStates(val.Next)
	} else {
		// Merge install: the "newcomers" are the other side, which already
		// holds its own state — no sponsor transfer. Adopt the combined
		// reception frontiers instead (after the flush loop above, which
		// must see our own frontiers), so stale retransmissions from
		// either side are recognised as duplicates.
		for s, q := range val.Recv {
			e.noteReceived(obsolete.Msg{Sender: s, Seq: q})
		}
		e.finishMerge(val)
	}

	if !val.Next.Includes(e.cfg.Self) {
		e.expelled = true
		e.ev.Expelled(uint64(val.Next.ID))
		for _, m := range e.multicastQ {
			m.mcC <- mcResult{err: ErrExpelled}
		}
		e.multicastQ = nil
	}

	// Remember who left: they are the processes a healing engine probes,
	// since only someone we once shared a view with can be the far side of
	// a healed partition.
	if e.cfg.Heal != nil && !e.expelled {
		for _, p := range e.cv.Members.Without(val.Next.Members) {
			if p != e.cfg.Self {
				e.former[p] = struct{}{}
			}
		}
		for _, p := range val.Next.Members {
			delete(e.former, p)
		}
	}

	// Reset per-view state.
	e.delivered = queue.New(e.rel, 0)
	e.cv = val.Next.Clone()
	e.publishView()
	e.blocked = false
	e.proposed = false
	e.merge = nil
	e.join = nil
	e.leave = nil
	e.joinSeeded = nil
	e.globalPred = make(map[obsolete.MsgID]DataMsg)
	e.predReceived = nil
	clear(e.pendingNext)
	e.flow.reset(e.cv.Members)
	e.resetStabilityForView()

	if pd, ok := e.cfg.Detector.(interface{ SetPeers(ident.PIDs) }); ok {
		pd.SetPeers(e.cv.Members)
	}

	e.serveDeliveries()
	e.retryParked()
	e.replayDeferred()
	e.serveJoins()
}

// noteReceived raises the reception frontier of m's sender to m.Seq;
// for our own stream the frontier is lastSent, so numbering continues
// past anything an earlier incarnation of this PID multicast.
func (e *Engine) noteReceived(m obsolete.Msg) {
	if m.Sender == e.cfg.Self {
		if m.Seq > e.lastSent {
			e.lastSent = m.Seq
		}
		return
	}
	if m.Seq > e.recvMax[m.Sender] {
		e.recvMax[m.Sender] = m.Seq
	}
}

// ---- dynamic membership: join handshake ------------------------------------

// onJoinReq parks an admission request; requests arriving mid view change
// wait for the install (the joiner retransmits anyway, but parking spares
// it a retry period).
func (e *Engine) onJoinReq(from ident.PID) {
	if e.expelled || e.joining || from == e.cfg.Self {
		return
	}
	e.pendingJoins = e.pendingJoins.Add(from)
	e.serveJoins()
}

// serveJoins resolves parked admission requests once no view change is in
// flight. A requester already in the current view was admitted but lost
// its state transfer (e.g. its sponsor crashed between install and send):
// it gets a fresh snapshot directly. The rest are admitted by a view
// change; if a concurrent change wins without them, their retransmitted
// requests try again.
func (e *Engine) serveJoins() {
	if e.blocked || e.expelled || e.joining || len(e.pendingJoins) == 0 {
		return
	}
	var admit ident.PIDs
	var snap *StateMsg // one snapshot serves every already-member requester
	snapSize := 0
	for _, p := range e.pendingJoins {
		if e.cv.Includes(p) {
			if snap == nil {
				st := e.buildJoinState(e.cv)
				snap = &st
				snapSize = stateMsgBytes(st)
			}
			e.sendJoinState(p, *snap, snapSize)
		} else {
			admit = admit.Add(p)
		}
	}
	e.pendingJoins = nil
	if len(admit) > 0 {
		_ = e.triggerViewChange(admit, nil)
	}
}

// sendJoinStates makes the sponsor — the lowest-ordered member surviving
// from the closing view — ship the state transfer to every newcomer of
// the view being installed. Every incumbent computes the same sponsor, so
// exactly one transfer is sent per join unless the sponsor crashes, in
// which case the joiner's retransmitted request reaches serveJoins at
// another member.
func (e *Engine) sendJoinStates(next View) {
	joiners := next.Members.Without(e.cv.Members)
	if len(joiners) == 0 {
		return
	}
	if inc := e.cv.Members.Intersect(next.Members); len(inc) == 0 || inc[0] != e.cfg.Self {
		return
	}
	st := e.buildJoinState(next)
	size := stateMsgBytes(st)
	for _, j := range joiners {
		e.sendJoinState(j, st, size)
	}
}

// buildJoinState snapshots this member's state for a joiner: the view,
// the per-sender reception frontiers, and the unstable backlog — every
// data message still held in the delivery history or the delivery queue,
// purged once more through the obsolescence relation so cross-queue
// covers collapse. This is the semantic state transfer: under a purging
// relation the backlog is O(window) however long the group has run.
func (e *Engine) buildJoinState(next View) StateMsg {
	snap := queue.New(e.rel, 0)
	collect := func(it *queue.Item) bool {
		if it.Kind == queue.Data {
			_, _ = snap.AppendPurge(*it)
		}
		return true
	}
	e.delivered.EachRef(collect)
	e.toDeliver.EachRef(collect)

	backlog := make([]DataMsg, 0, snap.Len())
	snap.EachRef(func(it *queue.Item) bool {
		backlog = append(backlog, DataMsg{
			View: ident.ViewID(it.View), Epoch: ident.Epoch(it.Epoch), Meta: it.Meta, Payload: it.Payload,
		})
		return true
	})
	return StateMsg{
		View: next.ID, Epoch: next.Epoch, Members: next.Members.Clone(),
		Recv: e.recvSnapshot(), Backlog: backlog,
	}
}

func (e *Engine) sendJoinState(to ident.PID, st StateMsg, size int) {
	e.send(to, transport.Ctl, st)
	e.m.joinStatesSent.Inc()
	e.m.joinBacklogSent.Add(uint64(len(st.Backlog)))
	e.m.joinBytesSent.Add(uint64(size))
	e.ev.StateTransfer("sent", string(to), uint64(st.View), len(st.Backlog), size)
}

// onJoinState installs the first view of a joining engine from the state
// transfer: frontiers, backlog, then the view marker — the application
// sees the inherited state first and the view notification tells it the
// join completed. Duplicate transfers (retries, several responders) after
// the first are ignored.
func (e *Engine) onJoinState(from ident.PID, m StateMsg) {
	if !e.joining {
		return
	}
	members := ident.NewPIDs(m.Members...)
	// Only a member of the view being transferred may hand it over (the
	// sponsor, or — on the recovery path — the contact that was re-asked);
	// a transfer from anyone else would hijack the joining engine.
	if m.View == 0 || !members.Contains(e.cfg.Self) || !members.Contains(from) || from == e.cfg.Self {
		return
	}
	if e.joinTimer != nil {
		e.joinTimer.Stop()
		e.joinTimer = nil
	}
	e.joining = false
	e.m.viewsInstalled.Inc()
	var took time.Duration
	if !e.joinStart.IsZero() {
		took = e.clock.Since(e.joinStart)
		e.m.joinDur.ObserveDuration(took)
	}
	size := stateMsgBytes(m)
	e.ev.StateTransfer("recv", string(from), uint64(m.View), len(m.Backlog), size)
	e.ev.JoinComplete(uint64(m.View), len(m.Members), took)

	// Adopt the sponsor's reception frontiers. Our own stream's frontier
	// continues the sequence numbering if this PID multicast in an
	// earlier incarnation.
	for s, q := range m.Recv {
		e.noteReceived(obsolete.Msg{Sender: s, Seq: q})
	}
	// Backlog entries of the installed view never consumed a window slot
	// here; remember them so their consumption grants no credits. Each
	// entry also counts as received, in case the sponsor's frontier lags
	// its own backlog: later copies must be recognised as duplicates.
	e.joinSeeded = make(map[ident.PID]ident.Seq)
	for _, dm := range m.Backlog {
		if dm.View == m.View && dm.Epoch == m.Epoch && dm.Meta.Seq > e.joinSeeded[dm.Meta.Sender] {
			e.joinSeeded[dm.Meta.Sender] = dm.Meta.Seq
		}
		e.noteReceived(dm.Meta)
		e.toDeliver.ForceAppend(queue.Item{
			Kind: queue.Data, View: uint64(dm.View), Epoch: uint64(dm.Epoch), Meta: dm.Meta, Payload: dm.Payload,
		})
	}
	e.cv = View{Epoch: m.Epoch, ID: m.View, Members: members}
	e.publishView()
	e.toDeliver.ForceAppend(queue.Item{
		Kind: queue.Control, View: uint64(m.View), Epoch: uint64(m.Epoch), Ctl: e.cv.Clone(),
	})
	e.m.joinBacklogRecv.Add(uint64(len(m.Backlog)))
	e.m.joinBytesRecv.Add(uint64(size))

	e.flow.reset(e.cv.Members)
	e.resetStabilityForView()
	if pd, ok := e.cfg.Detector.(interface{ SetPeers(ident.PIDs) }); ok {
		pd.SetPeers(e.cv.Members)
	}
	e.serveDeliveries()
	e.retryParked()
	e.replayDeferred()
}

// stateMsgBytes is the wire size of a state transfer — what the join
// benchmarks compare between semantic and reliable configurations.
func stateMsgBytes(m StateMsg) int {
	b, err := codec.Marshal(nil, m)
	if err != nil {
		return 0
	}
	return len(b)
}
