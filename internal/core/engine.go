package core

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// Engine is one group member running the SVS protocol of Figure 1. Create
// it with New, drive it with Multicast / Deliver / RequestViewChange, and
// shut it down with Stop.
type Engine struct {
	cfg   Config
	rel   obsolete.Relation
	cons  *consensus.Service
	clock obs.Clock
	ev    *obs.Events
	m     engMetrics

	reqC  chan *request
	decC  chan decision
	stopC chan struct{}
	doneC chan struct{}

	rootCtx context.Context
	cancel  context.CancelFunc
	once    sync.Once

	// view is the installed view as the facade sees it: the loop publishes
	// a fresh copy at every install. final holds the Stats frozen by Stop.
	view  atomic.Pointer[View]
	final atomic.Pointer[Stats]

	// ---- state below is owned exclusively by the run loop ----

	cv       View
	blocked  bool
	expelled bool
	proposed bool

	// pendingNext is the set of candidate next views this engine is
	// awaiting a consensus decision for. With partition healing several
	// proposals for distinct successors can be in flight at once (the
	// ordinary change, rotating split declarations, a merge); the first
	// decision to arrive for a ref in this set wins, and decisions for
	// refs outside it are counted as ignored, not installed.
	pendingNext map[ident.ViewRef]bool

	// former holds processes this member once shared a view with but no
	// longer does — the probe targets of partition healing (merge.go).
	// Maintained only when Config.Heal is set.
	former map[ident.PID]struct{}

	// merge is the in-flight partition merge, nil when none (merge.go).
	merge    *mergeState
	healTick obs.Ticker

	// Join handshake state. joining is true from Start until the state
	// transfer installs the first view; joinTimer retransmits the join
	// request meanwhile under capped exponential backoff with jitter
	// (joinAttempt counts retransmissions, joinRNG draws the jitter).
	// joinFailed is set when JoinSpec.GiveUp expires without a transfer:
	// the engine is dead to the application from then on (ErrJoinTimeout).
	// pendingJoins holds admission requests received while a view change
	// is in flight. joinSeeded records, per sender, the highest
	// current-view sequence number adopted from a state transfer: those
	// entries never consumed a window slot here, so their delivery or
	// purge must not grant credits (see deliverItem).
	joining      bool
	joinFailed   bool
	joinTimer    obs.Timer
	joinAttempt  int
	joinRNG      *rand.Rand
	joinStart    time.Time // when the join handshake began (joinDur)
	pendingJoins ident.PIDs
	joinSeeded   map[ident.PID]ident.Seq

	toDeliver *queue.Queue
	delivered *queue.Queue // current-view delivery history (for pred sets)
	recvMax   map[ident.PID]ident.Seq
	lastSent  ident.Seq

	// pendingHead is one arrival that passed every receive check (its
	// credit is charged and its purges applied) but found the delivery
	// queue full; it occupies the reserved stall slot until space frees.
	// pendingRest holds the raw, unprocessed remainder of a batched
	// receive behind it (consumed from pendingPos), so per-sender FIFO
	// survives batch arrivals; the data inbox stays gated while either is
	// non-empty. pumpingPending breaks the serveDeliveries → retryPending
	// → acceptData recursion: only the outermost retryPending drains.
	pendingHead    *DataMsg
	pendingRest    []DataMsg
	pendingPos     int
	pumpingPending bool

	// stage accumulates the per-peer sends of the multicast transaction
	// being committed (advance); flushStage coalesces each peer's run
	// into one DataBatchMsg envelope. stageHint sizes the first append.
	// committing guards against retryParked interleaving another request
	// into a half-committed batch (the seq precheck would mis-fire).
	stage      map[ident.PID][]DataMsg
	stageHint  int
	committing bool

	join         ident.PIDs
	leave        ident.PIDs
	globalPred   map[obsolete.MsgID]DataMsg
	predReceived ident.PIDs

	flow *flowState

	// blockStart stamps the group blocking at t5 (viewChange histogram).
	blockStart time.Time

	// Stability tracking (see stability.go).
	recvTable map[ident.PID]map[ident.PID]ident.Seq
	stable    map[ident.PID]ident.Seq
	stabTick  obs.Ticker

	deliverWaiters []*request
	multicastQ     []*request
	deferredCtl    []transport.Envelope // control traffic for future views

	// purgeScratch is the reusable buffer PurgeForInto fills on the
	// multicast/arrival hot path, so releasing credits for purged entries
	// allocates nothing per call.
	purgeScratch []queue.Item
}

type reqKind uint8

const (
	reqMulticast reqKind = iota + 1
	reqDeliver
	reqViewChange
)

// OutMsg is one message of a MulticastBatch: the tracker-minted metadata
// and its payload. The payload slice is borrowed by the engine until the
// call returns (see Engine.MulticastBatch).
type OutMsg struct {
	Meta    obsolete.Msg
	Payload []byte
}

type request struct {
	kind reqKind
	ctx  context.Context

	meta    obsolete.Msg // single multicast
	payload []byte
	batch   []OutMsg   // batched multicast (nil for a single; meta/payload unused)
	done    int        // committed prefix of batch (mid-batch park progress)
	join    ident.PIDs // view change
	leave   ident.PIDs
	dst     []Delivery // batched deliver destination (nil for a single)

	// parkedAt stamps a multicast entering the parked queue, so the flow
	// control stall it suffered can be observed at commit (parkDur). Zero
	// when the engine has no park histogram or the request never parked.
	parkedAt time.Time

	errC chan error    // view change / deliver failure reply
	mcC  chan mcResult // multicast reply
	delC chan Delivery // deliver reply
	nC   chan int      // batched deliver reply (count filled into dst)
}

// batchLen is the number of messages this multicast request carries.
func (req *request) batchLen() int {
	if req.batch == nil {
		return 1
	}
	return len(req.batch)
}

// msgAt returns message i of the request.
func (req *request) msgAt(i int) (obsolete.Msg, []byte) {
	if req.batch == nil {
		return req.meta, req.payload
	}
	return req.batch[i].Meta, req.batch[i].Payload
}

// curSeq is the sequence number of the next message to commit (events).
func (req *request) curSeq() ident.Seq {
	if req.batch == nil {
		return req.meta.Seq
	}
	if req.done < len(req.batch) {
		return req.batch[req.done].Meta.Seq
	}
	return 0
}

// mcResult reports the outcome of a multicast: the view in which the
// message was sent, or an error.
type mcResult struct {
	view ident.ViewRef
	err  error
}

// requestPool recycles request structs and their reply channels across
// Multicast/Deliver/RequestViewChange calls. The loop sends exactly one
// reply per request, so a request whose reply has been consumed can be
// reused safely; requests abandoned on ctx cancellation or engine stop are
// left to the garbage collector because a late reply may still arrive on
// their channels.
var requestPool = sync.Pool{New: func() any {
	return &request{
		mcC:  make(chan mcResult, 1),
		delC: make(chan Delivery, 1),
		errC: make(chan error, 1),
		nC:   make(chan int, 1),
	}
}}

func getRequest(kind reqKind, ctx context.Context) *request {
	req := requestPool.Get().(*request)
	req.kind = kind
	req.ctx = ctx
	return req
}

func putRequest(req *request) {
	req.ctx = nil
	req.meta = obsolete.Msg{}
	req.payload = nil
	req.batch = nil
	req.done = 0
	req.join = nil
	req.leave = nil
	req.dst = nil
	req.parkedAt = time.Time{}
	requestPool.Put(req)
}

// decision carries a consensus outcome back into the loop.
type decision struct {
	forRef ident.ViewRef
	val    consensusValue
	err    error
}

// New validates cfg and assembles a stopped engine; call Start.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Make the group's inboxes exist before any peer traffic can race the
	// protocol loop's first read.
	cfg.Endpoint.Register(cfg.Group)
	ctx, cancel := context.WithCancel(context.Background())
	initial := cfg.InitialView
	if cfg.Join != nil {
		// A joiner has no view until the state transfer installs one.
		initial = View{}
	}
	e := &Engine{
		cfg:         cfg,
		rel:         cfg.Relation,
		cons:        consensus.New(cfg.Endpoint, cfg.Detector, cfg.Group, cfg.Obs),
		clock:       cfg.Obs.Clock(),
		ev:          cfg.Obs.Events(),
		m:           newEngMetrics(cfg.Obs),
		reqC:        make(chan *request, 64),
		decC:        make(chan decision, 4),
		stopC:       make(chan struct{}),
		doneC:       make(chan struct{}),
		rootCtx:     ctx,
		cancel:      cancel,
		cv:          initial.Clone(),
		joining:     cfg.Join != nil,
		toDeliver:   queue.New(cfg.Relation, cfg.ToDeliverCap),
		delivered:   queue.New(cfg.Relation, 0),
		recvMax:     make(map[ident.PID]ident.Seq),
		globalPred:  make(map[obsolete.MsgID]DataMsg),
		pendingNext: make(map[ident.ViewRef]bool),
		former:      make(map[ident.PID]struct{}),
		flow:        newFlowState(cfg, initial.Members),
	}
	e.publishView()
	return e, nil
}

// Start launches the consensus service and the protocol loop. A joining
// engine also starts asking its contacts for admission.
func (e *Engine) Start() error {
	e.cons.Start()
	if e.cfg.StabilityInterval > 0 {
		e.stabTick = e.clock.NewTicker(e.cfg.StabilityInterval)
	}
	if e.cfg.Heal != nil {
		e.healTick = e.clock.NewTicker(e.cfg.Heal.ProbeInterval)
	}
	if e.cfg.Join != nil {
		e.joinStart = e.clock.Now()
		e.joinRNG = rand.New(rand.NewSource(e.joinStart.UnixNano()))
		e.joinTimer = e.clock.NewTimer(e.nextJoinDelay())
	}
	go e.run()
	return nil
}

// Stop terminates the engine. Parked Multicast and Deliver calls return
// ErrStopped, and Stats reports the final counts from then on. Stop does
// not close the endpoint or the detector; the caller owns those.
func (e *Engine) Stop() {
	e.once.Do(func() {
		e.cancel()
		close(e.stopC)
		<-e.doneC
		e.cons.Stop()
		final := e.m.stats()
		e.final.Store(&final)
	})
}

// Self returns this process's identifier.
func (e *Engine) Self() ident.PID { return e.cfg.Self }

// View returns the most recently installed view.
func (e *Engine) View() View {
	return e.view.Load().Clone()
}

// Stats reads the engine counters from its instruments. Each field is
// read atomically on its own; after Stop the values are frozen.
func (e *Engine) Stats() Stats {
	if s := e.final.Load(); s != nil {
		return *s
	}
	return e.m.stats()
}

// Multicast submits a data message to the group (transition t2). meta must
// come from an obsolescence tracker over this process's stream: sequence
// numbers must be contiguous starting at 1. The call blocks while the
// protocol exercises flow control (buffers full or view change in
// progress) until the message is accepted, ctx is done, or the engine
// stops. On success it returns the global identifier of the view the
// message was multicast in.
func (e *Engine) Multicast(ctx context.Context, meta obsolete.Msg, payload []byte) (ident.ViewRef, error) {
	req := getRequest(reqMulticast, ctx)
	req.meta = meta
	req.payload = payload
	if err := e.submit(ctx, req); err != nil {
		putRequest(req) // never reached the loop
		return ident.ViewRef{}, err
	}
	select {
	case res := <-req.mcC:
		putRequest(req)
		return res.view, res.err
	case <-ctx.Done():
		return ident.ViewRef{}, ctx.Err()
	case <-e.doneC:
		return ident.ViewRef{}, ErrStopped
	}
}

// MulticastBatch submits a run of data messages in one request round-trip
// through the protocol loop: one channel operation, one wakeup and one
// staged send flush cover the whole run, and each peer receives the run
// as a single coalesced envelope. Semantically it is exactly equivalent
// to calling Multicast once per message in order — every message is
// individually flow-controlled, purge-checked and sequence-checked, and a
// view change may land between two messages of the batch.
//
// msgs (and its payload slices) are borrowed by the engine until the call
// returns; the caller must not mutate them meanwhile and may reuse them
// freely afterwards. The call blocks until every message has committed.
// On success it returns the view the last message was sent in. On error,
// messages preceding the failure were committed and sent; the failed
// message and everything after it were not.
func (e *Engine) MulticastBatch(ctx context.Context, msgs []OutMsg) (ident.ViewRef, error) {
	if len(msgs) == 0 {
		return e.view.Load().Ref(), nil
	}
	req := getRequest(reqMulticast, ctx)
	req.batch = msgs
	if err := e.submit(ctx, req); err != nil {
		putRequest(req) // never reached the loop
		return ident.ViewRef{}, err
	}
	select {
	case res := <-req.mcC:
		putRequest(req)
		return res.view, res.err
	case <-ctx.Done():
		return ident.ViewRef{}, ctx.Err()
	case <-e.doneC:
		return ident.ViewRef{}, ErrStopped
	}
}

// Deliver returns the next item of the delivery queue (transition t1),
// blocking until one is available. This pull interface is deliberate: the
// paper uses a down-call style "to ensure that messages not being
// processed are kept in the protocol buffers", where they stay purgeable.
func (e *Engine) Deliver(ctx context.Context) (Delivery, error) {
	req := getRequest(reqDeliver, ctx)
	if err := e.submit(ctx, req); err != nil {
		putRequest(req)
		return Delivery{}, err
	}
	select {
	case d := <-req.delC:
		putRequest(req)
		return d, nil
	case err := <-req.errC:
		putRequest(req)
		return Delivery{}, err
	case <-ctx.Done():
		return Delivery{}, ctx.Err()
	case <-e.doneC:
		return Delivery{}, ErrStopped
	}
}

// DeliverBatch fills dst with as many immediately available deliveries as
// it holds, blocking until at least one is available (or ctx is done or
// the engine stops), and returns the number filled. One request
// round-trip through the protocol loop drains a whole run of the delivery
// queue — the pull-style counterpart of MulticastBatch.
//
// dst is written by the protocol loop; if the call returns early on ctx
// cancellation the loop may still fill dst afterwards, so a cancelled
// call's dst must not be reused until the engine stops. (Cancellation is
// intended for shutdown, where that is moot.)
func (e *Engine) DeliverBatch(ctx context.Context, dst []Delivery) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	req := getRequest(reqDeliver, ctx)
	req.dst = dst
	if err := e.submit(ctx, req); err != nil {
		putRequest(req)
		return 0, err
	}
	select {
	case n := <-req.nC:
		putRequest(req)
		return n, nil
	case err := <-req.errC:
		putRequest(req)
		return 0, err
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-e.doneC:
		return 0, ErrStopped
	}
}

// RequestViewChange triggers the view change protocol (transition t4),
// asking for the given processes to leave the group. It returns as soon as
// the INIT is disseminated; the new view arrives as a DeliverView item.
func (e *Engine) RequestViewChange(leave ...ident.PID) error {
	return e.RequestMembershipChange(nil, ident.NewPIDs(leave...))
}

// RequestMembershipChange is the general form of RequestViewChange: the
// next view admits the processes in join and removes the processes in
// leave. Joined processes must be running a joining engine (Config.Join) —
// the view change only makes them members; the state transfer that follows
// the install is what brings them up to date. A process in both sets
// leaves.
func (e *Engine) RequestMembershipChange(join, leave ident.PIDs) error {
	req := getRequest(reqViewChange, context.Background())
	req.join = join.Clone()
	req.leave = leave.Clone()
	if err := e.submit(context.Background(), req); err != nil {
		putRequest(req)
		return err
	}
	select {
	case err := <-req.errC:
		putRequest(req)
		return err
	case <-e.doneC:
		return ErrStopped
	}
}

func (e *Engine) submit(ctx context.Context, req *request) error {
	select {
	case e.reqC <- req:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-e.doneC:
		return ErrStopped
	}
}

// reqDrainCap bounds the greedy request drain per loop iteration, so a
// firehose of submitters cannot starve the network-facing cases.
const reqDrainCap = 256

// run is the protocol loop: a single goroutine owning all state. One
// receive from an inbox hands the loop every envelope pending for the
// channel, amortising the wakeup and the per-iteration gauge refresh over
// the whole run.
func (e *Engine) run() {
	defer close(e.doneC)
	dataIn := e.cfg.Endpoint.InboxBatch(e.cfg.Group, transport.Data)
	ctlIn := e.cfg.Endpoint.InboxBatch(e.cfg.Group, transport.Ctl)
	fdEv := e.cfg.Detector.Events()
	var stabC <-chan time.Time
	if e.stabTick != nil {
		stabC = e.stabTick.C()
		defer e.stabTick.Stop()
	}
	var healC <-chan time.Time
	if e.healTick != nil {
		healC = e.healTick.C()
		defer e.healTick.Stop()
	}
	if e.joining {
		defer func() {
			if e.joinTimer != nil {
				e.joinTimer.Stop()
			}
		}()
		e.sendJoinReq()
	}

	for {
		// Flow control: while blocked, expelled, still joining, or holding
		// unprocessed arrivals, leave data in the transport; senders run
		// out of credits and stop.
		dataC := dataIn
		if e.dataGated() {
			dataC = nil
		}
		// Re-fetched every iteration: each backoff step arms a fresh timer.
		var joinC <-chan time.Time
		if e.joinTimer != nil {
			joinC = e.joinTimer.C()
		}
		select {
		case <-e.stopC:
			e.shutdown()
			return
		case envs, ok := <-dataC:
			if !ok {
				dataIn = nil
				break
			}
			e.onDataBatch(envs)
		case envs, ok := <-ctlIn:
			if !ok {
				ctlIn = nil
				break
			}
			for i := range envs {
				e.onCtl(envs[i])
			}
		case ev, ok := <-fdEv:
			if !ok {
				fdEv = nil
				break
			}
			e.onSuspicion(ev)
		case req := <-e.reqC:
			e.onRequest(req)
			e.drainRequests()
		case dec := <-e.decC:
			e.onDecision(dec)
		case <-stabC:
			e.gossipStability()
		case <-healC:
			e.onHealTick()
		case <-joinC:
			e.onJoinRetry()
		}
		e.syncGauges()
	}
}

// dataGated reports whether the loop must leave data arrivals in the
// transport: group blocked, this process expelled or still joining, a
// previous arrival waiting for queue space, or no space to begin with.
func (e *Engine) dataGated() bool {
	return e.blocked || e.expelled || e.joining ||
		e.pendingHead != nil || e.pendingPos < len(e.pendingRest) ||
		e.toDeliver.Full()
}

// drainRequests opportunistically serves whatever else is already sitting
// in reqC after a request wakes the loop, so concurrent single-message
// callers get batch amortisation without using the batch APIs.
func (e *Engine) drainRequests() {
	for i := 0; i < reqDrainCap; i++ {
		select {
		case req := <-e.reqC:
			e.onRequest(req)
		default:
			return
		}
	}
}

// sendJoinReq (re)transmits the admission request to every contact.
func (e *Engine) sendJoinReq() {
	for _, c := range e.cfg.Join.Contacts {
		e.send(c, transport.Ctl, JoinReqMsg{})
	}
}

// onJoinRetry fires on each backoff step: give up if the retry budget is
// spent, otherwise retransmit and arm the next (longer) wait.
func (e *Engine) onJoinRetry() {
	if !e.joining {
		e.joinTimer = nil
		return
	}
	if g := e.cfg.Join.GiveUp; g > 0 && e.clock.Since(e.joinStart) >= g {
		e.failJoin()
		return
	}
	e.sendJoinReq()
	e.joinAttempt++
	e.joinTimer = e.clock.NewTimer(e.nextJoinDelay())
}

// nextJoinDelay computes the wait before retransmission joinAttempt:
// min(Retry·2ⁿ, RetryMax), scaled by a uniform jitter factor in
// [1-RetryJitter, 1+RetryJitter].
func (e *Engine) nextJoinDelay() time.Duration {
	js := e.cfg.Join
	d := js.Retry
	for i := 0; i < e.joinAttempt && d < js.RetryMax; i++ {
		d *= 2
	}
	if d > js.RetryMax {
		d = js.RetryMax
	}
	if js.RetryJitter > 0 && e.joinRNG != nil {
		d = time.Duration(float64(d) * (1 + js.RetryJitter*(2*e.joinRNG.Float64()-1)))
		if d <= 0 {
			d = time.Millisecond
		}
	}
	return d
}

// failJoin abandons the join handshake: the retry budget (JoinSpec.GiveUp)
// expired without a state transfer. Every parked call fails with
// ErrJoinTimeout, as does everything submitted afterwards — the engine
// never installed a view, so there is nothing to recover; the caller
// stops it and retries with live contacts.
func (e *Engine) failJoin() {
	if e.joinTimer != nil {
		e.joinTimer.Stop()
		e.joinTimer = nil
	}
	e.joining = false
	e.joinFailed = true
	for _, w := range e.deliverWaiters {
		w.errC <- ErrJoinTimeout
	}
	e.deliverWaiters = nil
	for _, m := range e.multicastQ {
		m.mcC <- mcResult{err: ErrJoinTimeout}
	}
	e.multicastQ = nil
}

// send is the engine's best-effort transmit: in the crash-stop model a
// failed send is the peer's problem (the detector will notice a dead one),
// but the failure is counted and logged instead of vanishing into `_ =`.
func (e *Engine) send(p ident.PID, ch transport.Channel, msg any) {
	if err := e.cfg.Endpoint.Send(p, e.cfg.Group, ch, msg); err != nil {
		e.m.sendErrors.Inc()
		e.ev.SendError(string(p), err)
	}
}

// syncGauges refreshes the occupancy gauges after each loop iteration.
func (e *Engine) syncGauges() {
	e.m.qLen.Set(int64(e.toDeliver.Len()))
	e.m.qMax.Set(int64(e.toDeliver.Stats().MaxLen))
	e.m.histLen.Set(int64(e.delivered.Len()))
	e.m.parkedG.Set(int64(len(e.multicastQ)))
	e.m.lastSent.Set(int64(e.lastSent))
}

// publishView hands the facade a copy of the loop-owned view; the loop
// calls it whenever it installs one.
func (e *Engine) publishView() {
	v := e.cv.Clone()
	e.view.Store(&v)
	e.m.view.Set(int64(v.ID))
	e.m.epoch.Set(int64(v.Epoch))
	e.m.members.Set(int64(len(v.Members)))
}

// shutdown fails every parked request.
func (e *Engine) shutdown() {
	for _, w := range e.deliverWaiters {
		w.errC <- ErrStopped
	}
	e.deliverWaiters = nil
	for _, m := range e.multicastQ {
		m.mcC <- mcResult{err: ErrStopped}
	}
	e.multicastQ = nil
	e.syncGauges()
}

// onRequest dispatches an application request.
func (e *Engine) onRequest(req *request) {
	switch req.kind {
	case reqMulticast:
		e.onMulticastReq(req)
	case reqDeliver:
		e.deliverWaiters = append(e.deliverWaiters, req)
		e.serveDeliveries()
	case reqViewChange:
		req.errC <- e.triggerViewChange(req.join, req.leave)
	}
}
