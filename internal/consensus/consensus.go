// Package consensus implements the uniform consensus building block that
// the SVS view-change protocol takes as given (§3.1: "A consensus protocol
// is assumed to be available ... all correct processes eventually decide
// the same value and the decided value is one of the proposed values").
//
// The implementation is the classic Chandra–Toueg ◇S rotating-coordinator
// algorithm over the package transport channels and a fd.Detector oracle:
//
//	round r, coordinator c = participants[r mod n]:
//	  1. every process sends its (estimate, ts) to c;
//	  2. c gathers a majority of estimates and proposes the one with the
//	     highest timestamp;
//	  3. every process waits for c's proposal — adopting it and ACKing —
//	     or NACKs when the detector suspects c;
//	  4. c gathers a majority of replies; if all are ACKs the value is
//	     locked and c reliably broadcasts DECIDE.
//
// Safety requires only a majority of correct processes; the detector is
// used for liveness alone. Decisions are cached so that stragglers asking
// about a decided instance are answered immediately.
package consensus

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// msgType enumerates the wire message types of the algorithm.
type msgType uint8

const (
	msgEstimate msgType = iota + 1
	msgPropose
	msgAck
	msgNack
	msgDecide
)

func (t msgType) String() string {
	switch t {
	case msgEstimate:
		return "estimate"
	case msgPropose:
		return "propose"
	case msgAck:
		return "ack"
	case msgNack:
		return "nack"
	case msgDecide:
		return "decide"
	default:
		return fmt.Sprintf("msgType(%d)", uint8(t))
	}
}

// Msg is the wire message of one consensus instance.
type Msg struct {
	Instance string
	Round    int
	Type     msgType
	Value    []byte
	Ts       int // estimate timestamp (rounds); meaningful for estimates
}

func init() {
	codec.Register[Msg](codec.TConsensusMsg, appendMsg, readMsg)
}

func appendMsg(dst []byte, m Msg) []byte {
	dst = codec.AppendString(dst, m.Instance)
	dst = codec.AppendVarint(dst, int64(m.Round))
	dst = codec.AppendByte(dst, byte(m.Type))
	dst = codec.AppendBytes(dst, m.Value)
	return codec.AppendVarint(dst, int64(m.Ts))
}

func readMsg(r *codec.Reader) (Msg, error) {
	var m Msg
	m.Instance = r.String()
	m.Round = int(r.Varint())
	m.Type = msgType(r.Byte())
	m.Value = r.Bytes()
	m.Ts = int(r.Varint())
	return m, r.Err()
}

// Service multiplexes the consensus instances of one group over a shared
// endpoint: all its traffic travels in the group's Consensus inbox, so a
// node hosting many groups runs one Service per group and their rounds
// never interfere (instance ids only need to be unique within a group).
type Service struct {
	ep    transport.Endpoint
	det   fd.Detector
	group ident.GroupID
	// poll is how often waiting phases re-check the failure detector.
	poll  time.Duration
	clock obs.Clock
	ev    *obs.Events
	m     svcMetrics

	mu        sync.Mutex
	instances map[string]*instance
	stopped   bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// svcMetrics are the service's instruments; nil instruments record nothing.
type svcMetrics struct {
	decisions *obs.Counter   // instances decided (locally observed)
	nacks     *obs.Counter   // coordinator suspicions turned into NACKs
	rounds    *obs.Histogram // rounds a proposing process ran until deciding
	latency   *obs.Histogram // propose-to-decide wall time
}

// New returns a stopped service for one group's consensus instances; call
// Start. ob supplies the poll clock, metrics and events; nil uses the wall
// clock with no instrumentation.
func New(ep transport.Endpoint, det fd.Detector, group ident.GroupID, ob *obs.Obs) *Service {
	return &Service{
		ep:    ep,
		det:   det,
		group: group,
		poll:  2 * time.Millisecond,
		clock: ob.Clock(),
		ev:    ob.Events(),
		m: svcMetrics{
			decisions: ob.Counter("consensus_decisions_total"),
			nacks:     ob.Counter("consensus_nacks_total"),
			rounds:    ob.Histogram("consensus_rounds", obs.CountBuckets),
			latency:   ob.Histogram("consensus_decide_seconds", obs.DurationBuckets),
		},
		instances: make(map[string]*instance),
		done:      make(chan struct{}),
	}
}

// Start launches the dispatcher.
func (s *Service) Start() {
	s.wg.Add(1)
	go s.dispatch()
}

// Stop terminates the dispatcher and all running instances.
func (s *Service) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.done)
	s.mu.Unlock()
	s.wg.Wait()
}

// Propose runs instance id among participants with the given initial
// value and blocks until a decision is reached, the context is cancelled,
// or the service stops. All participants must call Propose with the same
// id and participant set; values may differ. The decided value is one of
// the proposed values and is the same at every deciding process.
func (s *Service) Propose(ctx context.Context, id string, participants ident.PIDs, value []byte) ([]byte, error) {
	if !participants.Contains(s.ep.Self()) {
		return nil, fmt.Errorf("consensus: %s is not a participant of %q", s.ep.Self(), id)
	}
	in := s.instance(id)

	in.mu.Lock()
	if in.decided {
		v := in.decision
		in.mu.Unlock()
		return v, nil
	}
	if !in.proposed {
		in.proposed = true
		in.participants = participants.Clone()
		in.est = value
		in.start = s.clock.Now()
		close(in.proposeC) // unblock the runner
	}
	in.mu.Unlock()

	select {
	case <-in.decidedC:
		in.mu.Lock()
		v := in.decision
		in.mu.Unlock()
		return v, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, fmt.Errorf("consensus: service stopped")
	}
}

// Await blocks until instance id decides, without participating in it. It
// lets a process that has not (yet) proposed — e.g. one still gathering
// flush sets — learn the outcome as soon as the decide flood reaches it.
func (s *Service) Await(ctx context.Context, id string) ([]byte, error) {
	in := s.instance(id)
	select {
	case <-in.decidedC:
		in.mu.Lock()
		v := in.decision
		in.mu.Unlock()
		return v, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		return nil, fmt.Errorf("consensus: service stopped")
	}
}

// Decision returns the cached decision of instance id, if any.
func (s *Service) Decision(id string) ([]byte, bool) {
	s.mu.Lock()
	in, ok := s.instances[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.decided {
		return nil, false
	}
	return in.decision, true
}

// instance returns (creating if necessary) the record for id.
func (s *Service) instance(id string) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if in, ok := s.instances[id]; ok {
		return in
	}
	in := &instance{
		svc:      s,
		id:       id,
		proposeC: make(chan struct{}),
		decidedC: make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	s.instances[id] = in
	if !s.stopped {
		s.wg.Add(1)
		go in.run()
	}
	return in
}

// dispatch routes incoming wire messages to their instances.
func (s *Service) dispatch() {
	defer s.wg.Done()
	inbox := s.ep.InboxBatch(s.group, transport.Consensus)
	for {
		select {
		case <-s.done:
			return
		case envs, ok := <-inbox:
			if !ok {
				return
			}
			for _, env := range envs {
				if m, ok := env.Msg.(Msg); ok {
					s.instance(m.Instance).deliver(env.From, m)
				}
			}
		}
	}
}

// instance is the per-id state machine.
type instance struct {
	svc *Service
	id  string

	mu           sync.Mutex
	proposed     bool
	participants ident.PIDs
	est          []byte
	ts           int
	round        int       // current round of the local runner
	start        time.Time // when the local proposal arrived
	decided      bool
	decision     []byte
	inbox        []inMsg

	proposeC chan struct{} // closed when the local proposal arrives
	decidedC chan struct{} // closed on decision
	wake     chan struct{} // pinged when a message arrives
}

type inMsg struct {
	from ident.PID
	m    Msg
}

// deliver buffers m and wakes the runner. Decide messages take effect
// immediately — even at a process that never proposed — and a decided
// instance answers any late non-decide traffic with the decision so
// stragglers terminate.
func (in *instance) deliver(from ident.PID, m Msg) {
	in.mu.Lock()
	if in.decided {
		dec := in.decision
		in.mu.Unlock()
		if m.Type != msgDecide {
			_ = in.svc.ep.Send(from, in.svc.group, transport.Consensus, Msg{
				Instance: in.id, Type: msgDecide, Value: dec,
			})
		}
		return
	}
	if m.Type == msgDecide {
		in.decideLocked(m.Value)
		in.mu.Unlock()
		return
	}
	in.inbox = append(in.inbox, inMsg{from: from, m: m})
	in.mu.Unlock()
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// run executes the rotating-coordinator rounds once the local proposal is
// available. Decide messages short-circuit every phase.
func (in *instance) run() {
	defer in.svc.wg.Done()

	// Wait for the local proposal (messages keep buffering meanwhile).
	select {
	case <-in.proposeC:
	case <-in.svc.done:
		return
	}

	in.mu.Lock()
	parts := in.participants
	in.mu.Unlock()
	n := len(parts)
	majority := n/2 + 1
	self := in.svc.ep.Self()

	for r := 0; ; r++ {
		coord := parts[r%n]

		// Phase 1: send estimate to the coordinator.
		in.mu.Lock()
		in.round = r
		est, ts := in.est, in.ts
		in.mu.Unlock()
		in.send(coord, Msg{Instance: in.id, Round: r, Type: msgEstimate, Value: est, Ts: ts})

		// Phase 2 (coordinator): gather a majority of estimates, keep the
		// freshest, propose it.
		if coord == self {
			ests, ok := in.collect(r, msgEstimate, majority, nil)
			if !ok {
				return // decided or stopped
			}
			best := ests[0].m
			for _, e := range ests[1:] {
				if e.m.Ts > best.Ts {
					best = e.m
				}
			}
			for _, p := range parts {
				in.send(p, Msg{Instance: in.id, Round: r, Type: msgPropose, Value: best.Value})
			}
		}

		// Phase 3: adopt the coordinator's proposal, or NACK on suspicion.
		prop, got, alive := in.awaitPropose(r, coord)
		if !alive {
			return // decided or stopped
		}
		if got {
			in.mu.Lock()
			in.est, in.ts = prop.Value, r
			in.mu.Unlock()
			in.send(coord, Msg{Instance: in.id, Round: r, Type: msgAck})
		} else {
			in.svc.m.nacks.Inc()
			in.send(coord, Msg{Instance: in.id, Round: r, Type: msgNack})
		}

		// Phase 4 (coordinator): majority of ACKs locks the value.
		if coord == self {
			replies, ok := in.collect(r, msgAck, majority, func(m Msg) bool {
				return m.Type == msgNack && m.Round == r
			})
			if !ok {
				return
			}
			if replies != nil { // majority of ACKs, no NACK seen first
				in.mu.Lock()
				v := in.est
				in.mu.Unlock()
				for _, p := range parts {
					in.send(p, Msg{Instance: in.id, Type: msgDecide, Value: v})
				}
			}
		}
	}
}

// send transmits m, delivering locally without the network round-trip.
func (in *instance) send(to ident.PID, m Msg) {
	_ = in.svc.ep.Send(to, in.svc.group, transport.Consensus, m)
}

// takeMatching removes and returns buffered messages matching pred. It
// reports decided=true when the instance has a decision, which terminates
// every waiting phase.
func (in *instance) takeMatching(pred func(Msg) bool) (out []inMsg, decided bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.decided {
		return nil, true
	}
	kept := in.inbox[:0]
	for _, im := range in.inbox {
		if pred(im.m) {
			out = append(out, im)
			continue
		}
		kept = append(kept, im)
	}
	in.inbox = kept
	return out, false
}

// decideLocked records the decision and relays it to all participants
// (reliable broadcast of the decision). Callers hold in.mu.
func (in *instance) decideLocked(v []byte) {
	if in.decided {
		return
	}
	in.decided = true
	in.decision = v
	close(in.decidedC)
	in.svc.m.decisions.Inc()
	if in.proposed {
		// Rounds and latency only make sense at a process that actually
		// ran the protocol; a bystander learning via the decide flood
		// would skew both towards zero.
		in.svc.m.rounds.Observe(float64(in.round + 1))
		in.svc.m.latency.ObserveDuration(in.svc.clock.Since(in.start))
		in.svc.ev.ConsensusDecision(in.id, in.round+1)
	}
	parts := in.participants
	self := in.svc.ep.Self()
	go func() {
		for _, p := range parts {
			if p != self {
				_ = in.svc.ep.Send(p, in.svc.group, transport.Consensus, Msg{
					Instance: in.id, Type: msgDecide, Value: v,
				})
			}
		}
	}()
}

// collect waits until want messages of the given round/type have been
// gathered, a decide arrives (returns nil,false... see below), or abort
// reports true on some gathered message (NACK handling). The returned
// bool is false when the instance terminated (decide or service stop);
// a nil slice with true means aborted by the abort predicate.
func (in *instance) collect(round int, t msgType, want int, abort func(Msg) bool) ([]inMsg, bool) {
	var got []inMsg
	ticker := in.svc.clock.NewTicker(in.svc.poll)
	defer ticker.Stop()
	for {
		match, decided := in.takeMatching(func(m Msg) bool {
			if m.Round != round {
				return false
			}
			return m.Type == t || (abort != nil && abort(m))
		})
		if decided {
			return nil, false
		}
		for _, im := range match {
			if abort != nil && abort(im.m) {
				return nil, true // aborted: round failed
			}
			got = append(got, im)
		}
		if len(got) >= want {
			return got, true
		}
		select {
		case <-in.wake:
		case <-ticker.C():
		case <-in.svc.done:
			return nil, false
		}
	}
}

// awaitPropose waits for the coordinator's round-r proposal, giving up
// when the failure detector suspects the coordinator. alive is false when
// the instance terminated meanwhile.
func (in *instance) awaitPropose(round int, coord ident.PID) (prop Msg, got, alive bool) {
	ticker := in.svc.clock.NewTicker(in.svc.poll)
	defer ticker.Stop()
	for {
		match, decided := in.takeMatching(func(m Msg) bool {
			return m.Type == msgPropose && m.Round == round
		})
		if decided {
			return Msg{}, false, false
		}
		if len(match) > 0 {
			return match[0].m, true, true
		}
		if in.svc.det.Suspected(coord) {
			return Msg{}, false, true
		}
		select {
		case <-in.wake:
		case <-ticker.C():
		case <-in.svc.done:
			return Msg{}, false, false
		}
	}
}
