package transport

import (
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/obs"
)

// inboxSet is the (GroupID, Channel)-keyed inbox registry shared by both
// wire transports. Registration is how an endpoint knows which groups its
// node hosts: deposit drops and counts envelopes for anything else, and
// close ends every inbox exactly once (crash-stop: nothing is delivered
// after close returns).
type inboxSet struct {
	mu     sync.Mutex
	closed bool
	m      map[groupChan]*ubq

	dropGroup   atomic.Uint64
	dropChannel atomic.Uint64

	// Optional obs mirrors of the two drop counters, installed by
	// instrument. Guarded by mu because instrumentation can arrive while
	// peers are already depositing (NewNode wires the endpoint after
	// other nodes' heartbeats may have started sending to it).
	dropGroupC   *obs.Counter
	dropChannelC *obs.Counter
}

func newInboxSet() *inboxSet {
	return &inboxSet{m: make(map[groupChan]*ubq, numChannels)}
}

// register creates the inboxes of every defined channel of g ahead of
// traffic. Idempotent; a no-op after close.
func (s *inboxSet) register(g ident.GroupID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, ch := range Channels() {
		key := groupChan{g, ch}
		if _, ok := s.m[key]; !ok {
			s.m[key] = newUBQ()
		}
	}
}

// instrument mirrors the drop counters onto ob as
// transport_dropped_total{reason=...}. A nil ob is a no-op rather than
// an overwrite, so a node-level Instrument call without a bundle cannot
// wipe counters installed at construction.
func (s *inboxSet) instrument(ob *obs.Obs) {
	if ob == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropGroupC = ob.CounterL("transport_dropped_total", obs.L("reason", string(obs.DropUnknownGroup)))
	s.dropChannelC = ob.CounterL("transport_dropped_total", obs.L("reason", string(obs.DropUnknownChannel)))
}

// dropUnknownGroup counts one envelope discarded because its group can
// never be hosted here (used by the TCP read loop for out-of-range ids).
func (s *inboxSet) dropUnknownGroup() {
	s.dropGroup.Add(1)
	s.mu.Lock()
	c := s.dropGroupC
	s.mu.Unlock()
	c.Inc()
}

// deregister removes and closes the inboxes of g; subsequent traffic for
// g is dropped and counted.
func (s *inboxSet) deregister(g ident.GroupID) {
	s.mu.Lock()
	var qs []*ubq
	for _, ch := range Channels() {
		key := groupChan{g, ch}
		if q, ok := s.m[key]; ok {
			qs = append(qs, q)
			delete(s.m, key)
		}
	}
	s.mu.Unlock()
	for _, q := range qs {
		q.close()
	}
}

// inbox returns the receive channel for (g, ch), registering it lazily;
// after close it returns an already-closed channel.
func (s *inboxSet) inbox(g ident.GroupID, ch Channel) <-chan []Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := groupChan{g, ch}
	q, ok := s.m[key]
	if !ok {
		if s.closed {
			dead := make(chan []Envelope)
			close(dead)
			return dead
		}
		q = newUBQ()
		s.m[key] = q
	}
	return q.batch()
}

// deposit places a run of envelopes for one (g, ch) in its inbox under a
// single registry lookup and a single inbox lock acquisition — the
// receive-side mirror of the send path's frame coalescing. The slice
// contents are copied; the caller may reuse envs immediately. When the
// inbox was never registered — traffic for a group this node does not
// host (or no longer hosts), or a channel outside the defined range — the
// whole run is dropped and counted.
func (s *inboxSet) deposit(g ident.GroupID, ch Channel, envs ...Envelope) {
	if len(envs) == 0 {
		return
	}
	s.mu.Lock()
	q, ok := s.m[groupChan{g, ch}]
	closed := s.closed
	var c *obs.Counter
	if !ok {
		if validChannel(ch) {
			c = s.dropGroupC
		} else {
			c = s.dropChannelC
		}
	}
	s.mu.Unlock()
	if !ok {
		if validChannel(ch) {
			s.dropGroup.Add(uint64(len(envs)))
		} else {
			s.dropChannel.Add(uint64(len(envs)))
		}
		c.Add(uint64(len(envs)))
		return
	}
	if !closed {
		q.push(envs)
	}
}

// close ends every inbox and blocks until their pumps have exited; no
// envelope is delivered after close returns. Idempotent.
func (s *inboxSet) close() {
	s.mu.Lock()
	s.closed = true
	qs := make([]*ubq, 0, len(s.m))
	for _, q := range s.m {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	for _, q := range qs {
		q.close()
	}
}

// drops returns the drop counters.
func (s *inboxSet) drops() DropStats {
	return DropStats{
		DroppedUnknownGroup:   s.dropGroup.Load(),
		DroppedUnknownChannel: s.dropChannel.Load(),
	}
}
