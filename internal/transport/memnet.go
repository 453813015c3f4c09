package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
)

// MemNetwork is an in-process network of fully connected, reliable, FIFO
// point-to-point channels — the transport assumed by the paper's system
// model. It additionally supports the fault injection the tests need:
// per-link delays (performance perturbations), link cuts (for failure
// detector tests) and process crashes (crash-stop).
type MemNetwork struct {
	mu    sync.RWMutex
	eps   map[ident.PID]*MemEndpoint
	delay func(from, to ident.PID) time.Duration
	cut   map[link]bool
	clock obs.Clock
}

type link struct{ from, to ident.PID }

// NewMemNetwork returns an empty network on the wall clock.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		eps:   make(map[ident.PID]*MemEndpoint),
		cut:   make(map[link]bool),
		clock: obs.Wall{},
	}
}

// SetClock replaces the clock pacing delayed links — an obs.Fake makes
// paced delivery deterministic in tests. Like SetDelay, it only affects
// links created after the call, so install it before attaching endpoints.
func (n *MemNetwork) SetClock(c obs.Clock) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c == nil {
		c = obs.Wall{}
	}
	n.clock = c
}

// SetDelay installs a per-link pacing function: every message on the link
// from→to occupies the link for the returned duration before delivery
// (FIFO order is preserved). A nil function removes all delays. Delays
// only affect endpoints attached after the call.
func (n *MemNetwork) SetDelay(f func(from, to ident.PID) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delay = f
}

// Cut drops all future messages from→to (one direction). It exists to
// exercise failure detection; the SVS protocol itself assumes reliable
// channels between correct processes.
func (n *MemNetwork) Cut(from, to ident.PID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[link{from, to}] = true
}

// CutBoth drops all future messages between a and b in both directions.
func (n *MemNetwork) CutBoth(a, b ident.PID) {
	n.Cut(a, b)
	n.Cut(b, a)
}

// Heal restores the from→to link.
func (n *MemNetwork) Heal(from, to ident.PID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, link{from, to})
}

// Crash removes p from the network abruptly: its endpoint closes, all
// in-flight and future messages to or from p are dropped.
func (n *MemNetwork) Crash(p ident.PID) {
	n.mu.Lock()
	ep := n.eps[p]
	delete(n.eps, p)
	n.mu.Unlock()
	if ep != nil {
		ep.shutdown()
	}
}

// Endpoint attaches process p to the network. The reserved ident.NodeGroup
// is registered immediately; application groups are registered by
// Register or lazily by InboxBatch.
func (n *MemNetwork) Endpoint(p ident.PID) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[p]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already attached", p)
	}
	ep := &MemEndpoint{
		net:       n,
		self:      p,
		closeDone: make(chan struct{}),
		boxes:     newInboxSet(),
		links:     make(map[link]*pacedLink),
	}
	ep.boxes.register(ident.NodeGroup)
	n.eps[p] = ep
	return ep, nil
}

// MemEndpoint is a process's attachment to a MemNetwork.
type MemEndpoint struct {
	net   *MemNetwork
	self  ident.PID
	boxes *inboxSet

	mu        sync.Mutex
	closed    bool
	closeDone chan struct{}
	// links holds the outgoing paced links (lazily created) when the
	// network has a delay function installed.
	links map[link]*pacedLink
}

var _ Endpoint = (*MemEndpoint)(nil)

// Self implements Endpoint.
func (e *MemEndpoint) Self() ident.PID { return e.self }

// Drops returns the counters of envelopes discarded at deposit because
// their (group, channel) inbox was not registered.
func (e *MemEndpoint) Drops() DropStats { return e.boxes.drops() }

// Instrument mirrors the endpoint's drop counters onto ob as
// transport_dropped_total{reason=...}. Safe to call while traffic is
// flowing; core.NewNode calls it with the node's obs bundle.
func (e *MemEndpoint) Instrument(ob *obs.Obs) { e.boxes.instrument(ob) }

// Register implements Endpoint: create the inboxes of every channel of g.
func (e *MemEndpoint) Register(g ident.GroupID) { e.boxes.register(g) }

// Deregister implements Endpoint: remove and close the inboxes of g.
// Subsequent traffic for g is dropped and counted.
func (e *MemEndpoint) Deregister(g ident.GroupID) { e.boxes.deregister(g) }

// InboxBatch implements Endpoint.
func (e *MemEndpoint) InboxBatch(g ident.GroupID, ch Channel) <-chan []Envelope {
	return e.boxes.inbox(g, ch)
}

// Send implements Endpoint.
func (e *MemEndpoint) Send(to ident.PID, g ident.GroupID, ch Channel, m any) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.mu.Unlock()

	e.net.mu.RLock()
	dst, ok := e.net.eps[to]
	cutLink := e.net.cut[link{e.self, to}]
	delayFn := e.net.delay
	e.net.mu.RUnlock()

	if !ok {
		// The peer has crashed or never joined; in a crash-stop model the
		// message silently disappears with it.
		return ErrUnknownPeer
	}
	if cutLink {
		return nil // dropped by fault injection
	}

	var d time.Duration
	if delayFn != nil {
		d = delayFn(e.self, to)
	}
	env := Envelope{From: e.self, Group: g, Msg: m}
	if d <= 0 {
		dst.deposit(g, ch, env)
		return nil
	}
	e.pacedSend(to, g, ch, env, d, dst)
	return nil
}

// pacedSend routes env through the per-link pacing goroutine so delayed
// messages keep their FIFO order.
func (e *MemEndpoint) pacedSend(to ident.PID, g ident.GroupID, ch Channel, env Envelope, d time.Duration, dst *MemEndpoint) {
	key := link{e.self, to}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	pl, ok := e.links[key]
	if !ok {
		e.net.mu.RLock()
		clock := e.net.clock
		e.net.mu.RUnlock()
		pl = newPacedLink(clock)
		e.links[key] = pl
	}
	e.mu.Unlock()
	pl.push(pacedMsg{g: g, ch: ch, env: env, delay: d, dst: dst})
}

// deposit places env in the inbox for (g, ch), or drops and counts it
// when that inbox was never registered — traffic for a group this node
// does not host, or a channel outside the defined range.
func (e *MemEndpoint) deposit(g ident.GroupID, ch Channel, env Envelope) {
	e.boxes.deposit(g, ch, env)
}

// Close implements Endpoint: crash-stop shutdown. Concurrent or repeated
// Close calls all block until the shutdown completes, and no envelope is
// delivered from any inbox after Close returns.
func (e *MemEndpoint) Close() error {
	e.net.mu.Lock()
	if e.net.eps[e.self] == e {
		delete(e.net.eps, e.self)
	}
	e.net.mu.Unlock()
	e.shutdown()
	return nil
}

func (e *MemEndpoint) shutdown() {
	e.mu.Lock()
	if e.closed {
		done := e.closeDone
		e.mu.Unlock()
		<-done // wait for the first closer to finish
		return
	}
	e.closed = true
	links := make([]*pacedLink, 0, len(e.links))
	for _, pl := range e.links {
		links = append(links, pl)
	}
	e.mu.Unlock()
	for _, pl := range links {
		pl.close()
	}
	e.boxes.close()
	close(e.closeDone)
}

// pacedMsg is one message traversing a delayed link.
type pacedMsg struct {
	g     ident.GroupID
	ch    Channel
	env   Envelope
	delay time.Duration
	dst   *MemEndpoint
}

// pacedLink serialises messages on a delayed link: each message occupies
// the link for its delay, preserving FIFO order. Delays are measured on
// the network's clock, so a fake clock drives paced delivery
// deterministically.
type pacedLink struct {
	clock  obs.Clock
	mu     sync.Mutex
	cond   *sync.Cond
	items  []pacedMsg
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

func newPacedLink(clock obs.Clock) *pacedLink {
	pl := &pacedLink{clock: clock, done: make(chan struct{})}
	pl.cond = sync.NewCond(&pl.mu)
	pl.wg.Add(1)
	go pl.run()
	return pl
}

func (pl *pacedLink) push(m pacedMsg) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return
	}
	pl.items = append(pl.items, m)
	pl.cond.Signal()
}

func (pl *pacedLink) close() {
	pl.mu.Lock()
	if pl.closed {
		pl.mu.Unlock()
		return
	}
	pl.closed = true
	close(pl.done)
	pl.cond.Signal()
	pl.mu.Unlock()
	pl.wg.Wait()
}

func (pl *pacedLink) run() {
	defer pl.wg.Done()
	for {
		pl.mu.Lock()
		for len(pl.items) == 0 && !pl.closed {
			pl.cond.Wait()
		}
		if pl.closed {
			pl.mu.Unlock()
			return
		}
		m := pl.items[0]
		copy(pl.items, pl.items[1:])
		pl.items = pl.items[:len(pl.items)-1]
		pl.mu.Unlock()

		t := pl.clock.NewTimer(m.delay)
		select {
		case <-t.C():
			m.dst.deposit(m.g, m.ch, m.env)
		case <-pl.done:
			t.Stop()
			return
		}
	}
}
