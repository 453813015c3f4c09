package fd

import (
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// Beat is the heartbeat wire message.
type Beat struct{}

func init() {
	codec.Register[Beat](codec.TBeat,
		func(dst []byte, _ Beat) []byte { return dst },
		func(_ *codec.Reader) (Beat, error) { return Beat{}, nil })
}

// HeartbeatOptions configures the heartbeat detector.
type HeartbeatOptions struct {
	// Interval between heartbeats. Default 20ms.
	Interval time.Duration
	// Timeout after which a silent peer is suspected. Default 5×Interval.
	Timeout time.Duration
	// Obs supplies the clock, metrics and event sink. All timestamps and
	// the beat ticker come from its Clock, so a deterministic clock makes
	// suspicion timing exactly reproducible (see the fake-clock tests).
	// Nil disables metrics and events and uses the wall clock.
	Obs *obs.Obs
}

func (o *HeartbeatOptions) defaults() {
	if o.Interval <= 0 {
		o.Interval = 20 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * o.Interval
	}
}

// hbMetrics are the heartbeat detector's instruments. Nil instruments
// (no registry) record nothing.
type hbMetrics struct {
	beatsSent  *obs.Counter
	beatsRecv  *obs.Counter
	sendErrors *obs.Counter
	suspicions *obs.Counter
	revivals   *obs.Counter
	beatGap    *obs.Histogram // observed gap between a peer's beats
}

// Heartbeat is a timeout-based eventually-accurate failure detector: each
// process periodically beats to its peers; a peer silent for longer than
// the timeout is suspected, and the suspicion is revised as soon as a beat
// arrives again (◇S style: finitely many mistakes once timing stabilises).
//
// Heartbeats are node-scoped, not group-scoped: they travel in
// ident.NodeGroup on the FailureDetector channel, so one detector serves
// every group the node hosts (see fd.Fanout for sharing its events).
type Heartbeat struct {
	ep    transport.Endpoint
	opts  HeartbeatOptions
	clock obs.Clock
	ob    *obs.Obs
	m     hbMetrics
	ev    *obs.Events

	mu        sync.Mutex
	peers     ident.PIDs
	lastSeen  map[ident.PID]time.Time
	susp      map[ident.PID]bool
	suspGauge map[ident.PID]*obs.Gauge // per-peer suspected state (0/1)

	n    *notifier
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

var _ Detector = (*Heartbeat)(nil)

// NewHeartbeat returns a detector monitoring peers through ep. Call Start
// to begin beating.
func NewHeartbeat(ep transport.Endpoint, peers ident.PIDs, opts HeartbeatOptions) *Heartbeat {
	opts.defaults()
	ob := opts.Obs
	h := &Heartbeat{
		ep:    ep,
		opts:  opts,
		clock: ob.Clock(),
		ob:    ob,
		ev:    ob.Events(),
		m: hbMetrics{
			beatsSent:  ob.Counter("fd_beats_sent_total"),
			beatsRecv:  ob.Counter("fd_beats_recv_total"),
			sendErrors: ob.Counter("fd_beat_send_errors_total"),
			suspicions: ob.Counter("fd_suspicions_total"),
			revivals:   ob.Counter("fd_revivals_total"),
			beatGap:    ob.Histogram("fd_beat_gap_seconds", obs.DurationBuckets),
		},
		lastSeen:  make(map[ident.PID]time.Time),
		susp:      make(map[ident.PID]bool),
		suspGauge: make(map[ident.PID]*obs.Gauge),
		n:         newNotifier(),
		done:      make(chan struct{}),
	}
	h.peers = peers.Clone().Remove(ep.Self())
	for _, p := range h.peers {
		h.suspGauge[p] = h.peerGauge(p)
	}
	return h
}

// peerGauge resolves the per-peer suspected gauge (nil without a registry).
func (h *Heartbeat) peerGauge(p ident.PID) *obs.Gauge {
	return h.ob.GaugeL("fd_suspected", obs.L("peer", string(p)))
}

// Start launches the beat and monitor goroutines.
func (h *Heartbeat) Start() {
	now := h.clock.Now()
	h.mu.Lock()
	for _, p := range h.peers {
		h.lastSeen[p] = now
	}
	h.mu.Unlock()
	h.wg.Add(2)
	go h.beatLoop()
	go h.recvLoop()
}

// SetPeers replaces the monitored set (e.g. after a view change). Newly
// added peers start unsuspected with a fresh grace period.
func (h *Heartbeat) SetPeers(peers ident.PIDs) {
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	next := peers.Clone().Remove(h.ep.Self())
	for _, p := range next {
		if !h.peers.Contains(p) {
			h.lastSeen[p] = now
			h.suspGauge[p] = h.peerGauge(p)
		}
	}
	for _, p := range h.peers {
		if !next.Contains(p) {
			delete(h.lastSeen, p)
			delete(h.susp, p)
			h.suspGauge[p].Set(0)
			delete(h.suspGauge, p)
		}
	}
	h.peers = next
}

func (h *Heartbeat) beatLoop() {
	defer h.wg.Done()
	ticker := h.clock.NewTicker(h.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-h.done:
			return
		case <-ticker.C():
			h.mu.Lock()
			peers := h.peers.Clone()
			h.mu.Unlock()
			for _, p := range peers {
				// Best effort: a failed send is just a missing beat, but it
				// is counted — a climbing error rate is a dead link.
				if err := h.ep.Send(p, ident.NodeGroup, transport.FailureDetector, Beat{}); err != nil {
					h.m.sendErrors.Inc()
				} else {
					h.m.beatsSent.Inc()
				}
			}
			h.check(h.clock.Now())
		}
	}
}

func (h *Heartbeat) recvLoop() {
	defer h.wg.Done()
	inbox := h.ep.InboxBatch(ident.NodeGroup, transport.FailureDetector)
	for {
		select {
		case <-h.done:
			return
		case envs, ok := <-inbox:
			if !ok {
				return
			}
			for _, env := range envs {
				h.alive(env.From)
			}
		}
	}
}

func (h *Heartbeat) alive(p ident.PID) {
	now := h.clock.Now()
	h.mu.Lock()
	if !h.peers.Contains(p) {
		h.mu.Unlock()
		return
	}
	if last, ok := h.lastSeen[p]; ok {
		h.m.beatGap.ObserveDuration(now.Sub(last))
	}
	h.lastSeen[p] = now
	revised := h.susp[p]
	delete(h.susp, p)
	gauge := h.suspGauge[p]
	h.mu.Unlock()
	h.m.beatsRecv.Inc()
	if revised {
		gauge.Set(0)
		h.m.revivals.Inc()
		h.ev.Suspicion(string(p), false)
		h.n.emit(Event{P: p, Suspected: false})
	}
}

func (h *Heartbeat) check(now time.Time) {
	var newly []ident.PID
	h.mu.Lock()
	for _, p := range h.peers {
		if h.susp[p] {
			continue
		}
		if now.Sub(h.lastSeen[p]) > h.opts.Timeout {
			h.susp[p] = true
			h.suspGauge[p].Set(1)
			newly = append(newly, p)
		}
	}
	h.mu.Unlock()
	for _, p := range newly {
		h.m.suspicions.Inc()
		h.ev.Suspicion(string(p), true)
		h.n.emit(Event{P: p, Suspected: true})
	}
}

// Suspected implements Detector.
func (h *Heartbeat) Suspected(p ident.PID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.susp[p]
}

// Suspects implements Detector.
func (h *Heartbeat) Suspects() ident.PIDs {
	h.mu.Lock()
	defer h.mu.Unlock()
	ps := make([]ident.PID, 0, len(h.susp))
	for p, s := range h.susp {
		if s {
			ps = append(ps, p)
		}
	}
	return ident.NewPIDs(ps...)
}

// Events implements Detector.
func (h *Heartbeat) Events() <-chan Event { return h.n.out }

// Stop implements Detector.
func (h *Heartbeat) Stop() {
	h.once.Do(func() {
		close(h.done)
		h.wg.Wait()
		h.n.close()
	})
}
