package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// Node is the multi-group runtime: it hosts any number of independent SVS
// group instances on one shared transport endpoint. The paper's motivating
// workload (§5) is naturally many small groups — rooms, regions, topics —
// and a Node is what lets one OS process serve them all instead of one
// process per group.
//
// The Node owns the pieces that are per-node, not per-group:
//
//   - the transport endpoint, whose (GroupID, Channel) inboxes demultiplex
//     one connection pair per peer across every shared group;
//   - a single failure detector (by default a heartbeat detector beating
//     once per peer in ident.NodeGroup, no matter how many groups share
//     that peer), whose suspicions fan out to every hosted group through
//     an fd.Fanout.
//
// Everything else stays per-group and fully isolated: each group runs its
// own Engine (protocol loop, delivery queue, flow-control windows,
// per-peer outgoing queues) and its own consensus service, keyed by group
// on the wire. A blocked or slow group therefore never delays another
// group's data or control plane — the §5.3 buffer-separation rule lifted
// to group granularity.
type Node struct {
	cfg NodeConfig
	obs *obs.Obs      // node-labelled bundle; groups derive from it
	hb  *fd.Heartbeat // non-nil when the node owns its detector
	det fd.Detector
	fan *fd.Fanout

	mu     sync.Mutex
	groups map[ident.GroupID]*Group
	// busy holds the ids a host call is still setting up or a Leave is
	// still tearing down. They count as hosted, so at most one engine per
	// id is ever live and a re-hosted group never shares its inboxes with
	// its predecessor.
	busy map[ident.GroupID]struct{}
	// groupPeers tracks each hosted group's *current* peers (initial
	// view at Create, then every installed view via groupDetector): the
	// node-owned heartbeat monitors exactly the union, so a peer evicted
	// from its last shared group stops being beaten and re-dialed.
	groupPeers map[ident.GroupID]ident.PIDs
	closed     bool
}

// NodeConfig assembles a Node.
type NodeConfig struct {
	// Self is this process's identifier; it must equal Endpoint.Self().
	Self ident.PID
	// Endpoint is the shared transport attachment. The Node owns it:
	// Close closes it.
	Endpoint transport.Endpoint
	// Detector optionally supplies the shared failure detector (already
	// started). When nil the Node runs its own fd.Heartbeat over the
	// endpoint, monitoring the union of all hosted groups' initial
	// memberships, and stops it on Close.
	Detector fd.Detector
	// Heartbeat tunes the node-owned heartbeat detector (ignored when
	// Detector is set).
	Heartbeat fd.HeartbeatOptions
	// Obs supplies the clock, metrics registry and structured-event sink
	// shared by everything the node runs: the heartbeat detector records
	// under it directly, and every hosted group's engine gets a derived
	// bundle labelled with the group id (so one registry snapshot separates
	// the groups). Nil means the wall clock with no instrumentation.
	Obs *obs.Obs
}

// GroupConfig configures one hosted group; it is Config minus the fields
// the Node supplies (Self, Group, Endpoint, Detector).
type GroupConfig struct {
	// InitialView is the agreed first view (same at every member).
	InitialView View
	// Relation is the obsolescence relation; nil means classic VS.
	Relation obsolete.Relation
	// ToDeliverCap / OutgoingCap / Window bound this group's protocol
	// buffers, independently of every other group (see Config).
	ToDeliverCap int
	OutgoingCap  int
	Window       int
	// AutoEvict triggers eviction view changes on suspicion (see Config).
	AutoEvict bool
	// StabilityInterval enables reception-frontier gossip (see Config).
	StabilityInterval time.Duration
	// Heal enables partition healing for this group (see Config.Heal).
	Heal *HealSpec
	// MaxDeferredCtl bounds the future-view control stash (see Config).
	MaxDeferredCtl int
}

// Group is one hosted group: the Engine facade (Multicast, Deliver,
// RequestViewChange, View, Stats) plus the node-side lifecycle.
type Group struct {
	*Engine

	node *Node
	id   ident.GroupID
	tap  *fd.Tap
}

// groupDetector is the Detector handed to one group's engine: the shared
// detector's Tap for events and queries, plus the view-install SetPeers
// hook (protocol.go), which reports the group's current membership back
// to the node so the shared heartbeat tracks view changes — without it,
// a peer evicted from every group would be monitored (and re-dialed)
// forever.
type groupDetector struct {
	*fd.Tap
	node *Node
	id   ident.GroupID
}

// SetPeers reports the group's newly installed membership to the node.
func (d *groupDetector) SetPeers(members ident.PIDs) {
	d.node.setGroupPeers(d.id, members)
}

// ID returns the group's identifier.
func (g *Group) ID() ident.GroupID { return g.id }

// NewNode returns a running node hosting no groups yet.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("core: node config: Self is required")
	}
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("core: node config: Endpoint is required")
	}
	if cfg.Endpoint.Self() != cfg.Self {
		return nil, fmt.Errorf("core: node config: Endpoint.Self() %q != Self %q", cfg.Endpoint.Self(), cfg.Self)
	}
	n := &Node{
		cfg:        cfg,
		obs:        cfg.Obs,
		det:        cfg.Detector,
		groups:     make(map[ident.GroupID]*Group),
		busy:       make(map[ident.GroupID]struct{}),
		groupPeers: make(map[ident.GroupID]ident.PIDs),
	}
	// Endpoints that can mirror their drop counters onto an obs registry
	// (both in-tree transports) get the node's bundle; transports without
	// the hook are left alone.
	if in, ok := cfg.Endpoint.(interface{ Instrument(*obs.Obs) }); ok {
		in.Instrument(n.obs)
	}
	if n.det == nil {
		hbo := cfg.Heartbeat
		if hbo.Obs == nil {
			hbo.Obs = n.obs
		}
		n.hb = fd.NewHeartbeat(cfg.Endpoint, nil, hbo)
		n.hb.Start()
		n.det = n.hb
	}
	n.fan = fd.NewFanout(n.det)
	return n, nil
}

// Self returns this node's process identifier.
func (n *Node) Self() ident.PID { return n.cfg.Self }

// Detector returns the shared failure detector.
func (n *Node) Detector() fd.Detector { return n.det }

// Obs returns the node's observability bundle (nil when none was given).
func (n *Node) Obs() *obs.Obs { return n.obs }

// Metrics snapshots every instrument the node and its groups have
// recorded. With no registry attached the snapshot is empty, never nil.
func (n *Node) Metrics() obs.Snapshot {
	return n.obs.Registry().Snapshot()
}

// Groups returns the identifiers of the hosted groups, sorted.
func (n *Node) Groups() []ident.GroupID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]ident.GroupID, 0, len(n.groups))
	for g := range n.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Group returns the hosted group g, if any.
func (n *Node) Group(g ident.GroupID) (*Group, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	grp, ok := n.groups[g]
	return grp, ok
}

// host implements Create and Join: it wires a group-scoped engine onto
// the node's shared endpoint and detector. join selects the engine's
// bootstrap mode.
func (n *Node) host(id ident.GroupID, gc GroupConfig, join *JoinSpec) (*Group, error) {
	if id == ident.NodeGroup {
		return nil, fmt.Errorf("core: group id %d is reserved for node-scoped traffic", id)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: node closed")
	}
	if n.hostedLocked(id) {
		n.mu.Unlock()
		return nil, fmt.Errorf("core: group %d already hosted", id)
	}
	n.busy[id] = struct{}{}
	n.mu.Unlock()

	// Inboxes must exist before the first peer envelope can arrive for
	// the group (engine.New registers too; this keeps the window closed
	// even if construction fails midway and stray traffic shows up).
	n.cfg.Endpoint.Register(id)
	tap := n.fan.Tap()
	eng, err := New(Config{
		Self:              n.cfg.Self,
		Group:             id,
		Endpoint:          n.cfg.Endpoint,
		Detector:          &groupDetector{Tap: tap, node: n, id: id},
		InitialView:       gc.InitialView,
		Join:              join,
		Relation:          gc.Relation,
		ToDeliverCap:      gc.ToDeliverCap,
		OutgoingCap:       gc.OutgoingCap,
		Window:            gc.Window,
		AutoEvict:         gc.AutoEvict,
		StabilityInterval: gc.StabilityInterval,
		Heal:              gc.Heal,
		MaxDeferredCtl:    gc.MaxDeferredCtl,
		Obs:               n.obs.With(obs.L("group", fmt.Sprint(id))),
	})
	if err != nil {
		// The id is reserved, so the eagerly registered inboxes are ours.
		tap.Stop()
		n.cfg.Endpoint.Deregister(id)
		n.unbusy(id)
		return nil, err
	}
	grp := &Group{Engine: eng, node: n, id: id, tap: tap}

	n.mu.Lock()
	delete(n.busy, id)
	if n.closed {
		n.mu.Unlock()
		tap.Stop()
		return nil, fmt.Errorf("core: node closed")
	}
	n.groups[id] = grp
	// A joiner monitors its contacts until the first installed view
	// reports the real membership through the SetPeers hook.
	peers := gc.InitialView.Members
	if join != nil {
		peers = join.Contacts
	}
	n.groupPeers[id] = peers.Clone().Remove(n.cfg.Self)
	n.syncPeersLocked()
	n.mu.Unlock()

	if err := eng.Start(); err != nil {
		grp.Leave()
		return nil, err
	}
	return grp, nil
}

// Join hosts group id by joining it while it runs: instead of agreeing an
// initial view with the other members (Create), the node asks the contact
// members for admission and installs its first view — membership,
// reception frontiers, and the relation-purged unstable backlog — from
// the state transfer that follows the admitting view change. The group
// behaves like any other hosted group from then on. gc.InitialView is
// ignored.
func (n *Node) Join(id ident.GroupID, gc GroupConfig, contacts ...ident.PID) (*Group, error) {
	return n.host(id, gc, &JoinSpec{Contacts: ident.NewPIDs(contacts...)})
}

// JoinWith is Join with an explicit JoinSpec, for callers that need to
// tune the retransmission backoff or set a give-up budget (JoinSpec.GiveUp)
// instead of retrying dead contacts forever.
func (n *Node) JoinWith(id ident.GroupID, gc GroupConfig, spec JoinSpec) (*Group, error) {
	return n.host(id, gc, &spec)
}

// Create joins this node to group id as a founding member: it registers
// the group's transport inboxes, taps the shared failure detector, and
// starts a group-scoped engine. Every founding member must Create the
// group with the same id and InitialView.
func (n *Node) Create(id ident.GroupID, gc GroupConfig) (*Group, error) {
	return n.host(id, gc, nil)
}

// Add asks the group to admit the given processes, which must be running
// joining engines (Node.Join or Config.Join). It returns once the view
// change is initiated; the joiners appear in the next installed view and
// receive their state transfer from the sponsor.
func (g *Group) Add(ps ...ident.PID) error {
	return g.Engine.RequestMembershipChange(ident.NewPIDs(ps...), nil)
}

// hostedLocked reports whether id is hosted or busy. Callers hold n.mu.
func (n *Node) hostedLocked(id ident.GroupID) bool {
	_, hosted := n.groups[id]
	_, busy := n.busy[id]
	return hosted || busy
}

// unbusy releases id for hosting.
func (n *Node) unbusy(id ident.GroupID) {
	n.mu.Lock()
	delete(n.busy, id)
	n.mu.Unlock()
}

// setGroupPeers records group id's newly installed membership and
// re-syncs the heartbeat peer set. Calls for groups no longer hosted
// (a view install racing Leave) are ignored.
func (n *Node) setGroupPeers(id ident.GroupID, members ident.PIDs) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, hosted := n.groups[id]; !hosted {
		return
	}
	n.groupPeers[id] = members.Clone().Remove(n.cfg.Self)
	n.syncPeersLocked()
}

// syncPeersLocked pushes the union of all groups' current peers into the
// node-owned heartbeat detector. Callers hold n.mu.
func (n *Node) syncPeersLocked() {
	if n.hb == nil {
		return
	}
	var union ident.PIDs
	for _, peers := range n.groupPeers {
		union = union.Union(peers)
	}
	n.hb.SetPeers(union)
}

// Leave detaches the group from its node: the engine stops, the detector
// tap closes, the transport inboxes are deregistered (stray traffic for
// the group is dropped and counted from then on), and peers no group
// shares anymore stop being monitored. The id cannot be hosted again
// until all of that is done. Leave is idempotent.
func (g *Group) Leave() {
	n := g.node
	n.mu.Lock()
	if n.groups[g.id] != g {
		n.mu.Unlock()
		return // already left (or superseded)
	}
	delete(n.groups, g.id)
	n.busy[g.id] = struct{}{}
	delete(n.groupPeers, g.id)
	n.syncPeersLocked()
	n.mu.Unlock()

	g.Engine.Stop()
	g.tap.Stop()
	n.cfg.Endpoint.Deregister(g.id)
	n.unbusy(g.id)
}

// Close shuts the node down: every hosted group leaves, the detector
// fan-out stops, the node-owned heartbeat (if any) stops, and the shared
// endpoint closes. Close is idempotent.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	groups := make([]*Group, 0, len(n.groups))
	for _, g := range n.groups {
		groups = append(groups, g)
	}
	n.groups = make(map[ident.GroupID]*Group)
	n.groupPeers = make(map[ident.GroupID]ident.PIDs)
	n.mu.Unlock()

	for _, g := range groups {
		g.Engine.Stop()
		g.tap.Stop()
		n.cfg.Endpoint.Deregister(g.id)
	}
	n.fan.Stop()
	if n.hb != nil {
		n.hb.Stop()
	}
	return n.cfg.Endpoint.Close()
}
