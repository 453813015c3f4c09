package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/transport"
)

// member is one node of the cluster. Its node has its own obs registry
// and no event logger, as a node would be operated.
type member struct {
	idx  int
	pid  ident.PID
	node *core.Node
	tcp  *transport.TCPNetwork
}

// consumer is the application loop of one (member incarnation, active
// group). Everything but the atomics is owned by its goroutine until
// done is closed.
type consumer struct {
	r       *run
	gi      int
	pid     ident.PID
	grp     *core.Group
	idx     int
	last    bool // the last member: paced in game-slow, churned in vs-churn
	self    bool // the group's producer
	founder bool // started with the cluster, holding the initial view

	lastSeq  ident.Seq
	got      bitset
	marks    []viewMark
	installs []installRec
	cur      ident.ViewRef
	hasView  bool
	errs     []string
	lat      windowed
	calls    uint64
	items    uint64
	waiting  time.Duration
	lifetime time.Duration

	viewID  atomic.Uint64 // last installed view
	viewAt  atomic.Int64  // when it was delivered (run clock)
	seqSeen atomic.Uint64 // highest delivered seq
	done    chan struct{}
	final   core.Stats
}

// viewMark records that deliveries from seq on (until the next mark)
// belong to view ref.
type viewMark struct {
	seq ident.Seq
	ref ident.ViewRef
}

type installRec struct {
	ref     ident.ViewRef
	members ident.PIDs
}

// bitset is a growable set of sequence numbers.
type bitset []uint64

func (b *bitset) set(i ident.Seq) {
	w := int(i / 64)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

func (b bitset) has(i ident.Seq) bool {
	w := int(i / 64)
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

// build constructs the cluster: endpoints, nodes with node-owned
// heartbeat detectors, the active and idle groups, and one consumer loop
// per (member, group).
func (r *run) build() error {
	sp := r.sp
	all := make(ident.PIDs, 0, sp.members)
	for i := 0; i < sp.members; i++ {
		all = append(all, pidOf(i))
	}
	all = ident.NewPIDs(all...)
	eps := make([]transport.Endpoint, sp.members)
	r.members = make([]*member, sp.members)
	if sp.tcp {
		for i := range eps {
			n, err := transport.NewTCPNetwork(pidOf(i), "127.0.0.1:0", nil)
			if err != nil {
				return fmt.Errorf("tcp endpoint: %w", err)
			}
			eps[i] = n
			r.members[i] = &member{idx: i, pid: pidOf(i), tcp: n}
		}
		for i := range eps {
			for j := range eps {
				if i != j {
					r.members[i].tcp.AddPeer(pidOf(j), r.members[j].tcp.Addr())
				}
			}
		}
	} else {
		net := transport.NewMemNetwork()
		for i := range eps {
			ep, err := net.Endpoint(pidOf(i))
			if err != nil {
				return fmt.Errorf("mem endpoint: %w", err)
			}
			eps[i] = ep
			r.members[i] = &member{idx: i, pid: pidOf(i)}
		}
	}
	r.cons = make([][]*consumer, len(sp.producers))
	for gi := range r.cons {
		r.cons[gi] = make([]*consumer, sp.members)
	}
	for i, m := range r.members {
		ep := eps[i]
		if r.tr != nil {
			ep = &tracedEndpoint{Endpoint: ep, t: r.tr, self: m.pid}
		}
		node, err := core.NewNode(core.NodeConfig{Self: m.pid, Endpoint: ep, Obs: obs.New(obs.Wall{}, obs.NewRegistry(), nil)})
		if err != nil {
			ep.Close()
			return fmt.Errorf("node %s: %w", m.pid, err)
		}
		m.node = node
		for gi := range sp.producers {
			gc := r.groupConfig()
			gc.InitialView = core.View{ID: 1, Members: all}
			g, err := node.Create(activeGroup(gi), gc)
			if err != nil {
				return fmt.Errorf("create group %d at %s: %w", activeGroup(gi), m.pid, err)
			}
			r.startConsumer(gi, m, g, true)
		}
		for k := 0; k < sp.idle; k++ {
			gc := sp.gc()
			gc.InitialView = core.View{ID: 1, Members: all}
			g, err := node.Create(idleGroup(k), gc)
			if err != nil {
				return fmt.Errorf("create idle group at %s: %w", m.pid, err)
			}
			r.wg.Add(1)
			go func() {
				defer r.wg.Done()
				dst := make([]core.Delivery, 16)
				for {
					if _, err := g.DeliverBatch(r.ctx, dst); err != nil {
						return
					}
				}
			}()
		}
	}
	return nil
}

func activeGroup(gi int) ident.GroupID { return ident.GroupID(gi + 1) }
func idleGroup(k int) ident.GroupID    { return ident.GroupID(100 + k) }

// groupConfig is the workload's group configuration, with the relation
// wrapped for counting in a traced run.
func (r *run) groupConfig() core.GroupConfig {
	gc := r.sp.gc()
	if r.tr != nil {
		gc.Relation = r.tr.wrapRelation(gc.Relation)
	}
	return gc
}

// teardown stops every node and waits for every loop the run started.
func (r *run) teardown() {
	r.cancel()
	for _, m := range r.members {
		if m != nil && m.node != nil {
			m.node.Close()
		}
	}
	r.wg.Wait()
}

func (r *run) startConsumer(gi int, m *member, g *core.Group, founder bool) *consumer {
	c := &consumer{
		r: r, gi: gi, pid: m.pid, grp: g, idx: m.idx, founder: founder,
		last: m.idx == r.sp.members-1,
		self: m.idx == r.sp.producers[gi],
		done: make(chan struct{}),
	}
	r.mu.Lock()
	r.cons[gi][m.idx] = c
	r.allCons = append(r.allCons, c)
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		c.loop(r.ctx)
	}()
	return c
}

func (c *consumer) loop(ctx context.Context) {
	defer close(c.done)
	paced := c.last && c.r.sp.slowRate > 0
	size := 256
	if paced {
		size = 16
	}
	dst := make([]core.Delivery, size)
	begin := time.Now()
	defer func() { c.lifetime = time.Since(begin) }()
	next := begin
	for {
		t0 := c.r.now()
		n, err := c.grp.DeliverBatch(ctx, dst)
		t1 := c.r.now()
		if err != nil {
			return
		}
		c.calls++
		c.items += uint64(n)
		c.waiting += time.Duration(t1 - t0)
		var lo, hi ident.Seq
		for i := 0; i < n; i++ {
			if s := c.on(&dst[i], t1); s != 0 {
				if lo == 0 {
					lo = s
				}
				hi = s
			}
			dst[i] = core.Delivery{}
		}
		if c.r.tr != nil {
			c.r.tr.span("core.DeliverBatch", c.pid, activeGroup(c.gi), c.r.streams[c.gi].sender, lo, hi, t0, t1)
		}
		if paced {
			// A token bucket holding at most one batch: sleep overshoot
			// is made up on the next batch, time spent waiting for
			// deliveries is not.
			if floor := time.Now().Add(-time.Duration(float64(size) / c.r.sp.slowRate * 1e9)); next.Before(floor) {
				next = floor
			}
			next = next.Add(time.Duration(float64(n) / c.r.sp.slowRate * 1e9))
			time.Sleep(time.Until(next))
		}
	}
}

// on records one delivery and returns its seq for data (0 otherwise).
func (c *consumer) on(d *core.Delivery, at int64) ident.Seq {
	switch d.Kind {
	case core.DeliverData:
		st := c.r.streams[c.gi]
		seq := d.Meta.Seq
		ref := ident.ViewRef{Epoch: d.Epoch, ID: d.View}
		switch {
		case d.Meta.Sender != st.sender:
			c.errs = append(c.errs, fmt.Sprintf("%s delivered a message from %s, which never multicast", c.pid, d.Meta.Sender))
			return 0
		case seq <= c.lastSeq:
			c.errs = append(c.errs, fmt.Sprintf("%s delivered seq %d after %d", c.pid, seq, c.lastSeq))
			return 0
		case c.hasView && ref != c.cur:
			c.errs = append(c.errs, fmt.Sprintf("%s delivered seq %d of view %v while in view %v", c.pid, seq, ref, c.cur))
		}
		c.lastSeq = seq
		c.got.set(seq)
		if len(c.marks) == 0 || c.marks[len(c.marks)-1].ref != ref {
			c.marks = append(c.marks, viewMark{seq: seq, ref: ref})
		}
		c.seqSeen.Store(uint64(seq))
		// A joiner first delivers the backlog of its state transfer,
		// then its view: that catch-up is join cost, not traffic, and is
		// not timed.
		if !c.self && (c.founder || c.hasView) {
			if due, ok := c.r.due(c.gi, seq); ok {
				c.lat.add(due-c.r.trafficStart, time.Duration(at-due))
			}
			if c.r.tr != nil {
				c.r.tr.delivered(activeGroup(c.gi), c.pid, seq, at)
			}
		}
		return seq
	case core.DeliverView:
		ref := ident.ViewRef{Epoch: d.Epoch, ID: d.View}
		c.installs = append(c.installs, installRec{ref: ref, members: d.NewView.Members.Clone()})
		c.cur, c.hasView = ref, true
		c.viewAt.Store(at)
		c.viewID.Store(uint64(d.View))
	case core.DeliverExpelled:
		c.hasView = false
	}
	return 0
}

// viewOf returns the view c delivered seq in (false when not delivered).
func (c *consumer) viewOf(seq ident.Seq) (ident.ViewRef, bool) {
	if !c.got.has(seq) {
		return ident.ViewRef{}, false
	}
	var ref ident.ViewRef
	for _, m := range c.marks {
		if m.seq > seq {
			break
		}
		ref = m.ref
	}
	return ref, true
}

// current returns the live consumer of (gi, member) under the run lock.
func (r *run) current(gi, idx int) *consumer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cons[gi][idx]
}
