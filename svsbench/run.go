package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ident"
)

// run is one measured pass of a workload over a freshly built cluster.
type run struct {
	sp      *spec
	seconds float64
	streams []*stream
	tr      *tracer // nil in an untraced pass

	epoch  time.Time
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	members []*member
	mu      sync.Mutex
	cons    [][]*consumer // [active group][member]: current incarnation
	allCons []*consumer   // every incarnation, in start order
	prods   []*producer

	// Membership cycles.
	vcLat     []float64 // request -> install at every survivor (ns)
	joinLat   []float64 // Join call -> joiner's view delivery (ns)
	joins     int
	failed    int // failed multicasts and joins
	errs      []string
	flushLens []float64
	xferMsgs  []float64
	xferBytes []float64

	trafficStart, trafficEnd int64
	quiesced                 int64
	heapBase                 uint64 // live heap before the cluster was built
	heapPeak                 atomic.Uint64
	histMax                  atomic.Int64
}

// producer drives one active group's stream through MulticastBatch.
type producer struct {
	gi  int
	grp *core.Group
	st  *stream

	committed ident.Seq
	batches   []batchRec  // runs of calls that returned the same view
	late      windowed    // commit return - due time, per message
	call      hist        // MulticastBatch duration, per call
	t0        int64       // open loop: when message 1 was due
	starts    batchStarts // closed loop: start of each batch
}

// batchStarts maps a batch index to the start of the MulticastBatch
// call that carried it, for consumers to time deliveries against. It
// grows in chunks, so the producer is never capped by its size.
type batchStarts struct {
	chunks [1 << 12]atomic.Pointer[[1 << 16]atomic.Int64]
}

func (b *batchStarts) set(i int, v int64) bool {
	c := i >> 16
	if c >= len(b.chunks) {
		return false
	}
	p := b.chunks[c].Load()
	if p == nil {
		p = new([1 << 16]atomic.Int64)
		b.chunks[c].Store(p)
	}
	p[i&(1<<16-1)].Store(v)
	return true
}

func (b *batchStarts) get(i int) int64 {
	if c := i >> 16; c < len(b.chunks) {
		if p := b.chunks[c].Load(); p != nil {
			return p[i&(1<<16-1)].Load()
		}
	}
	return 0
}

type batchRec struct {
	hi  ident.Seq
	ref ident.ViewRef
}

func newRun(sp *spec, seconds float64, streams []*stream, traced bool) *run {
	r := &run{sp: sp, seconds: seconds, streams: streams, epoch: time.Now(), heapBase: liveHeap()}
	if traced {
		r.tr = newTracer(r)
	}
	r.ctx, r.cancel = context.WithCancel(context.Background())
	return r
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// due is the time message seq of active group gi was due to be sent: its
// slot in the open-loop schedule, or the start of the MulticastBatch call
// that carried it in a closed loop.
func (r *run) due(gi int, seq ident.Seq) (int64, bool) {
	if gi >= len(r.prods) || r.prods[gi] == nil {
		return 0, false
	}
	p := r.prods[gi]
	if r.sp.rate > 0 {
		return p.t0 + int64(float64(seq-1)*1e9/r.sp.rate), true
	}
	v := p.starts.get(int(seq-1) / r.sp.batch)
	return v, v != 0
}

func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// liveHeap is the heap that survived the last garbage collection.
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

func (r *run) sampleHeap() {
	if v := liveHeap(); v > r.heapPeak.Load() {
		r.heapPeak.Store(v)
	}
}

// sampleLoop records the live-heap peak and, traced, the largest
// delivery history of any active group, until ctx ends.
func (r *run) sampleLoop(ctx context.Context) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		r.sampleHeap()
		if r.tr != nil {
			r.sampleHistory()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (r *run) sampleHistory() {
	for gi := range r.sp.producers {
		for idx := range r.members {
			if c := r.current(gi, idx); c != nil {
				if h := int64(c.grp.Stats().HistoryLen); h > r.histMax.Load() {
					r.histMax.Store(h)
				}
			}
		}
	}
}

// traffic runs the producers (and the churn cycle, if any) for the run
// length, then waits until every current member has delivered every
// group's last message.
func (r *run) traffic() {
	sctx, stopSampler := context.WithCancel(r.ctx)
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		r.sampleLoop(sctx)
	}()
	defer func() {
		stopSampler()
		sampler.Wait()
	}()

	r.prods = make([]*producer, len(r.sp.producers))
	for gi, idx := range r.sp.producers {
		r.prods[gi] = &producer{gi: gi, grp: r.current(gi, idx).grp, st: r.streams[gi]}
	}
	if r.tr != nil {
		r.tr.markTrafficStart(r)
		r.tr.phase.Store(phaseTraffic)
	}
	r.trafficStart = r.now()
	deadline := r.trafficStart + int64(r.seconds*1e9)
	var wg sync.WaitGroup
	for _, p := range r.prods {
		p := p
		p.t0 = r.trafficStart
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.produce(p, deadline)
		}()
	}
	if r.sp.churn > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.churnLoop(deadline)
		}()
	}
	wg.Wait()
	r.trafficEnd = r.now()
	r.quiesce()
	r.quiesced = r.now()
	// The live heap is only known after a collection; one here makes
	// sure the repeat's retained state is seen even if none ran during it.
	runtime.GC()
	r.sampleHeap()
	if r.tr != nil {
		r.tr.phase.Store(phaseProbe)
	}
	r.mu.Lock()
	for gi := range r.cons {
		for _, c := range r.cons[gi] {
			c.final = c.grp.Stats()
		}
	}
	r.mu.Unlock()
	if r.tr != nil {
		r.tr.snapshot(r)
	}
}

func (r *run) produce(p *producer, deadline int64) {
	msgs := make([]core.OutMsg, r.sp.batch)
	var seq ident.Seq
	limit := ident.Seq(p.st.limit())
	if r.sp.rate > 0 {
		total := ident.Seq(r.seconds * r.sp.rate)
		if limit == 0 || total < limit {
			limit = total
		}
	}
	sender := p.st.sender
	for {
		now := r.now()
		n := 0
		if r.sp.rate > 0 {
			if seq >= limit {
				break
			}
			next, _ := r.due(p.gi, seq+1)
			if next > now {
				time.Sleep(time.Duration(next - now))
				now = r.now()
			}
			for n < len(msgs) && seq+ident.Seq(n) < limit {
				if d, _ := r.due(p.gi, seq+ident.Seq(n)+1); d > now {
					break
				}
				n++
			}
		} else {
			if now >= deadline || !p.starts.set(int(seq)/r.sp.batch, now) {
				break
			}
			n = len(msgs)
		}
		for i := 0; i < n; i++ {
			s := seq + ident.Seq(i) + 1
			msgs[i] = core.OutMsg{Meta: p.st.meta(s), Payload: p.st.payload(s)}
		}
		t0 := r.now()
		ref, err := p.grp.MulticastBatch(r.ctx, msgs[:n])
		t1 := r.now()
		if err != nil {
			r.fail("multicast in group %d: %v", activeGroup(p.gi), err)
			r.mu.Lock()
			r.failed += n
			r.mu.Unlock()
			return
		}
		p.call.add(time.Duration(t1 - t0))
		for i := 0; i < n; i++ {
			due, _ := r.due(p.gi, seq+ident.Seq(i)+1)
			p.late.add(due-r.trafficStart, time.Duration(t1-due))
		}
		if r.tr != nil {
			r.tr.span("core.MulticastBatch", sender, activeGroup(p.gi), sender, seq+1, seq+ident.Seq(n), t0, t1)
		}
		seq += ident.Seq(n)
		p.committed = seq
		if n := len(p.batches); n > 0 && p.batches[n-1].ref == ref {
			p.batches[n-1].hi = seq
		} else {
			p.batches = append(p.batches, batchRec{hi: seq, ref: ref})
		}
	}
}

// quiesce waits until every current member of every active group has
// delivered the group's last committed message.
func (r *run) quiesce() {
	limit := time.Now().Add(30 * time.Second)
	for time.Now().Before(limit) {
		done := true
		for gi, p := range r.prods {
			for idx := range r.members {
				if c := r.current(gi, idx); c != nil && c.seqSeen.Load() < uint64(p.committed) {
					done = false
				}
			}
		}
		if done {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	r.fail("cluster did not quiesce within 30s")
}

// churnLoop runs the vs-churn membership cycle on its fixed schedule
// until the traffic deadline: the last member leaves a quarter period
// into each cycle and a fresh incarnation of it joins three quarters in.
func (r *run) churnLoop(deadline int64) {
	period := int64(r.sp.churn)
	for cycle := int64(0); ; cycle++ {
		start := r.trafficStart + cycle*period
		if start+period/4 >= deadline {
			return
		}
		r.sleepUntil(start + period/4)
		if err := r.leave(0); err != nil {
			r.fail("leave: %v", err)
			return
		}
		r.sleepUntil(start + 3*period/4)
		if err := r.join(0); err != nil {
			r.fail("join: %v", err)
			return
		}
	}
}

func (r *run) sleepUntil(t int64) {
	if d := t - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// probe runs the membership cycle back to back on the quiet cluster, so
// every workload reports view-change and join cost.
func (r *run) probe() {
	for i := 0; i < r.sp.probeCycles; i++ {
		if err := r.leave(0); err != nil {
			r.fail("leave: %v", err)
			return
		}
		if err := r.join(0); err != nil {
			r.fail("join: %v", err)
			return
		}
	}
}

var errTimeout = errors.New("timed out")

// survivorsInstalled waits until every consumer in cs has installed a
// view after before[i] and returns the latest install time.
func (r *run) survivorsInstalled(cs []*consumer, before []uint64) (int64, error) {
	limit := time.Now().Add(10 * time.Second)
	for {
		done := true
		var at int64
		for i, c := range cs {
			if c.viewID.Load() <= before[i] {
				done = false
				break
			}
			if v := c.viewAt.Load(); v > at {
				at = v
			}
		}
		if done {
			return at, nil
		}
		if time.Now().After(limit) {
			return 0, errTimeout
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *run) survivors(gi int) ([]*consumer, []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs := append([]*consumer(nil), r.cons[gi][:r.sp.members-1]...)
	before := make([]uint64, len(cs))
	for i, c := range cs {
		before[i] = c.viewID.Load()
	}
	return cs, before
}

// leave removes the last member from active group gi through a view
// change requested by member 1, then detaches its engine.
func (r *run) leave(gi int) error {
	cs, before := r.survivors(gi)
	old := r.current(gi, r.sp.members-1)
	if r.tr != nil {
		r.sampleHistory()
	}
	t0 := r.now()
	if err := cs[1].grp.RequestViewChange(old.pid); err != nil {
		return fmt.Errorf("request view change: %w", err)
	}
	at, err := r.survivorsInstalled(cs, before)
	if err != nil {
		return fmt.Errorf("view change excluding %s: %w", old.pid, err)
	}
	if r.tr != nil {
		r.tr.span("core.RequestViewChange", cs[1].pid, activeGroup(gi), "", 0, 0, t0, at)
	}
	old.grp.Leave()
	<-old.done
	old.final = old.grp.Stats()
	r.mu.Lock()
	r.vcLat = append(r.vcLat, float64(at-t0))
	r.flushLens = append(r.flushLens, float64(cs[1].grp.Stats().LastFlushLen))
	r.cons[gi][r.sp.members-1] = nil
	r.mu.Unlock()
	return nil
}

// join brings a fresh incarnation of the last member back into active
// group gi through Node.Join, with member 1 as contact.
func (r *run) join(gi int) error {
	cs, before := r.survivors(gi)
	m := r.members[r.sp.members-1]
	r.mu.Lock()
	r.joins++
	r.mu.Unlock()
	t0 := r.now()
	g, err := m.node.Join(activeGroup(gi), r.groupConfig(), cs[1].pid)
	if err != nil {
		r.mu.Lock()
		r.failed++
		r.mu.Unlock()
		return fmt.Errorf("Node.Join: %w", err)
	}
	c := r.startConsumer(gi, m, g, false)
	// The admitting view must be in place at every survivor too, so the
	// next leave starts from a settled view.
	if _, err = r.survivorsInstalled([]*consumer{c}, []uint64{0}); err == nil {
		_, err = r.survivorsInstalled(cs, before)
	}
	if err != nil {
		r.mu.Lock()
		r.failed++
		r.mu.Unlock()
		return fmt.Errorf("join of %s: %w", m.pid, err)
	}
	joined := c.viewAt.Load()
	if r.tr != nil {
		r.tr.span("core.Node.Join", m.pid, activeGroup(gi), "", 0, 0, t0, joined)
	}
	st := g.Stats()
	r.mu.Lock()
	r.joinLat = append(r.joinLat, float64(joined-t0))
	r.xferMsgs = append(r.xferMsgs, float64(st.JoinBacklogRecv))
	r.xferBytes = append(r.xferBytes, float64(st.JoinBytesRecv))
	r.mu.Unlock()
	return nil
}
