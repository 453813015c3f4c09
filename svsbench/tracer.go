package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// Tracing lives entirely in the benchmark: spans are taken around the
// calls it makes into core, and around transport.Send by wrapping each
// node's endpoint; Obsoletes calls are counted by wrapping the relation.
// Counters come from the public readers (Group.Stats, Node.Metrics,
// TCPNetwork.Stats).

const (
	phaseSetup int32 = iota
	phaseTraffic
	phaseProbe
)

// maxSpans is how many spans a traced repeat keeps by default.
const maxSpans = 100000

type span struct {
	Name   string        `json:"name"`
	Node   ident.PID     `json:"node"`
	Group  ident.GroupID `json:"group"`
	Sender ident.PID     `json:"sender,omitempty"`
	SeqLo  ident.Seq     `json:"seq_lo,omitempty"`
	SeqHi  ident.Seq     `json:"seq_hi,omitempty"`
	Start  int64         `json:"start_ns"`
	End    int64         `json:"end_ns"`
}

type wireKey struct {
	g   ident.GroupID
	to  ident.PID
	seq ident.Seq
}

type tracer struct {
	r     *run
	phase atomic.Int32

	mu      sync.Mutex
	spans   []span
	keep    int // spans kept in memory; later ones are counted only
	dropped int
	send    hist // transport.Send duration of data envelopes
	wire    hist // Send return -> delivery, sampled messages
	sentAt  map[wireKey]int64
	sample  ident.Seq

	relCalls, relHits atomic.Uint64
	ctlTraffic        atomic.Uint64 // non-data envelopes sent during traffic
	idleCtl           atomic.Uint64 // envelopes sent in idle groups during traffic
	vcCtlMsgs         atomic.Uint64 // INIT, PRED and consensus envelopes of active groups
	vcCtlBytes        atomic.Uint64

	tcpBefore, tcpAfter transport.TCPStats
	metrics             []obs.Snapshot // per node, at the end of the run
}

func newTracer(r *run) *tracer {
	t := &tracer{r: r, sentAt: make(map[wireKey]int64), sample: 16, keep: maxSpans}
	if r.sp.rate == 0 {
		t.sample = 1024
	}
	return t
}

func (t *tracer) span(name string, node ident.PID, g ident.GroupID, sender ident.PID, lo, hi ident.Seq, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.keep {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Node: node, Group: g, Sender: sender, SeqLo: lo, SeqHi: hi, Start: start, End: end})
}

// delivered closes the wire-to-deliver interval of a sampled message.
func (t *tracer) delivered(g ident.GroupID, at ident.PID, seq ident.Seq, now int64) {
	if seq%t.sample != 0 {
		return
	}
	k := wireKey{g: g, to: at, seq: seq}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sent, ok := t.sentAt[k]; ok {
		t.wire.add(time.Duration(now - sent))
		delete(t.sentAt, k)
	}
}

func (t *tracer) isActive(g ident.GroupID) bool {
	return g >= 1 && int(g) <= len(t.r.sp.producers)
}

func (t *tracer) onSend(from, to ident.PID, g ident.GroupID, ch transport.Channel, m any, start, end int64) {
	var msgs []core.DataMsg
	switch v := m.(type) {
	case core.DataMsg:
		msgs = []core.DataMsg{v}
	case *core.DataBatchMsg:
		msgs = v.Msgs
	}
	if msgs != nil {
		lo, hi := msgs[0].Meta.Seq, msgs[len(msgs)-1].Meta.Seq
		t.mu.Lock()
		t.send.add(time.Duration(end - start))
		for s := (lo + t.sample - 1) / t.sample * t.sample; s <= hi; s += t.sample {
			t.sentAt[wireKey{g: g, to: to, seq: s}] = end
		}
		t.mu.Unlock()
		t.span("transport.Send", from, g, msgs[0].Meta.Sender, lo, hi, start, end)
		return
	}
	traffic := t.phase.Load() == phaseTraffic
	if traffic {
		t.ctlTraffic.Add(1)
		if g != ident.NodeGroup && !t.isActive(g) {
			t.idleCtl.Add(1)
		}
	}
	if !t.isActive(g) {
		return
	}
	switch m.(type) {
	case core.InitMsg, core.PredMsg:
	default:
		if ch != transport.Consensus {
			return
		}
	}
	t.vcCtlMsgs.Add(1)
	if b, err := codec.Marshal(nil, m); err == nil {
		t.vcCtlBytes.Add(uint64(len(b)))
	}
}

// tracedEndpoint times every Send and forwards everything else
// unchanged.
type tracedEndpoint struct {
	transport.Endpoint
	t    *tracer
	self ident.PID
}

// Instrument forwards the node's obs bundle to the wrapped endpoint.
func (e *tracedEndpoint) Instrument(o *obs.Obs) {
	if in, ok := e.Endpoint.(interface{ Instrument(*obs.Obs) }); ok {
		in.Instrument(o)
	}
}

func (e *tracedEndpoint) Send(to ident.PID, g ident.GroupID, ch transport.Channel, m any) error {
	start := e.t.r.now()
	err := e.Endpoint.Send(to, g, ch, m)
	e.t.onSend(e.self, to, g, ch, m, start, e.t.r.now())
	return err
}

// countingRelation counts Obsoletes calls and hits. Its variants below
// implement exactly the capability interfaces of the relation they wrap,
// so the queue keeps whichever indexed path the relation declares.
type countingRelation struct {
	rel         obsolete.Relation
	calls, hits *atomic.Uint64
}

func (c countingRelation) Name() string { return c.rel.Name() }

func (c countingRelation) Obsoletes(old, new obsolete.Msg) bool {
	c.calls.Add(1)
	ok := c.rel.Obsoletes(old, new)
	if ok {
		c.hits.Add(1)
	}
	return ok
}

type countingSenderLocal struct{ countingRelation }

func (c countingSenderLocal) SenderLocal() bool {
	return c.rel.(obsolete.SenderLocal).SenderLocal()
}

type countingWindowed struct{ countingRelation }

func (c countingWindowed) Window() int { return c.rel.(obsolete.Windowed).Window() }

type countingSenderLocalWindowed struct{ countingRelation }

func (c countingSenderLocalWindowed) SenderLocal() bool {
	return c.rel.(obsolete.SenderLocal).SenderLocal()
}

func (c countingSenderLocalWindowed) Window() int { return c.rel.(obsolete.Windowed).Window() }

// The empty relation is returned unwrapped: the queue recognises it by
// type and then never consults it, which a wrapper would change.
func wrapRelation(rel obsolete.Relation, calls, hits *atomic.Uint64) obsolete.Relation {
	if rel == nil {
		return obsolete.Empty{}
	}
	if _, ok := rel.(obsolete.Empty); ok {
		return rel
	}
	base := countingRelation{rel: rel, calls: calls, hits: hits}
	_, sl := rel.(obsolete.SenderLocal)
	_, w := rel.(obsolete.Windowed)
	switch {
	case sl && w:
		return countingSenderLocalWindowed{base}
	case sl:
		return countingSenderLocal{base}
	case w:
		return countingWindowed{base}
	default:
		return base
	}
}

func (t *tracer) wrapRelation(rel obsolete.Relation) obsolete.Relation {
	return wrapRelation(rel, &t.relCalls, &t.relHits)
}

// snapshot reads the transport counters right after the traffic
// quiesced.
func (t *tracer) snapshot(r *run) {
	for _, m := range r.members {
		if m.tcp != nil {
			st := m.tcp.Stats()
			t.tcpAfter.FramesSent += st.FramesSent
			t.tcpAfter.EnvelopesSent += st.EnvelopesSent
			t.tcpAfter.BytesSent += st.BytesSent
		}
	}
}

// markTrafficStart records the transport counters the traffic phase
// is measured against.
func (t *tracer) markTrafficStart(r *run) {
	for _, m := range r.members {
		if m.tcp != nil {
			st := m.tcp.Stats()
			t.tcpBefore.FramesSent += st.FramesSent
			t.tcpBefore.EnvelopesSent += st.EnvelopesSent
			t.tcpBefore.BytesSent += st.BytesSent
		}
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s (%d spans, %d beyond the in-memory cap)", path, len(t.spans), t.dropped), nil
}
