package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/queue"
	"repro/internal/transport"
)

// encodeStream serialises the first n messages of a stream.
func encodeStream(st *stream, n int) []byte {
	var b bytes.Buffer
	for seq := ident.Seq(1); seq <= ident.Seq(n); seq++ {
		if l := st.limit(); l > 0 && int(seq) > l {
			break
		}
		m := st.meta(seq)
		b.WriteString(string(m.Sender))
		binary.Write(&b, binary.LittleEndian, uint64(m.Seq))
		b.Write(m.Annot)
		b.Write(st.payload(seq))
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, sp := range specs() {
		a := makeStreams(sp, 7, 1)
		b := makeStreams(sp, 7, 1)
		c := makeStreams(sp, 8, 1)
		for i := range a {
			ea, eb, ec := encodeStream(a[i], 5000), encodeStream(b[i], 5000), encodeStream(c[i], 5000)
			if len(ea) == 0 || !bytes.Equal(ea, eb) {
				t.Errorf("%s: same seed gave different streams", sp.name)
			}
			if bytes.Equal(ea, ec) {
				t.Errorf("%s: seeds 7 and 8 gave the same stream", sp.name)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 100}, {19, 100}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p < 100 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	if got := percentile(xs, tailPercentile(len(xs))); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30", got)
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	var h hist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v * 1000))
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000 * 1000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("q%v = %v, want %v within 2%%", q, got, want)
		}
	}
}

func TestWrappedRelationKeepsCapabilities(t *testing.T) {
	rels := []obsolete.Relation{
		obsolete.Empty{}, obsolete.Tagging{}, obsolete.Enumeration{},
		obsolete.KEnumeration{K: 8},
		obsolete.Func{Label: "func", F: func(a, b obsolete.Msg) bool { return a.Seq < b.Seq }},
	}
	for _, rel := range rels {
		var calls, hits atomic.Uint64
		w := wrapRelation(rel, &calls, &hits)
		if w.Name() != rel.Name() {
			t.Errorf("%s: wrapped name %q", rel.Name(), w.Name())
		}
		if obsolete.CapsOf(w) != obsolete.CapsOf(rel) {
			t.Errorf("%s: caps %+v, want %+v", rel.Name(), obsolete.CapsOf(w), obsolete.CapsOf(rel))
		}
		_, sl := rel.(obsolete.SenderLocal)
		_, wsl := w.(obsolete.SenderLocal)
		_, win := rel.(obsolete.Windowed)
		_, wwin := w.(obsolete.Windowed)
		if sl != wsl || win != wwin {
			t.Errorf("%s: capability interfaces changed by wrapping", rel.Name())
		}
		if queue.New(w, 0).Indexed() != queue.New(rel, 0).Indexed() {
			t.Errorf("%s: wrapping changed the queue's purge path", rel.Name())
		}
		a := obsolete.Msg{Sender: "p", Seq: 1, Annot: obsolete.TagAnnot(1)}
		b := obsolete.Msg{Sender: "p", Seq: 2, Annot: obsolete.TagAnnot(1)}
		if w.Obsoletes(a, b) != rel.Obsoletes(a, b) {
			t.Errorf("%s: wrapped relation answers differently", rel.Name())
		}
		if _, empty := rel.(obsolete.Empty); !empty && calls.Load() != 1 {
			t.Errorf("%s: %d calls counted, want 1", rel.Name(), calls.Load())
		}
	}
}

// recordingEndpoint notes which calls reach it.
type recordingEndpoint struct {
	transport.Endpoint
	calls []string
}

func (e *recordingEndpoint) Register(ident.GroupID)   { e.calls = append(e.calls, "Register") }
func (e *recordingEndpoint) Deregister(ident.GroupID) { e.calls = append(e.calls, "Deregister") }
func (e *recordingEndpoint) Instrument(*obs.Obs)      { e.calls = append(e.calls, "Instrument") }
func (e *recordingEndpoint) InboxBatch(ident.GroupID, transport.Channel) <-chan []transport.Envelope {
	e.calls = append(e.calls, "InboxBatch")
	return nil
}

func TestTracedEndpointForwards(t *testing.T) {
	inner := &recordingEndpoint{}
	var ep transport.Endpoint = &tracedEndpoint{Endpoint: inner}
	ep.Register(1)
	ep.InboxBatch(1, transport.Data)
	ep.(interface{ Instrument(*obs.Obs) }).Instrument(nil)
	ep.Deregister(1)
	want := []string{"Register", "InboxBatch", "Instrument", "Deregister"}
	if len(inner.calls) != len(want) {
		t.Fatalf("forwarded %v, want %v", inner.calls, want)
	}
	for i := range want {
		if inner.calls[i] != want[i] {
			t.Fatalf("forwarded %v, want %v", inner.calls, want)
		}
	}
}

// declared reads the metric names BENCHMARK.json lists under key.
func declared(t *testing.T, key string) []string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	keys := sortedKeys(got)
	if len(keys) != len(want) {
		t.Fatalf("%s: reported %v, declared %v", what, keys, want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("%s: reported %v, declared %v", what, keys, want)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires the correctness gate to pass and every declared metric to be
// reported. vs-churn needs a membership cycle in each repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, sp := range specs() {
		seconds := 1.0
		if sp.churn > 0 {
			seconds = repeats * sp.churn.Seconds()
		}
		for _, traced := range []bool{false, true} {
			res, report, err := bench(sp, 3, seconds, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s: %v", sp.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d of %d\n%v", sp.name, traced, res.Correct, res.Failed, res.Attempted, report)
			}
			if traced {
				sameNames(t, sp.name+" per-layer", res.Metrics, layers)
			} else {
				sameNames(t, sp.name+" end-to-end", res.Metrics, e2e)
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", sp.name, k, m.Value)
					}
				}
			}
		}
	}
}

// gateRun is a synthetic, torn-down run of one active group whose n
// messages were all multicast in the initial view.
func gateRun(t *testing.T, name string, n ident.Seq) *run {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	st := makeStreams(sp, 5, float64(n)/1000)[0]
	if l := st.limit(); l > 0 && l < int(n) {
		t.Fatalf("%s: stream holds %d messages, want %d", name, l, n)
	}
	r := &run{sp: sp, streams: []*stream{st}, cons: [][]*consumer{make([]*consumer, sp.members)}}
	r.prods = []*producer{{st: st, committed: n, batches: []batchRec{{hi: n, ref: ident.ViewRef{ID: 1}}}}}
	return r
}

// deliverAll adds an incarnation of member idx that delivered, in the
// initial view, every message but those in skip. A founder holds the
// initial view; current makes it the member's live incarnation.
func (r *run) deliverAll(idx int, founder, current bool, skip ...ident.Seq) {
	c := &consumer{r: r, pid: pidOf(idx), idx: idx, founder: founder, self: idx == r.sp.producers[0]}
	left := map[ident.Seq]bool{}
	for _, s := range skip {
		left[s] = true
	}
	for s := ident.Seq(1); s <= r.prods[0].committed; s++ {
		if !left[s] {
			c.got.set(s)
		}
	}
	c.marks = []viewMark{{seq: 1, ref: ident.ViewRef{ID: 1}}}
	r.allCons = append(r.allCons, c)
	if current {
		r.cons[0][idx] = c
	}
}

// TestGateReportsUncoveredMessages shows the correctness gate fails a
// run in which a member bound to the view skipped a message no delivery
// of its covers: a survivor under classic VS, and a slow member that
// delivered the last message and was then expelled, as the membership
// probe does after the traffic.
func TestGateReportsUncoveredMessages(t *testing.T) {
	const n = 600
	t.Run("survivor", func(t *testing.T) {
		for _, gap := range []bool{false, true} {
			r := gateRun(t, "vs-churn", n)
			var skip []ident.Seq
			if gap {
				skip = []ident.Seq{300}
			}
			for idx := 0; idx < r.sp.members; idx++ {
				if idx == 2 {
					r.deliverAll(idx, true, true, skip...)
				} else {
					r.deliverAll(idx, true, true)
				}
			}
			v := r.verify()
			if gap != (v.missing > 0) {
				t.Errorf("gap=%v: missing %d, violations %v", gap, v.missing, v.violations)
			}
		}
	})
	t.Run("expelled slow member", func(t *testing.T) {
		r := gateRun(t, "game-slow", n)
		rel := r.sp.gc().Relation
		window := ident.Seq(obsolete.CapsOf(rel).Window)
		st := r.streams[0]
		// covered is a message a later one of the stream obsoletes within
		// the window; uncovered one that none does.
		var covered, uncovered ident.Seq
		for s := ident.Seq(1); s < n-window; s++ {
			hit := false
			for u := s + 1; u <= s+window; u++ {
				hit = hit || rel.Obsoletes(st.meta(s), st.meta(u))
			}
			if hit && covered == 0 {
				covered = s
			}
			if !hit && uncovered == 0 {
				uncovered = s
			}
		}
		if covered == 0 || uncovered == 0 {
			t.Fatalf("stream has no covered (%d) or no uncovered (%d) message", covered, uncovered)
		}
		last := r.sp.members - 1
		for _, c := range []struct {
			skip      ident.Seq
			delivered bool // the slow member delivered the last message
			want      bool
		}{
			{covered, true, false},
			{uncovered, true, true},
			// Expelled before the end of the view: not bound.
			{uncovered, false, false},
		} {
			r := gateRun(t, "game-slow", n)
			for idx := 0; idx < last; idx++ {
				r.deliverAll(idx, true, true)
			}
			skip := []ident.Seq{c.skip}
			if !c.delivered {
				skip = append(skip, n)
			}
			r.deliverAll(last, true, false, skip...)
			// The probe's later incarnation of the slow member joined
			// after the traffic and delivered nothing of it.
			r.deliverAll(last, false, true, func() []ident.Seq {
				var all []ident.Seq
				for s := ident.Seq(1); s <= n; s++ {
					all = append(all, s)
				}
				return all
			}()...)
			v := r.verify()
			if c.want != (v.missing > 0) {
				t.Errorf("skip %d, last delivered %v: missing %d, violations %v", c.skip, c.delivered, v.missing, v.violations)
			}
		}
	})
}

func TestSampleGroups(t *testing.T) {
	per := func(repeats, each int) [][]float64 {
		out := make([][]float64, repeats)
		for i := range out {
			for j := 0; j < each; j++ {
				out[i] = append(out[i], float64(i*each+j+1))
			}
		}
		return out
	}
	for _, c := range []struct {
		repeats, each int
		sizes         []int
		tail          float64
	}{
		{10, 49, []int{49, 49, 49, 49, 49, 49, 49, 49, 49, 49}, 75},
		{10, 6, []int{60}, 75},
		{3, 5, []int{15}, 100},
		{10, 15, []int{45, 45, 60}, 75},
	} {
		gs := sampleGroups(per(c.repeats, c.each))
		var sizes []int
		for _, g := range gs {
			sizes = append(sizes, len(g))
		}
		if len(sizes) != len(c.sizes) {
			t.Fatalf("%d x %d: groups of %v, want %v", c.repeats, c.each, sizes, c.sizes)
		}
		for i := range sizes {
			if sizes[i] != c.sizes[i] {
				t.Fatalf("%d x %d: groups of %v, want %v", c.repeats, c.each, sizes, c.sizes)
			}
		}
		if _, tail := overGroups(gs, 0); tail != c.tail {
			t.Errorf("%d x %d: tail p%v, want p%v", c.repeats, c.each, tail, c.tail)
		}
	}
	// One group of 1..60: p50 is 30, p75 is 45.
	gs := sampleGroups(per(10, 6))
	if v, _ := overGroups(gs, 50); v != 30 {
		t.Errorf("p50 = %v, want 30", v)
	}
	if v, _ := overGroups(gs, 0); v != 45 {
		t.Errorf("tail = %v, want 45", v)
	}
}
