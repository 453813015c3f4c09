package core

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/obsolete"
	"repro/internal/transport"
)

// lockedBuf is a bytes.Buffer safe to read while a slog handler writes.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeObservability runs a 3-node group with a full obs bundle per
// node and checks the whole surface at once: per-group labelled counters,
// purge activity under an enumeration relation, the view gauge following
// an installed view change, heartbeat instruments, delivery-latency
// samples, and the view_install structured event. Metrics()/Stats() are
// polled concurrently with the protocol loops throughout, so -race covers
// snapshotting against live instruments.
func TestNodeObservability(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	view0 := View{ID: 1, Members: pids}
	const gid = ident.GroupID(7)

	type bundle struct {
		node *Node
		g    *Group
		reg  *obs.Registry
		buf  *lockedBuf
	}
	nodes := make(map[ident.PID]*bundle)
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		buf := &lockedBuf{}
		logger := slog.New(slog.NewJSONHandler(buf, nil))
		node, err := NewNode(NodeConfig{
			Self:      p,
			Endpoint:  ep,
			Heartbeat: fd.HeartbeatOptions{Interval: 10 * time.Millisecond},
			Obs:       obs.New(nil, reg, logger),
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := node.Create(gid, GroupConfig{
			InitialView: view0,
			Relation:    obsolete.KEnumeration{K: 4},
			Window:      8,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[p] = &bundle{node: node, g: g, reg: reg, buf: buf}
	}
	defer func() {
		for _, b := range nodes {
			b.node.Close()
		}
	}()

	// Hammer the read-side facades while the protocol runs.
	stop := make(chan struct{})
	var hammer sync.WaitGroup
	for _, b := range nodes {
		hammer.Add(1)
		go func(b *bundle) {
			defer hammer.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = b.node.Metrics()
				_ = b.g.Stats()
				_ = b.g.View()
			}
		}(b)
	}
	defer func() { close(stop); hammer.Wait() }()

	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	key := func(name string) string { return fmt.Sprintf("%s{group=%d}", name, gid) }

	// Multicast a chain where each message obsoletes its predecessor; no
	// application delivers yet, so arrivals must purge queued entries to
	// keep the sender's window refilling (the SVS core claim).
	tr := obsolete.NewEnumTracker(4)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	const msgs = 12
	for i := 0; i < msgs; i++ {
		var seq ident.Seq
		var annot []byte
		if prev := tr.Seq(); prev > 0 {
			seq, annot = tr.Next(prev)
		} else {
			seq, annot = tr.Next()
		}
		if _, err := nodes["n0"].g.Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: seq, Annot: annot}, []byte("x")); err != nil {
			t.Fatalf("multicast %d: %v", seq, err)
		}
	}

	snap0 := nodes["n0"].reg.Snapshot()
	if got := snap0.Counters[key("engine_multicast_total")]; got != msgs {
		t.Fatalf("engine_multicast_total = %d, want %d (keys %v)", got, msgs, snap0.Counters)
	}
	// The receivers purge obsoleted entries as later messages arrive.
	waitFor("purge activity at n1", func() bool {
		return nodes["n1"].reg.Snapshot().Counters[key("engine_purged_todeliver_total")] > 0
	})

	// A membership-preserving view change: every node's view gauge must
	// follow the install, and the change must be timed.
	if err := nodes["n0"].g.RequestViewChange(); err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		b := nodes[p]
		waitFor(fmt.Sprintf("%s installing view 2", p), func() bool {
			return b.reg.Snapshot().Gauges[key("engine_view")] == 2
		})
	}
	snap0 = nodes["n0"].reg.Snapshot()
	if got := snap0.Counters[key("engine_views_installed_total")]; got != 1 {
		t.Fatalf("engine_views_installed_total = %d, want 1", got)
	}
	if h := snap0.Histograms[key("engine_view_change_seconds")]; h.Count != 1 {
		t.Fatalf("engine_view_change_seconds count = %d, want 1", h.Count)
	}

	// Drain deliveries: the survivors of the purge chain plus the view
	// marker. Latency samples must appear once data is handed over.
	for _, p := range pids {
		b := nodes[p]
		go func() {
			for {
				if _, err := b.g.Deliver(ctx); err != nil {
					return
				}
			}
		}()
		waitFor(fmt.Sprintf("%s delivering data", p), func() bool {
			return b.reg.Snapshot().Counters[key("engine_delivered_total")] >= 1
		})
	}
	snap1 := nodes["n1"].reg.Snapshot()
	if h := snap1.Histograms[key("engine_deliver_latency_seconds")]; h.Count == 0 {
		t.Fatal("no delivery-latency samples at n1")
	}
	// The heartbeat records under the same registry, unlabelled by group.
	if snap1.Counters["fd_beats_sent_total"] == 0 {
		t.Fatal("heartbeat sent no beats")
	}
	if _, ok := snap1.Gauges["fd_suspected{peer=n0}"]; !ok {
		t.Fatalf("no per-peer heartbeat gauge: %v", snap1.Gauges)
	}

	// Structured events: the install must have been logged with the group
	// label attached by the derived bundle.
	waitFor("view_install event at n2", func() bool {
		s := nodes["n2"].buf.String()
		return strings.Contains(s, `"msg":"view_install"`) && strings.Contains(s, `"group":"7"`)
	})
}

// TestStatsAgreeWithMetrics: Stats is a typed read of the engine's
// instruments, per incarnation. A 3-node group runs multicasts (purged at
// the receivers), a stale-view drop, a view change removing n2, and n2's
// leave and rejoin of the same id. Every counter field of Stats must equal
// the group's counter delta in Metrics since the incarnation was built;
// the rejoined incarnation starts from zero, the departed one's Stats stay
// frozen, and the node's counters stay cumulative across both.
func TestStatsAgreeWithMetrics(t *testing.T) {
	net := transport.NewMemNetwork()
	pids := ident.NewPIDs("n0", "n1", "n2")
	const gid = ident.GroupID(7)
	gc := GroupConfig{
		InitialView: View{ID: 1, Members: pids},
		Relation:    obsolete.KEnumeration{K: 4},
		Window:      8,
	}
	nodes := make(map[ident.PID]*Node)
	groups := make(map[ident.PID]*Group)
	for _, p := range pids {
		ep, err := net.Endpoint(p)
		if err != nil {
			t.Fatal(err)
		}
		det := fd.NewManual()
		defer det.Stop()
		node, err := NewNode(NodeConfig{Self: p, Endpoint: ep, Detector: det, Obs: obs.New(nil, obs.NewRegistry(), nil)})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		g, err := node.Create(gid, gc)
		if err != nil {
			t.Fatal(err)
		}
		nodes[p], groups[p] = node, g
	}

	// The metric behind each counter field of Stats; a key ending in ","
	// is a prefix summed over the remaining labels.
	lg := fmt.Sprintf("group=%d", gid)
	metric := map[string]string{
		"Multicast":          "engine_multicast_total{" + lg + "}",
		"Delivered":          "engine_delivered_total{" + lg + "}",
		"ViewsInstalled":     "engine_views_installed_total{" + lg + "}",
		"PurgedToDeliver":    "engine_purged_todeliver_total{" + lg + "}",
		"PurgedOutgoing":     "engine_purged_outgoing_total{" + lg + "}",
		"DroppedStale":       "engine_dropped_total{" + lg + ",reason=stale_view}",
		"DroppedCovered":     "engine_dropped_total{" + lg + ",reason=covered}",
		"CreditsStaleView":   "engine_dropped_total{" + lg + ",reason=stale_credit}",
		"CtlDeferredDropped": "engine_dropped_total{" + lg + ",reason=defer_overflow}",
		"JoinStatesSent":     "engine_join_states_sent_total{" + lg + "}",
		"JoinBacklogSent":    "engine_join_backlog_sent_total{" + lg + "}",
		"JoinBytesSent":      "engine_join_bytes_sent_total{" + lg + "}",
		"JoinBacklogRecv":    "engine_join_backlog_recv_total{" + lg + "}",
		"JoinBytesRecv":      "engine_join_bytes_recv_total{" + lg + "}",
		"FlushAdded":         "engine_flush_added_total{" + lg + "}",
		"MulticastParks":     "engine_multicast_parks_total{" + lg + "}",
		"StablePruned":       "engine_stable_pruned_total{" + lg + "}",
		"DecisionsIgnored":   "engine_decisions_ignored_total{" + lg + ",",
		"Merges":             "view_merge_total{" + lg + "}",
		"MergeAborts":        "view_merge_aborts_total{" + lg + "}",
		"MergeBytesRecv":     "view_merge_bytes_recv_total{" + lg + "}",
	}
	counterOf := func(s obs.Snapshot, key string) uint64 {
		if !strings.HasSuffix(key, ",") {
			return s.Counters[key]
		}
		var sum uint64
		for k, v := range s.Counters {
			if strings.HasPrefix(k, key) {
				sum += v
			}
		}
		return sum
	}
	u64 := reflect.TypeOf(uint64(0))
	// diff lists the counter fields of st that differ from now - base.
	diff := func(st Stats, now, base obs.Snapshot) []string {
		t.Helper()
		var bad []string
		v := reflect.ValueOf(st)
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.Type != u64 {
				continue
			}
			key, ok := metric[f.Name]
			if !ok {
				t.Fatalf("Stats.%s has no metric in this test's table", f.Name)
			}
			if got, want := v.Field(i).Uint(), counterOf(now, key)-counterOf(base, key); got != want {
				bad = append(bad, fmt.Sprintf("%s=%d, metric delta %d", f.Name, got, want))
			}
		}
		return bad
	}
	// agree polls until g's Stats match its node's Metrics relative to
	// base: the two reads are not one atomic step, so a loop still
	// settling may differ between them for a moment.
	agree := func(p ident.PID, g *Group, base obs.Snapshot) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			bad := diff(g.Stats(), nodes[p].Metrics(), base)
			if len(bad) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: Stats disagree with Metrics: %v", p, bad)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor := func(desc string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s", desc)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	tr := obsolete.NewEnumTracker(4)
	chain := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			var seq ident.Seq
			var annot []byte
			if prev := tr.Seq(); prev > 0 {
				seq, annot = tr.Next(prev)
			} else {
				seq, annot = tr.Next()
			}
			if _, err := groups["n0"].Multicast(ctx, obsolete.Msg{Sender: "n0", Seq: seq, Annot: annot}, []byte("x")); err != nil {
				t.Fatalf("multicast %d: %v", seq, err)
			}
		}
	}
	purged := func() uint64 { return counterOf(nodes["n2"].Metrics(), metric["PurgedToDeliver"]) }

	chain(12)
	waitFor("purges at n1 and n2", func() bool {
		return groups["n1"].Stats().PurgedToDeliver > 0 && groups["n2"].Stats().PurgedToDeliver > 0
	})
	if _, err := groups["n1"].DeliverBatch(ctx, make([]Delivery, 4)); err != nil {
		t.Fatal(err)
	}
	// A data envelope for a view nobody is in is dropped as stale.
	stray, err := net.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if err := stray.Send("n1", gid, transport.Data, DataMsg{View: 99, Meta: obsolete.Msg{Sender: "x", Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor("stale drop at n1", func() bool { return groups["n1"].Stats().DroppedStale == 1 })

	if err := groups["n0"].RequestViewChange("n2"); err != nil {
		t.Fatal(err)
	}
	for _, p := range pids {
		waitFor(string(p)+" installing view 2", func() bool { return groups[p].View().ID == 2 })
	}
	for _, p := range pids {
		agree(p, groups[p], obs.Snapshot{})
	}

	// Leave: the departed incarnation's Stats freeze at its final counts.
	old := groups["n2"]
	beforeLeave := purged()
	old.Leave()
	frozen := old.Stats()
	afterLeave := nodes["n2"].Metrics()
	if bad := diff(frozen, afterLeave, obs.Snapshot{}); len(bad) > 0 {
		t.Fatalf("departed Stats disagree with Metrics: %v", bad)
	}

	// Rejoin the same id. With n2's requests cut off, nothing can happen
	// to the new incarnation yet: its counters must all read zero.
	net.Cut("n2", "n0")
	g2, err := nodes["n2"].JoinWith(gid, gc, JoinSpec{Contacts: ident.NewPIDs("n0"), Retry: 10 * time.Millisecond, RetryJitter: -1})
	if err != nil {
		t.Fatal(err)
	}
	if bad := diff(g2.Stats(), afterLeave, afterLeave); len(bad) > 0 {
		t.Fatalf("rejoined incarnation does not start at zero: %v", bad)
	}
	net.Heal("n2", "n0")
	waitFor("n2 rejoining at view 3", func() bool { return g2.View().ID == 3 })
	chain(12)
	waitFor("purges at the rejoined n2", func() bool { return g2.Stats().PurgedToDeliver > 0 })

	agree("n2", g2, afterLeave)
	agree("n0", groups["n0"], obs.Snapshot{})
	agree("n1", groups["n1"], obs.Snapshot{})
	if got := old.Stats(); !reflect.DeepEqual(got, frozen) {
		t.Fatalf("departed Stats moved after the rejoin:\n got %+v\nwant %+v", got, frozen)
	}
	// The node's counters sum both incarnations.
	live, now := g2.Stats(), nodes["n2"].Metrics()
	fv, lv := reflect.ValueOf(frozen), reflect.ValueOf(live)
	for i := 0; i < fv.NumField(); i++ {
		f := fv.Type().Field(i)
		if f.Type != u64 {
			continue
		}
		if sum, node := fv.Field(i).Uint()+lv.Field(i).Uint(), counterOf(now, metric[f.Name]); sum != node {
			t.Fatalf("%s: incarnations sum to %d, node counter %d", f.Name, sum, node)
		}
	}
	if afterLeave, rejoined := counterOf(afterLeave, metric["PurgedToDeliver"]), purged(); afterLeave < beforeLeave || rejoined <= afterLeave {
		t.Fatalf("engine_purged_todeliver_total went %d -> %d -> %d across leave and rejoin", beforeLeave, afterLeave, rejoined)
	}
}
