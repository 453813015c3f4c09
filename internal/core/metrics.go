package core

import (
	"repro/internal/ident"
	"repro/internal/obs"
)

// Reasons a consensus decision is accounted as ignored (ignoreDecision).
const (
	ignoreDuplicate  = "duplicate"   // the decision for the view just installed, reported twice
	ignoreNotBlocked = "not_blocked" // a decide flood landing while unblocked
	ignoreWrongView  = "wrong_view"  // the losing branch of concurrent proposals
)

// engMetrics are the engine's instruments, resolved once at construction.
// They are the only store of the engine's counts: Stats is a typed read
// of them (stats). Counters and gauges always record — an engine built
// without a registry counts into a private one — while the timing
// histograms stay nil (no-op) without a registry, since nothing could
// read them.
type engMetrics struct {
	// Protocol counters (Stats fields).
	multicast       counter
	delivered       counter
	viewsInstalled  counter
	purgedToDeliver counter
	purgedOutgoing  counter
	flushAdded      counter
	parks           counter
	stablePruned    counter
	joinStatesSent  counter
	joinBacklogSent counter
	joinBytesSent   counter
	joinBacklogRecv counter
	joinBytesRecv   counter

	// Previously silent (or silently-swallowed) paths, now typed.
	dropStale       counter // engine_dropped_total{reason=stale_view}
	dropCovered     counter // {reason=covered}
	dropStaleCredit counter // {reason=stale_credit}
	dropDefer       counter // {reason=defer_overflow}
	dropBadType     counter // {reason=bad_type}
	dropUnknownCtl  counter // {reason=unknown_ctl}
	dropExpelled    counter // {reason=expelled}
	sendErrors      counter
	decisionFails   counter
	creditFlushes   counter // owed-credit batches flushed to senders

	// decisionsIgnored counts consensus decisions the engine received but
	// could not install, by reason — engine_decisions_ignored_total{reason=}.
	// With concurrent proposals (splits, merges) some losers are expected;
	// the label tells an operator whether the losses are the benign kind.
	decisionsIgnored map[string]counter

	// Partition healing (merge.go).
	mergesTotal    counter // view_merge_total: union views installed
	mergeAborts    counter // view_merge_aborts_total: merges timed out
	mergeBytesRecv counter // view_merge_bytes_recv_total: contribution bytes received

	// Gauges describe this incarnation: construction resets them.
	view      *obs.Gauge
	epoch     *obs.Gauge
	members   *obs.Gauge
	qLen      *obs.Gauge
	qMax      *obs.Gauge // delivery-queue high-water mark
	histLen   *obs.Gauge
	blockedG  *obs.Gauge // 1 while the group is blocked for a view change
	flushLast *obs.Gauge // size of the last decided flush set
	parkedG   *obs.Gauge // multicasts currently parked on flow control
	lastSent  *obs.Gauge // highest sequence number committed for our stream

	// Timings.
	deliverLatency *obs.Histogram // enqueue -> application deliver
	viewChange     *obs.Histogram // block (t5) -> install (t7)
	joinDur        *obs.Histogram // Start -> first installed view (joiner)
	parkDur        *obs.Histogram // multicast park -> commit (flow control)

	// Data-plane batching.
	batchSize *obs.Histogram // messages committed per multicast transaction

	// Partition-healing timings and sizes.
	mergeDur   *obs.Histogram // view_merge_seconds: merge start -> union install
	mergeBytes *obs.Histogram // view_merge_delta_bytes: contribution bytes per merge
}

// counter is a registry counter plus its value when the engine was built.
// A group left and re-hosted on one node resolves to the same registry
// counter, which stays cumulative; n reports the count of this
// incarnation only.
type counter struct {
	*obs.Counter
	base uint64
}

func (c counter) n() uint64 { return c.Value() - c.base }

func newEngMetrics(ob *obs.Obs) engMetrics {
	cob := ob // counters and gauges back Stats, so they always record
	if ob.Registry() == nil {
		cob = obs.Default()
	}
	ctr := func(name string, labels ...obs.Label) counter {
		c := cob.CounterL(name, labels...)
		return counter{c, c.Value()}
	}
	gauge := func(name string) *obs.Gauge {
		g := cob.Gauge(name)
		g.Set(0)
		return g
	}
	drop := func(reason obs.DropReason) counter {
		return ctr("engine_dropped_total", obs.L("reason", string(reason)))
	}
	ignored := func(reason string) counter {
		return ctr("engine_decisions_ignored_total", obs.L("reason", reason))
	}
	return engMetrics{
		multicast:       ctr("engine_multicast_total"),
		delivered:       ctr("engine_delivered_total"),
		viewsInstalled:  ctr("engine_views_installed_total"),
		purgedToDeliver: ctr("engine_purged_todeliver_total"),
		purgedOutgoing:  ctr("engine_purged_outgoing_total"),
		flushAdded:      ctr("engine_flush_added_total"),
		parks:           ctr("engine_multicast_parks_total"),
		stablePruned:    ctr("engine_stable_pruned_total"),
		joinStatesSent:  ctr("engine_join_states_sent_total"),
		joinBacklogSent: ctr("engine_join_backlog_sent_total"),
		joinBytesSent:   ctr("engine_join_bytes_sent_total"),
		joinBacklogRecv: ctr("engine_join_backlog_recv_total"),
		joinBytesRecv:   ctr("engine_join_bytes_recv_total"),

		dropStale:       drop(obs.DropStaleView),
		dropCovered:     drop(obs.DropCovered),
		dropStaleCredit: drop(obs.DropStaleCredit),
		dropDefer:       drop(obs.DropDeferOverflow),
		dropBadType:     drop(obs.DropBadType),
		dropUnknownCtl:  drop(obs.DropUnknownCtl),
		dropExpelled:    drop(obs.DropExpelled),
		sendErrors:      ctr("engine_send_errors_total"),
		decisionFails:   ctr("engine_decision_failures_total"),
		creditFlushes:   ctr("engine_credit_flushes_total"),

		decisionsIgnored: map[string]counter{
			ignoreDuplicate:  ignored(ignoreDuplicate),
			ignoreNotBlocked: ignored(ignoreNotBlocked),
			ignoreWrongView:  ignored(ignoreWrongView),
		},

		mergesTotal:    ctr("view_merge_total"),
		mergeAborts:    ctr("view_merge_aborts_total"),
		mergeBytesRecv: ctr("view_merge_bytes_recv_total"),

		view:      gauge("engine_view"),
		epoch:     gauge("engine_epoch"),
		members:   gauge("engine_members"),
		qLen:      gauge("engine_todeliver_len"),
		qMax:      gauge("engine_todeliver_max"),
		histLen:   gauge("engine_history_len"),
		blockedG:  gauge("engine_blocked"),
		flushLast: gauge("engine_last_flush_len"),
		parkedG:   gauge("engine_parked_current"),
		lastSent:  gauge("engine_last_sent"),

		deliverLatency: ob.Histogram("engine_deliver_latency_seconds", obs.DurationBuckets),
		viewChange:     ob.Histogram("engine_view_change_seconds", obs.DurationBuckets),
		joinDur:        ob.Histogram("engine_join_seconds", obs.DurationBuckets),
		parkDur:        ob.Histogram("engine_multicast_park_seconds", obs.DurationBuckets),

		batchSize: ob.Histogram("engine_batch_size", obs.CountBuckets),

		mergeDur:   ob.Histogram("view_merge_seconds", obs.DurationBuckets),
		mergeBytes: ob.Histogram("view_merge_delta_bytes", obs.CountBuckets),
	}
}

// stats reads the instruments into the Stats facade.
func (m *engMetrics) stats() Stats {
	s := Stats{
		View:    ident.ViewID(m.view.Value()),
		Epoch:   ident.Epoch(m.epoch.Value()),
		Members: int(m.members.Value()),

		Multicast:      m.multicast.n(),
		Delivered:      m.delivered.n(),
		ViewsInstalled: m.viewsInstalled.n(),

		PurgedToDeliver: m.purgedToDeliver.n(),
		PurgedOutgoing:  m.purgedOutgoing.n(),
		DroppedStale:    m.dropStale.n(),
		DroppedCovered:  m.dropCovered.n(),

		CreditsStaleView:   m.dropStaleCredit.n(),
		CtlDeferredDropped: m.dropDefer.n(),

		JoinStatesSent:  m.joinStatesSent.n(),
		JoinBacklogSent: m.joinBacklogSent.n(),
		JoinBytesSent:   m.joinBytesSent.n(),
		JoinBacklogRecv: m.joinBacklogRecv.n(),
		JoinBytesRecv:   m.joinBytesRecv.n(),

		FlushAdded:   m.flushAdded.n(),
		LastFlushLen: int(m.flushLast.Value()),

		MulticastParks: m.parks.n(),
		Parked:         int(m.parkedG.Value()),
		ToDeliverLen:   int(m.qLen.Value()),
		ToDeliverMax:   int(m.qMax.Value()),

		LastSent: ident.Seq(m.lastSent.Value()),

		StablePruned: m.stablePruned.n(),
		HistoryLen:   int(m.histLen.Value()),

		Merges:         m.mergesTotal.n(),
		MergeAborts:    m.mergeAborts.n(),
		MergeBytesRecv: m.mergeBytesRecv.n(),
	}
	for _, c := range m.decisionsIgnored {
		s.DecisionsIgnored += c.n()
	}
	return s
}
