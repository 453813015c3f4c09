package main

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// layerMetrics is the per-layer breakdown of a traced run: the median
// over repeats of each metric.
func (ps passes) layerMetrics() map[string]metric {
	per := map[string][]float64{}
	out := map[string]metric{}
	for _, p := range ps {
		for k, m := range layerMetrics(p.r) {
			per[k] = append(per[k], m.Value)
			out[k] = m
		}
	}
	for k, xs := range per {
		out[k] = metric{median(xs), out[k].Unit}
	}
	return out
}

// layerMetrics computes the per-layer breakdown of one traced repeat. A
// metric whose layer the workload does not exercise (codec and frames on
// memnet, idle-group chatter without idle groups) reads 0.
func layerMetrics(r *run) map[string]metric {
	t := r.tr
	var committed float64
	var call hist
	for _, p := range r.prods {
		committed += float64(p.committed)
		call.merge(&p.call)
	}
	arrivals := committed * float64(r.sp.members-1)
	trafficS := float64(r.trafficEnd-r.trafficStart) / 1e9

	var calls, items float64
	var waiting, life time.Duration
	var parks, purgedOut, purgedTD float64
	var tdMax int
	for _, c := range r.allCons {
		if c.self && c.founder {
			parks += float64(c.final.MulticastParks)
			purgedOut += float64(c.final.PurgedOutgoing)
		}
		if c.last {
			purgedTD += float64(c.final.PurgedToDeliver)
			tdMax = max(tdMax, c.final.ToDeliverMax)
			if r.sp.slowRate > 0 {
				continue
			}
		}
		calls += float64(c.calls)
		items += float64(c.items)
		waiting += c.waiting
		life += c.lifetime
	}
	active := func(labels string) bool {
		g, ok := label(labels, "group")
		if !ok {
			return false
		}
		n, err := strconv.Atoi(g)
		return err == nil && n >= 1 && n <= len(r.sp.producers)
	}
	decide := mergeHist(t.metrics, "consensus_decide_seconds", active)
	rounds := mergeHist(t.metrics, "consensus_rounds", active)
	var credits, suspicions float64
	for _, s := range t.metrics {
		credits += float64(sumCounter(s, "engine_credit_flushes_total", active))
		suspicions += float64(s.Sum("fd_suspicions_total"))
	}
	frames := float64(t.tcpAfter.FramesSent - t.tcpBefore.FramesSent)
	envs := float64(t.tcpAfter.EnvelopesSent - t.tcpBefore.EnvelopesSent)
	bytes := float64(t.tcpAfter.BytesSent - t.tcpBefore.BytesSent)
	vcs := float64(len(r.vcLat) + len(r.joinLat)) // every leave and every admission

	return map[string]metric{
		"core.mcast_call_p50_us":           {us(call.quantile(0.50)), "us"},
		"core.mcast_call_p99_us":           {us(call.quantile(0.99)), "us"},
		"core.deliver_batch_mean":          {ratio(items, calls), "msgs"},
		"core.deliver_idle_frac":           {ratio(float64(waiting), float64(life)), "frac"},
		"core.parks_per_kmsg":              {1000 * ratio(parks, committed), "count"},
		"flow.credit_msgs_per_kmsg":        {1000 * ratio(credits, committed), "count"},
		"queue.purged_todeliver_frac":      {ratio(purgedTD, committed), "frac"},
		"queue.purged_outgoing_frac":       {ratio(purgedOut, arrivals), "frac"},
		"queue.todeliver_max":              {float64(tdMax), "msgs"},
		"obsolete.calls_per_msg":           {ratio(float64(t.relCalls.Load()), arrivals), "count"},
		"obsolete.hit_ratio":               {ratio(float64(t.relHits.Load()), float64(t.relCalls.Load())), "frac"},
		"core.history_len_max":             {float64(r.histMax.Load()), "msgs"},
		"core.flush_msgs_mean":             {mean(r.flushLens), "msgs"},
		"core.viewchange_ctl_msgs":         {ratio(float64(t.vcCtlMsgs.Load()), vcs), "count"},
		"core.viewchange_ctl_bytes":        {ratio(float64(t.vcCtlBytes.Load()), vcs), "bytes"},
		"core.join_xfer_msgs":              {mean(r.xferMsgs), "msgs"},
		"core.join_xfer_bytes":             {mean(r.xferBytes), "bytes"},
		"consensus.decide_p50_ms":          {1000 * histQuantile(decide, 0.5), "ms"},
		"consensus.rounds_mean":            {rounds.Mean(), "count"},
		"transport.send_p50_us":            {us(t.send.quantile(0.50)), "us"},
		"transport.envs_per_frame":         {ratio(envs, frames), "count"},
		"transport.ctl_envs_per_kmsg":      {1000 * ratio(float64(t.ctlTraffic.Load()), committed), "count"},
		"transport.wire_to_deliver_p50_us": {us(t.wire.quantile(0.50)), "us"},
		"codec.bytes_per_msg":              {ratio(bytes, arrivals), "bytes"},
		"stability.idle_ctl_msgs_s":        {ratio(float64(t.idleCtl.Load()), trafficS), "1/s"},
		"fd.suspicions":                    {suspicions, "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// label extracts a label value from a registry key "name{k=v,...}".
func label(key, name string) (string, bool) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return "", false
	}
	for _, kv := range strings.Split(strings.TrimSuffix(key[i+1:], "}"), ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == name {
			return v, true
		}
	}
	return "", false
}

func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

func sumCounter(s obs.Snapshot, name string, keep func(string) bool) uint64 {
	var n uint64
	for k, v := range s.Counters {
		if baseName(k) == name && keep(k) {
			n += v
		}
	}
	return n
}

// mergeHist adds up the histograms called name across node snapshots.
func mergeHist(snaps []obs.Snapshot, name string, keep func(string) bool) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, s := range snaps {
		for k, h := range s.Histograms {
			if baseName(k) != name || !keep(k) {
				continue
			}
			if out.Counts == nil {
				out.Bounds = h.Bounds
				out.Counts = make([]uint64, len(h.Counts))
			}
			for i, c := range h.Counts {
				out.Counts[i] += c
			}
			out.Count += h.Count
			out.Sum += h.Sum
		}
	}
	return out
}

// histQuantile interpolates the q-quantile of a bucketed histogram
// linearly within the bucket that holds it.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i >= len(h.Bounds) {
				return lo
			}
			return lo + (h.Bounds[i]-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
