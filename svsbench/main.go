// Command svsbench is the SVS runtime benchmark. It builds real
// core.Node clusters in one process, drives them through the public API
// on one of three workloads, checks every run for correctness, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// breakdown) as the last line of its output:
//
//	svsbench --workload game-slow --seed 1 --seconds 15 --trace 0
//
// See NOTES.md for the workloads, the calibration and the known defects
// the baseline exposes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A run measures repeats fresh clusters in turn, each for an equal share
// of --seconds, and builds (and times) setupBuilds clusters per repeat,
// the last of which is measured. Throughput and the heap are the median
// over repeats; the per-message timings are taken over the quarter-second
// windows of every repeat (overWindows); view-change and join latencies
// are the median over groups of repeats (sampleGroups); setup_s is the
// median build.
const (
	repeats     = 10
	setupBuilds = 3
)

func main() {
	workload := flag.String("workload", "", "chain-sat, game-slow or vs-churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 30, "length of the measured traffic, split over the repeats")
	traced := flag.Int("trace", 0, "1 reports the per-layer breakdown from a traced pass")
	flag.Parse()
	sp, err := specByName(*workload)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: svsbench --workload chain-sat|game-slow|vs-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, report, err := bench(sp, *seed, *seconds, *traced == 1, filepath.Join(".bench_build", "spans"))
	out := bufio.NewWriter(os.Stdout)
	for _, l := range report {
		fmt.Fprintln(out, l)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "svsbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
	out.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

// pass is one measured repeat: a cluster, its traffic and its checks.
type pass struct {
	r       *run
	setup   []float64
	verdict verdict
	host    hostUsage
}

// passes are the repeats of one run, traced or not.
type passes []pass

// unbounded are the tail timings every run reports but the benchmark does
// not bound: on the reference host their run-to-run spread exceeded the
// largest bound a metric may have (NOTES.md). They are printed with every
// run and listed with the per-layer metrics of a traced run.
var unbounded = []string{"deliver_p99_ms", "send_late_p99_ms"}

// bench runs the workload untraced and, when traced, a second time with
// tracing on, reporting the per-layer metrics and the tracing overhead.
func bench(sp *spec, seed int64, seconds float64, traced bool, spansDir string) (result, []string, error) {
	streams := makeStreams(sp, seed, seconds/repeats)
	base, err := measureAll(sp, seconds, streams, false)
	if err != nil {
		return result{}, nil, err
	}
	e2e := base.endToEnd()
	report := []string{"# record " + record(sp, seed, seconds, traced)}
	report = append(report, base.describe(e2e)...)
	res := result{Metrics: map[string]metric{}}
	for k, m := range e2e.m {
		res.Metrics[k] = m
	}
	for _, k := range unbounded {
		delete(res.Metrics, k)
	}
	res.Attempted, res.Failed = base.outcome()
	if !traced {
		res.Correct = res.Failed == 0
		return res, report, nil
	}
	tp, err := measureAll(sp, seconds, streams, true)
	if err != nil {
		return result{}, report, err
	}
	te2e := tp.endToEnd()
	report = append(report, "# traced pass:")
	report = append(report, tp.describe(te2e)...)
	if path, err := tp[0].r.tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", sp.name, seed)); err == nil {
		report = append(report, "# spans of the first traced repeat: "+path)
	} else {
		report = append(report, "# spans not written: "+err.Error())
	}
	layers := tp.layerMetrics()
	for _, k := range unbounded {
		layers[k] = e2e.m[k]
	}
	layers["trace.overhead_throughput_frac"] = metric{relChange(e2e.m, te2e.m, "throughput_msgs_s"), "frac"}
	layers["trace.overhead_deliver_p50_frac"] = metric{relChange(e2e.m, te2e.m, "deliver_p50_ms"), "frac"}
	for _, k := range sortedKeys(layers) {
		report = append(report, fmt.Sprintf("# %-36s %14.4f %s", k, layers[k].Value, layers[k].Unit))
	}
	a, f := tp.outcome()
	res.Attempted += a
	res.Failed += f
	res.Correct = res.Failed == 0
	res.Metrics = layers
	return res, report, nil
}

// outcome counts the operations attempted (multicasts and joins) and
// failed (failed multicasts and joins, missing deliveries, violations).
func (ps passes) outcome() (attempted, failed int) {
	for _, p := range ps {
		for _, pr := range p.r.prods {
			attempted += int(pr.committed)
		}
		attempted += p.r.failed + p.r.joins
		failed += p.r.failed + p.verdict.missing + len(p.r.errs)
	}
	return attempted, failed
}

// relChange is the relative change of an end-to-end metric from a to b.
func relChange(a, b map[string]metric, name string) float64 {
	return ratio(b[name].Value-a[name].Value, a[name].Value)
}

func measureAll(sp *spec, seconds float64, streams []*stream, traced bool) (passes, error) {
	var ps passes
	for i := 0; i < repeats; i++ {
		p, err := measure(sp, seconds/repeats, streams, traced, i == 0)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// measure builds the cluster setupBuilds times (timing each build), runs
// the workload on the last one, tears it down and checks the run. A
// traced repeat keeps its spans only when keepSpans is set.
func measure(sp *spec, seconds float64, streams []*stream, traced, keepSpans bool) (pass, error) {
	var p pass
	for i := 0; i < setupBuilds; i++ {
		runtime.GC()
		r := newRun(sp, seconds, streams, traced)
		t0 := time.Now()
		err := r.build()
		p.setup = append(p.setup, time.Since(t0).Seconds())
		if err != nil {
			r.teardown()
			return p, fmt.Errorf("set-up: %w", err)
		}
		if i < setupBuilds-1 {
			r.teardown()
			continue
		}
		p.r = r
	}
	r := p.r
	if r.tr != nil && !keepSpans {
		r.tr.keep = 0
	}
	before := readHost()
	r.traffic()
	if sp.probeCycles > 0 && len(r.errs) == 0 {
		r.probe()
	}
	p.host = readHost().since(before)
	if r.tr != nil {
		for _, m := range r.members {
			r.tr.metrics = append(r.tr.metrics, m.node.Metrics())
		}
	}
	r.teardown()
	p.verdict = r.verify()
	return p, nil
}

// timings are one repeat's per-message timings.
func (p pass) timings() (fast, slow, late windowed) {
	for _, c := range p.r.allCons {
		if c.self {
			continue
		}
		if c.last {
			slow.merge(&c.lat)
		} else {
			fast.merge(&c.lat)
		}
	}
	for _, pr := range p.r.prods {
		late.merge(&pr.late)
	}
	return fast, slow, late
}

// e2eResult is a run's user-visible metrics (m), their sample counts (n),
// for the metrics taken as the median over repeats each repeat's value
// (per), and for the others how they were aggregated (how).
type e2eResult struct {
	m   map[string]metric
	n   map[string]int
	per map[string][]float64
	how map[string]string
}

// Per-message timings are percentiles over the quarter-second windows of
// every repeat. Host noise (the hypervisor stealing CPU time) only ever
// adds time, and comes in bursts, so a median is taken at the lower
// quartile of the windows, which the bursts touch least; a p99 is there
// to show stalls and is taken at the median window.
const (
	p50OverWindows = 25
	p99OverWindows = 50
)

func (ps passes) endToEnd() e2eResult {
	per := map[string][]float64{}
	n := map[string]int{}
	how := map[string]string{}
	var fast, slow, late []*windowed
	var vc, join [][]float64
	var setup []float64
	for _, p := range ps {
		r := p.r
		f, s, l := p.timings()
		fast, slow, late = append(fast, &f), append(slow, &s), append(late, &l)
		var committed float64
		for _, pr := range r.prods {
			committed += float64(pr.committed)
		}
		per["throughput_msgs_s"] = append(per["throughput_msgs_s"], committed/(float64(r.quiesced-r.trafficStart)/1e9))
		per["heap_peak_mb"] = append(per["heap_peak_mb"], float64(r.heapPeak.Load()-min(r.heapBase, r.heapPeak.Load()))/(1<<20))
		n["throughput_msgs_s"] += int(committed)
		n["heap_peak_mb"]++
		n["deliver_p50_ms"] += int(f.total().n)
		n["deliver_p99_ms"] += int(f.total().n)
		n["slow_deliver_p50_ms"] += int(s.total().n)
		n["send_late_p99_ms"] += int(l.total().n)
		vc = append(vc, r.vcLat)
		join = append(join, r.joinLat)
		setup = append(setup, p.setup...)
	}
	m := map[string]metric{
		"setup_s":           {median(setup), "s"},
		"throughput_msgs_s": {median(per["throughput_msgs_s"]), "msgs/s"},
		"heap_peak_mb":      {median(per["heap_peak_mb"]), "MB"},
	}
	for _, t := range []struct {
		name     string
		ws       []*windowed
		q, over  float64
		overName string
	}{
		{"deliver_p50_ms", fast, 0.50, p50OverWindows, "lower quartile"},
		{"slow_deliver_p50_ms", slow, 0.50, p50OverWindows, "lower quartile"},
		{"deliver_p99_ms", fast, 0.99, p99OverWindows, "median"},
		{"send_late_p99_ms", late, 0.99, p99OverWindows, "median"},
	} {
		v, wins := overWindows(t.ws, t.q, t.over)
		m[t.name] = metric{ms(v), "ms"}
		how[t.name] = fmt.Sprintf("%s of %d windows", t.overName, wins)
		if wins < 3 {
			how[t.name] = "all samples (fewer than 3 windows)"
		}
	}
	vcGroups, joinGroups := sampleGroups(vc), sampleGroups(join)
	vc50, _ := overGroups(vcGroups, 50)
	vcTail, tailP := overGroups(vcGroups, 0)
	join50, _ := overGroups(joinGroups, 50)
	m["viewchange_p50_ms"] = metric{ms(vc50), "ms"}
	m["viewchange_tail_ms"] = metric{ms(vcTail), "ms"}
	m["join_p50_ms"] = metric{ms(join50), "ms"}
	how["viewchange_p50_ms"] = fmt.Sprintf("median of %d groups", len(vcGroups))
	how["viewchange_tail_ms"] = fmt.Sprintf("p%g, median of %d groups", tailP, len(vcGroups))
	how["join_p50_ms"] = fmt.Sprintf("median of %d groups", len(joinGroups))
	n["setup_s"] = len(setup)
	for _, g := range vcGroups {
		n["viewchange_p50_ms"] += len(g)
		n["viewchange_tail_ms"] += len(g)
	}
	for _, g := range joinGroups {
		n["join_p50_ms"] += len(g)
	}
	return e2eResult{m: m, n: n, per: per, how: how}
}

// describe renders a run as comment lines: every metric with its unit
// and sample count, the outcome of the correctness gate, and its errors.
func (ps passes) describe(e e2eResult) []string {
	var out []string
	for _, k := range sortedKeys(e.m) {
		v := e.m[k]
		extra := ""
		if h := e.how[k]; h != "" {
			extra = " (" + h + ")"
		}
		if per := e.per[k]; per != nil {
			extra = fmt.Sprintf(" repeats %.4g", per)
		}
		for _, u := range unbounded {
			if k == u {
				extra += " (not bounded)"
			}
		}
		out = append(out, fmt.Sprintf("# %-22s %14.4f %-6s n=%d%s", k, v.Value, v.Unit, e.n[k], extra))
	}
	a, f := ps.outcome()
	checked := 0
	var cores, steal float64
	for _, p := range ps {
		checked += p.verdict.checked
		cores += p.host.cores / float64(len(ps))
		steal += p.host.steal / float64(len(ps))
	}
	out = append(out, fmt.Sprintf("# failed_frac %.6f (%d of %d); %d messages checked at survivors; latency is processor and scheduler time (no injected delay)",
		float64(f)/float64(max(a, 1)), f, a, checked))
	out = append(out, fmt.Sprintf("# host during the run: %.2f cores busy in this process, %.1f%% of CPU time stolen by the hypervisor", cores, 100*steal))
	for _, p := range ps {
		for _, e := range p.r.errs {
			out = append(out, "# error: "+e)
		}
		for _, v := range p.verdict.violations {
			out = append(out, "# violation: "+v)
		}
	}
	return out
}

// record is the host and configuration record of a result.
func record(sp *spec, seed int64, seconds float64, traced bool) string {
	rec := map[string]any{
		"workload":             sp.name,
		"why":                  sp.why,
		"seed":                 seed,
		"seconds":              seconds,
		"traced":               traced,
		"cpu":                  cpuModel(),
		"nproc":                runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"go":                   runtime.Version(),
		"transport":            map[bool]string{true: "loopback TCP", false: "memnet"}[sp.tcp],
		"members":              sp.members,
		"groups":               len(sp.producers),
		"idle_groups_per_node": sp.idle,
		"producers":            len(sp.producers),
		"relation":             sp.relation,
		"batch":                sp.batch,
		"repeats":              repeats,
		"setup_builds":         setupBuilds,
	}
	gc := sp.gc()
	rec["buffer"] = map[string]int{"to_deliver": gc.ToDeliverCap, "outgoing": gc.OutgoingCap, "window": gc.Window}
	rec["stability_interval_ms"] = float64(gc.StabilityInterval) / 1e6
	if sp.rate > 0 {
		rec["offered_msgs_s"] = sp.rate
	} else {
		rec["loop"] = "closed"
	}
	if sp.slowRate > 0 {
		rec["slow_member_msgs_s"] = sp.slowRate
		rec["slow_member_blocking_point_msgs_s"] = gameBlockingPoint
	}
	if sp.churn > 0 {
		rec["churn_period_ms"] = sp.churn.Milliseconds()
	} else {
		rec["probe_cycles"] = sp.probeCycles
	}
	b, _ := json.Marshal(rec)
	return string(b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "model name") {
			if i := strings.IndexByte(l, ':'); i >= 0 {
				return strings.TrimSpace(l[i+1:])
			}
		}
	}
	return runtime.GOARCH
}
