package main

import (
	"fmt"
	"sort"

	"repro/internal/check"
	"repro/internal/ident"
	"repro/internal/obsolete"
)

// The correctness gate runs after the timed window. Every delivery was
// already checked online by its consumer (right sender, strictly
// increasing seq, delivered in the view it was multicast in). Here each
// view of each active group becomes one segment:
//
//   - coverage: every survivor of the view (it installed the next view
//     and is a member of it, the view is its last and it is still a
//     member, or it delivered the group's last message in the view)
//     delivered, in the view, a message covering each message
//     multicast in it. Under the empty relation that is every message;
//     under a chain it is each sender's last; for game-slow it is the
//     slow member's purged backlog;
//   - the check.Recorder oracle (integrity, FIFO, view agreement, SVS,
//     FIFO-SR) replays the segment's multicasts, deliveries and installs.
//     Its coverage closure is quadratic (cubic under a chain) in the
//     stream length, so a segment of
//     more than recorderWhole messages is replayed as recorderWindows
//     windows of recorderWindow consecutive seqs instead, without the
//     install (which the coverage check already covers).
const (
	recorderWhole   = 2048
	recorderWindow  = 128
	recorderWindows = 8
)

type verdict struct {
	checked    int // messages checked at survivors
	missing    int // messages a survivor neither delivered nor covered
	violations []string
}

func (v *verdict) add(format string, args ...any) {
	if len(v.violations) < 20 {
		v.violations = append(v.violations, fmt.Sprintf(format, args...))
	}
}

// verify checks the whole run; r must be torn down.
func (r *run) verify() verdict {
	var v verdict
	for _, c := range r.allCons {
		for _, e := range c.errs {
			v.add("%s", e)
		}
		v.missing += len(c.errs)
	}
	for gi, p := range r.prods {
		r.verifyGroup(gi, p, &v)
	}
	return v
}

// segment is the run of seqs [lo, hi] multicast in view ref.
type segment struct {
	ref    ident.ViewRef
	lo, hi ident.Seq
}

// segments attributes every committed seq to the view it was multicast
// in. A MulticastBatch call returns the view of its last message, so a
// run of calls that returned the initial view lies wholly in it; any
// other run is attributed message by message through the producer's own
// deliveries, and must end in the view its calls returned.
func (r *run) segments(gi int, p *producer) ([]segment, error) {
	own := r.cons[gi][r.sp.producers[gi]]
	var segs []segment
	addSeq := func(seq ident.Seq, ref ident.ViewRef) {
		if n := len(segs); n > 0 && segs[n-1].ref == ref {
			segs[n-1].hi = seq
			return
		}
		segs = append(segs, segment{ref: ref, lo: seq, hi: seq})
	}
	var lo ident.Seq = 1
	for i, b := range p.batches {
		if i == 0 && b.ref == (ident.ViewRef{ID: 1}) {
			segs = append(segs, segment{ref: b.ref, lo: lo, hi: b.hi})
		} else {
			for s := lo; s <= b.hi; s++ {
				ref, ok := own.viewOf(s)
				if !ok {
					return nil, fmt.Errorf("group %d: cannot attribute seq %d to a view", activeGroup(gi), s)
				}
				addSeq(s, ref)
			}
			if segs[len(segs)-1].ref != b.ref {
				return nil, fmt.Errorf("group %d: MulticastBatch returned view %v for seq %d, delivered in %v",
					activeGroup(gi), b.ref, b.hi, segs[len(segs)-1].ref)
			}
		}
		lo = b.hi + 1
	}
	return segs, nil
}

func (r *run) verifyGroup(gi int, p *producer, v *verdict) {
	segs, err := r.segments(gi, p)
	if err != nil {
		v.add("%v", err)
		v.missing++
		return
	}
	st := r.streams[gi]
	rel := r.sp.gc().Relation
	if rel == nil {
		rel = obsolete.Empty{}
	}
	var cons []*consumer
	for _, c := range r.allCons {
		if c.gi == gi {
			cons = append(cons, c)
		}
	}
	for _, seg := range segs {
		for _, c := range cons {
			next, survivor := c.survives(seg.ref)
			if !survivor {
				continue
			}
			miss := coverage(rel, st, seg, func(s ident.Seq) bool {
				ref, ok := c.viewOf(s)
				return ok && ref == seg.ref
			})
			v.checked += int(seg.hi - seg.lo + 1)
			if miss > 0 {
				v.missing += miss
				end := "by the end of the run"
				if next != (ident.ViewRef{}) {
					end = fmt.Sprintf("before %v", next)
				}
				v.add("group %d: %s left %d messages of view %v uncovered %s",
					activeGroup(gi), c.pid, miss, seg.ref, end)
			}
		}
		for _, e := range r.replay(rel, st, seg, cons) {
			v.add("group %d, view %v: %v", activeGroup(gi), seg.ref, e)
			v.missing++
		}
	}
}

// survives reports whether c is bound to deliver view ref's messages:
// it held ref and installed a next view; ref is the last view it held
// and it is still a member at the end of the run; or it delivered the
// group's last message in ref. The last holds at every member that was
// current when the traffic quiesced (quiesce waits for it), including
// one the membership probe expels afterwards: an expulsion is no
// install, so the check.Recorder replay puts no obligation on it and
// the coverage check is what binds it. It returns the next view (zero
// when none).
func (c *consumer) survives(ref ident.ViewRef) (ident.ViewRef, bool) {
	next, held, ok := c.after(ref)
	if ok {
		return next.ref, true
	}
	if held && c.r.cons[c.gi][c.idx] == c {
		return ident.ViewRef{}, true
	}
	last := c.r.prods[c.gi].committed
	at, delivered := c.viewOf(last)
	return ident.ViewRef{}, last > 0 && delivered && at == ref
}

// after returns the install that followed view ref at c: held reports
// whether c held ref at all, ok whether it then installed another view.
// A founding incarnation holds the initial view without installing it.
func (c *consumer) after(ref ident.ViewRef) (next installRec, held, ok bool) {
	held = ref == (ident.ViewRef{ID: 1}) && c.founder
	for _, in := range c.installs {
		if held {
			return in, true, true
		}
		held = in.ref == ref
	}
	return installRec{}, held, false
}

// coverage counts the messages of seg not covered by a delivered one of
// seg under rel. A message is covered when it was delivered, or a later
// message of the segment that obsoletes it is covered; candidates are
// limited to the relation's declared window.
func coverage(rel obsolete.Relation, st *stream, seg segment, delivered func(ident.Seq) bool) int {
	window := ident.Seq(obsolete.CapsOf(rel).Window)
	n := int(seg.hi - seg.lo + 1)
	covered := make([]bool, n)
	missing := 0
	for s := seg.hi; s >= seg.lo; s-- {
		i := int(s - seg.lo)
		if delivered(s) {
			covered[i] = true
			continue
		}
		m := st.meta(s)
		top := seg.hi
		if window > 0 && s+window < top {
			top = s + window
		}
		for t := s + 1; t <= top; t++ {
			if covered[int(t-seg.lo)] && rel.Obsoletes(m, st.meta(t)) {
				covered[i] = true
				break
			}
		}
		if !covered[i] {
			missing++
		}
	}
	return missing
}

// replay runs the check.Recorder oracle over one segment.
func (r *run) replay(rel obsolete.Relation, st *stream, seg segment, cons []*consumer) []error {
	n := int(seg.hi - seg.lo + 1)
	if n <= recorderWhole {
		return replayRange(rel, st, seg, cons, seg.lo, seg.hi, true)
	}
	var errs []error
	step := (n - recorderWindow) / (recorderWindows - 1)
	for w := 0; w < recorderWindows; w++ {
		lo := seg.lo + ident.Seq(w*step)
		errs = append(errs, replayRange(rel, st, seg, cons, lo, lo+recorderWindow-1, false)...)
	}
	return errs
}

func replayRange(rel obsolete.Relation, st *stream, seg segment, cons []*consumer, lo, hi ident.Seq, installs bool) []error {
	rec := check.NewRecorder(rel)
	rec.SetInitialViewRef(seg.ref)
	for s := lo; s <= hi; s++ {
		rec.MulticastRef(st.meta(s), seg.ref)
	}
	sort.SliceStable(cons, func(i, j int) bool { return cons[i].pid < cons[j].pid })
	for _, c := range cons {
		for s := lo; s <= hi; s++ {
			if ref, ok := c.viewOf(s); ok && ref == seg.ref {
				rec.DeliverRef(c.pid, st.meta(s), seg.ref)
			}
		}
		if !installs {
			continue
		}
		if next, _, ok := c.after(seg.ref); ok {
			rec.InstallRef(c.pid, next.ref, next.members)
		}
	}
	return rec.Verify()
}
