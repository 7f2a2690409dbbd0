package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors span timestamps; time.Since reads the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Span names: the op itself and one per layer call the benchmark makes.
const (
	spanOp     = "op"
	spanBegin  = "txn.begin"
	spanInvoke = "object.invoke"
	spanAction = "rules.action"
	spanNew    = "object.new"
	spanCommit = "txn.commit"
	spanQuery  = "query.query"
)

// spanNames lists every span name, in report order.
var spanNames = []string{spanOp, spanBegin, spanInvoke, spanAction, spanNew, spanCommit, spanQuery}

// span is one timed call from the benchmark into a layer.
type span struct {
	name   string
	parent int   // index of the enclosing span in the trace; -1 for the root
	start  int64 // ns since epoch
	end    int64
}

// trace holds the spans of one traced op. Its ID is the op index. A nil
// *trace records nothing, so untraced ops pay one nil check per call. The
// mutex matters when a rule runs on another client's goroutine, which the
// program's shared scheduler allows.
type trace struct {
	mu     sync.Mutex
	id     int64
	spans  []span // backed by the recorder's arena; its capacity bounds the op
	open   int    // innermost open span: the parent of the next one
	lost   bool   // the op made more calls than its span capacity
	failed bool   // the op failed; its trace is dumped but not checked
}

// begin opens a span as a child of the innermost open one and returns its
// index, to be passed to end.
func (t *trace) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.lost = true
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: t.open, start: now()})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span i.
func (t *trace) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now()
	t.open = t.spans[i].parent
}

// recorder hands out traces backed by one arena allocated before timing
// starts, so tracing allocates nothing while ops run. Spans stay in memory
// until the run ends; once the arena is full, further ops go untraced.
type recorder struct {
	perOp  int
	arena  []span
	traces []trace
	next   atomic.Int64 // traces handed out
}

func newRecorder(arenaSpans, perOp int) *recorder {
	n := arenaSpans / perOp
	return &recorder{perOp: perOp, arena: make([]span, n*perOp), traces: make([]trace, n)}
}

// start returns a fresh trace with the given ID, or nil when the arena is
// exhausted.
func (r *recorder) start(id int64) *trace {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.traces)) {
		return nil
	}
	base := int(i) * r.perOp
	t := &r.traces[i]
	t.id, t.spans, t.open = id, r.arena[base:base:base+r.perOp], -1
	return t
}

// done returns the traces handed out so far. Call it only after every op
// has finished.
func (r *recorder) done() []trace {
	n := r.next.Load()
	if n > int64(len(r.traces)) {
		n = int64(len(r.traces))
	}
	return r.traces[:n]
}

// selfTime returns the part of parent's interval that none of its direct
// children cover: its duration minus the union of the children's
// intervals, each clipped to the parent.
func selfTime(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, lo, hi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= hi {
			hi = max(hi, v.hi)
			continue
		}
		if open {
			covered += hi - lo
		}
		lo, hi, open = v.lo, v.hi, true
	}
	if open {
		covered += hi - lo
	}
	return (parent.end - parent.start) - covered
}

// selfTimes returns every span's self time, in span order.
func selfTimes(spans []span) []int64 {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = selfTime(s, kids[i])
	}
	return out
}

// checkTrace puts a trace under an oracle: it must have exactly one root,
// every span must be closed and lie inside its parent, and the self times
// of all spans must add up to the root's duration, which holds only when
// sibling spans do not overlap.
func checkTrace(t *trace) error {
	if t.lost {
		return fmt.Errorf("trace %d: more calls than its %d span slots", t.id, cap(t.spans))
	}
	if len(t.spans) == 0 || t.spans[0].parent != -1 {
		return fmt.Errorf("trace %d: no root span", t.id)
	}
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("trace %d: span %d (%s) not closed", t.id, i, s.name)
		}
		if i == 0 {
			continue
		}
		if s.parent < 0 || s.parent >= i {
			return fmt.Errorf("trace %d: span %d (%s) has parent %d", t.id, i, s.name, s.parent)
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("trace %d: span %d (%s) [%d,%d] outside parent %s [%d,%d]",
				t.id, i, s.name, s.start, s.end, p.name, p.start, p.end)
		}
	}
	sum := int64(0)
	for _, st := range selfTimes(t.spans) {
		sum += st
	}
	if root := t.spans[0].end - t.spans[0].start; sum != root {
		return fmt.Errorf("trace %d: self times add up to %d ns, root lasted %d ns", t.id, sum, root)
	}
	return nil
}

// traceSummary aggregates a run's traces per span name.
type traceSummary struct {
	traces int // checked traces: those of ops that succeeded
	failed int
	calls  map[string]int
	durNs  map[string]int64 // summed span durations
	selfNs map[string]int64 // summed self times
	// signalToActionNs sums, over rules.action spans, the time from the
	// start of the enclosing Invoke or Commit call to the action's start.
	signalToActionNs int64
}

// summarize checks every trace and aggregates them.
func summarize(traces []trace) (traceSummary, error) {
	s := traceSummary{calls: map[string]int{}, durNs: map[string]int64{}, selfNs: map[string]int64{}}
	for i := range traces {
		t := &traces[i]
		if t.failed {
			s.failed++
			continue
		}
		if err := checkTrace(t); err != nil {
			return s, err
		}
		s.traces++
		for j, st := range selfTimes(t.spans) {
			sp := t.spans[j]
			s.calls[sp.name]++
			s.durNs[sp.name] += sp.end - sp.start
			s.selfNs[sp.name] += st
			if sp.name == spanAction {
				s.signalToActionNs += sp.start - t.spans[sp.parent].start
			}
		}
	}
	return s, nil
}

// meanUs returns the mean duration of the named span in µs, 0 if none ran.
func (s traceSummary) meanUs(name string) float64 {
	if s.calls[name] == 0 {
		return 0
	}
	return float64(s.durNs[name]) / float64(s.calls[name]) / 1e3
}

// signalToActionUs returns the mean time from the call into Invoke or
// Commit to the first line of the action, in µs.
func (s traceSummary) signalToActionUs() float64 {
	if s.calls[spanAction] == 0 {
		return 0
	}
	return float64(s.signalToActionNs) / float64(s.calls[spanAction]) / 1e3
}

// selfPerOpUs returns the named span's self time per traced op in µs.
func (s traceSummary) selfPerOpUs(name string) float64 {
	if s.traces == 0 {
		return 0
	}
	return float64(s.selfNs[name]) / float64(s.traces) / 1e3
}

// dumpTraces writes one JSON object per span to path.
func dumpTraces(path string, traces []trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i := range traces {
		t := &traces[i]
		for j, st := range selfTimes(t.spans) {
			sp := t.spans[j]
			fmt.Fprintf(w, "{\"trace\":%d,\"span\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n",
				t.id, j, sp.parent, sp.name, sp.start, sp.end, st)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
