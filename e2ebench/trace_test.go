package main

import (
	"strings"
	"testing"
)

func sp(name string, parent int, start, end int64) span {
	return span{name: name, parent: parent, start: start, end: end}
}

func TestSelfTimeNestedChildren(t *testing.T) {
	// op [0,100] > invoke [10,60] > action [20,50] > new [30,40]
	spans := []span{
		sp(spanOp, -1, 0, 100),
		sp(spanInvoke, 0, 10, 60),
		sp(spanAction, 1, 20, 50),
		sp(spanNew, 2, 30, 40),
	}
	want := []int64{50, 20, 20, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestSelfTimeAdjacentChildren(t *testing.T) {
	// Children that touch end to start cover their summed durations.
	parent := sp(spanOp, -1, 0, 100)
	kids := []span{sp(spanBegin, 0, 0, 10), sp(spanInvoke, 0, 10, 70), sp(spanCommit, 0, 70, 100)}
	if got := selfTime(parent, kids); got != 0 {
		t.Errorf("self time with adjacent children filling the parent = %d, want 0", got)
	}
	kids = []span{sp(spanBegin, 0, 5, 10), sp(spanInvoke, 0, 10, 20), sp(spanCommit, 0, 90, 95)}
	if got := selfTime(parent, kids); got != 80 {
		t.Errorf("self time = %d, want 80", got)
	}
}

func TestSelfTimeOverlappingAndEscapingChildren(t *testing.T) {
	parent := sp(spanOp, -1, 100, 200)
	// Overlapping siblings count once; the part of a child outside the
	// parent does not count at all.
	kids := []span{sp(spanInvoke, 0, 110, 150), sp(spanInvoke, 0, 140, 160), sp(spanCommit, 0, 190, 230)}
	if got := selfTime(parent, kids); got != 40 {
		t.Errorf("self time = %d, want 40", got)
	}
}

func TestCheckTraceAcceptsWellFormedTrace(t *testing.T) {
	traces := []trace{{id: 7, spans: []span{
		sp(spanOp, -1, 0, 100),
		sp(spanBegin, 0, 1, 5),
		sp(spanInvoke, 0, 5, 60),
		sp(spanAction, 2, 20, 50),
		sp(spanNew, 3, 30, 40),
		sp(spanCommit, 0, 60, 99),
	}}, {id: 8, failed: true, spans: []span{sp(spanOp, -1, 0, 10), sp(spanCommit, 0, 5, 20)}}}
	if err := checkTrace(&traces[0]); err != nil {
		t.Fatal(err)
	}
	s, err := summarize(traces)
	if err != nil {
		t.Fatal(err)
	}
	if s.traces != 1 || s.failed != 1 {
		t.Errorf("summarize checked %d traces and skipped %d, want 1 and 1 (a failed op's trace is not checked)", s.traces, s.failed)
	}
	total := int64(0)
	for _, name := range spanNames {
		total += s.selfNs[name]
	}
	if root := s.durNs[spanOp]; total != root {
		t.Errorf("self times add up to %d ns, the op took %d ns", total, root)
	}
	if s.signalToActionNs != 15 {
		t.Errorf("signal to action = %d ns, want 15", s.signalToActionNs)
	}
}

func TestCheckTraceRejects(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []span
		want  string
	}{
		{"child outside parent", []span{sp(spanOp, -1, 0, 100), sp(spanCommit, 0, 90, 110)}, "outside parent"},
		{"overlapping siblings", []span{sp(spanOp, -1, 0, 100), sp(spanInvoke, 0, 10, 50), sp(spanInvoke, 0, 40, 60)}, "add up to"},
		{"unclosed span", []span{sp(spanOp, -1, 0, 100), sp(spanInvoke, 0, 10, 0)}, "not closed"},
		{"no root", []span{sp(spanInvoke, 0, 10, 20)}, "no root"},
	} {
		err := checkTrace(&trace{spans: c.spans})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checkTrace = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestTraceRecordsNestingAndBoundsSpans(t *testing.T) {
	rec := newRecorder(6, 3)
	tr := rec.start(1)
	root := tr.begin(spanOp)
	inv := tr.begin(spanInvoke)
	act := tr.begin(spanAction)
	if lost := tr.begin(spanNew); lost != -1 {
		t.Fatalf("fourth span in a 3-span trace got index %d", lost)
	}
	tr.end(act)
	tr.end(inv)
	tr.end(root)
	if got := []int{tr.spans[0].parent, tr.spans[1].parent, tr.spans[2].parent}; got[0] != -1 || got[1] != 0 || got[2] != 1 {
		t.Errorf("parents = %v, want [-1 0 1]", got)
	}
	if err := checkTrace(tr); err == nil || !strings.Contains(err.Error(), "span slots") {
		t.Errorf("checkTrace of an overflowed trace = %v", err)
	}
	if rec.start(2) == nil {
		t.Fatal("second trace refused with room for it")
	}
	if rec.start(3) != nil {
		t.Fatal("third trace handed out beyond the arena")
	}
	if n := len(rec.done()); n != 2 {
		t.Errorf("done() = %d traces, want 2", n)
	}
	var untraced *trace
	untraced.end(untraced.begin(spanOp)) // a nil trace records nothing
}
