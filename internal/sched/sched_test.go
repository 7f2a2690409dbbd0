package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPathOrdering(t *testing.T) {
	cases := []struct {
		a, b Path
		less bool // a.Less(b)
	}{
		{Path{1}, Path{2}, true},
		{Path{2}, Path{1}, false},
		{Path{5}, Path{5}, false},
		{Path{5}, Path{5, 1}, true},  // deeper outranks on equal prefix
		{Path{5, 1}, Path{5}, false}, //
		{Path{5, 9}, Path{6}, true},  // first element dominates
		{Path{6}, Path{5, 9}, false},
		{nil, Path{0}, true},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v)=%v want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Path{1, 2}).Equal(Path{1, 2}) || (Path{1}).Equal(Path{1, 2}) || (Path{1}).Equal(Path{2}) {
		t.Error("Equal broken")
	}
	if got := (Path{3}).Child(7); !got.Equal(Path{3, 7}) {
		t.Errorf("Child=%v", got)
	}
}

func TestSerialPriorityOrder(t *testing.T) {
	s := New(4)
	s.Serial = true
	var order []string
	add := func(name string, prio int) {
		s.Enqueue(&Task{Rule: name, Priority: Path{prio}, Run: func(*Task) { order = append(order, name) }})
	}
	add("low", 1)
	add("high", 10)
	add("mid", 5)
	add("high2", 10)
	s.Drain()
	want := []string{"high", "high2", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending=%d", s.Pending())
	}
}

func TestConcurrentWithinClass(t *testing.T) {
	s := New(8)
	var inFlight, maxInFlight atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		s.Enqueue(&Task{Rule: "r", Priority: Path{5}, Run: func(*Task) {
			cur := inFlight.Add(1)
			mu.Lock()
			if cur > maxInFlight.Load() {
				maxInFlight.Store(cur)
			}
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
		}})
	}
	s.Drain()
	if maxInFlight.Load() < 2 {
		t.Fatalf("same-class tasks never ran concurrently (max=%d)", maxInFlight.Load())
	}
	if s.Ran != 8 {
		t.Fatalf("Ran=%d", s.Ran)
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	s := New(2)
	var inFlight, maxInFlight atomic.Int64
	for i := 0; i < 10; i++ {
		s.Enqueue(&Task{Rule: "r", Priority: Path{1}, Run: func(*Task) {
			cur := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		}})
	}
	s.Drain()
	if maxInFlight.Load() > 2 {
		t.Fatalf("worker bound exceeded: %d", maxInFlight.Load())
	}
}

func TestDepthFirstNestedExecution(t *testing.T) {
	// A parent rule triggers a child; the child must run before the
	// parent's lower-priority sibling.
	s := New(1)
	s.Serial = true
	var order []string
	s.Enqueue(&Task{Rule: "parent", Priority: Path{5}, Run: func(t *Task) {
		order = append(order, "parent")
		s.Enqueue(&Task{Rule: "child", Priority: t.Priority.Child(1), Run: func(*Task) {
			order = append(order, "child")
		}})
	}})
	s.Enqueue(&Task{Rule: "sibling", Priority: Path{3}, Run: func(*Task) {
		order = append(order, "sibling")
	}})
	s.Drain()
	want := []string{"parent", "child", "sibling"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
}

func TestNestedDoesNotStarveEqualClassSiblings(t *testing.T) {
	// Child of the first high task runs before the second high task's
	// completion is required — but same-class siblings still run before
	// lower classes.
	s := New(1)
	s.Serial = true
	var order []string
	for _, name := range []string{"h1", "h2"} {
		name := name
		s.Enqueue(&Task{Rule: name, Priority: Path{9}, Run: func(t *Task) {
			order = append(order, name)
			s.Enqueue(&Task{Rule: name + ".child", Priority: t.Priority.Child(0), Run: func(*Task) {
				order = append(order, name+".child")
			}})
		}})
	}
	s.Enqueue(&Task{Rule: "low", Priority: Path{1}, Run: func(*Task) { order = append(order, "low") }})
	s.Drain()
	want := []string{"h1", "h1.child", "h2", "h2.child", "low"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	s := New(1)
	s.Serial = true
	var depthReached int
	var spawn func(t *Task, depth int)
	spawn = func(t *Task, depth int) {
		if depth > depthReached {
			depthReached = depth
		}
		if depth >= 10 {
			return
		}
		s.Enqueue(&Task{Rule: "r", Priority: t.Priority.Child(0), Run: func(ct *Task) {
			spawn(ct, depth+1)
		}})
	}
	s.Enqueue(&Task{Rule: "root", Priority: Path{1}, Run: func(t *Task) { spawn(t, 1) }})
	s.Drain()
	if depthReached != 10 {
		t.Fatalf("depth=%d want 10", depthReached)
	}
}

func TestDrainOnEmptyQueue(t *testing.T) {
	s := New(4)
	s.Drain() // must not hang or panic
}

// Property: serial drain always executes in non-increasing effective
// priority order relative to the tasks present at enqueue time (no child
// spawning here).
func TestQuickSerialOrder(t *testing.T) {
	f := func(prios []uint8) bool {
		s := New(1)
		s.Serial = true
		var ran []int
		for _, p := range prios {
			p := int(p % 10)
			s.Enqueue(&Task{Rule: "r", Priority: Path{p}, Run: func(*Task) { ran = append(ran, p) }})
		}
		s.Drain()
		for i := 1; i < len(ran); i++ {
			if ran[i] > ran[i-1] {
				return false
			}
		}
		return len(ran) == len(prios)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFamilyScope: a family's scheduling point runs its own tasks and
// those of no family, never another family's, and at top level it returns
// only once its task that another goroutine's Drain took has finished.
func TestDrainFamilyScope(t *testing.T) {
	s := New(2)
	defer s.Close()
	var ran sync.Map
	add := func(name string, family uint64, run func()) {
		s.Enqueue(&Task{Rule: name, Priority: Path{0}, Family: family, Run: func(*Task) {
			if run != nil {
				run()
			}
			ran.Store(name, true)
		}})
	}
	add("own", 1, nil)
	add("orphan", 0, nil)
	add("other", 2, nil)
	s.DrainFamily(1, true)
	for name, want := range map[string]bool{"own": true, "orphan": true, "other": false} {
		if _, got := ran.Load(name); got != want {
			t.Fatalf("%s ran = %v, want %v", name, got, want)
		}
	}

	// Family 1's task is taken by a Drain on another goroutine and blocks
	// there; the family's top-level point must wait for it.
	release, started := make(chan struct{}), make(chan struct{})
	add("held", 1, func() { close(started); <-release })
	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	<-started
	returned := make(chan struct{})
	go func() {
		s.DrainFamily(1, true)
		close(returned)
	}()
	s.DrainFamily(1, false) // a nested point does not wait
	select {
	case <-returned:
		t.Fatal("top-level DrainFamily returned while its family's task was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-returned
	<-drained
	if _, ok := ran.Load("held"); !ok {
		t.Fatal("held task did not finish before DrainFamily returned")
	}
}
