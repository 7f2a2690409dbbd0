// Command e2ebench is the repository's end-to-end benchmark: closed-loop
// clients drive E-C-A firings and snapshot queries through the public
// sentinel facade, every output is checked, and the result is printed as
// one JSON line.
//
// Usage, from the repository root (e2ebench/run.sh builds and runs it):
//
//	e2ebench --workload fire_sync --seed 1 --seconds 20 --trace 0
//
// Workloads (see workloads):
//
//	fire_sync       durable firing: SyncWAL, 2 clients, Zipf-hot STOCK objects
//	fire_deferred   deferred composite firing: 16 invokes per commit, no fsync
//	query_snapshot  snapshot queries over 30k objects, ~10x the buffer pool
//
// --trace 0 reports the end-to-end metrics (e2eMetrics) and prints, beside
// them, ops_per_s, op_p99_us and the error rate. --trace 1
// alternates traced and untraced windows, checks every trace, writes the
// spans to <dir>/trace-<workload>-seed<n>.jsonl and reports the per-layer
// metrics (layerMetrics). The last line of standard output is the JSON
// result; the exit code is non-zero when any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sentinel "repro"
)

// workload is one named input set: its set-up, its op and its checks.
type workload interface {
	// setup opens a database in dir and creates the schema, data, indexes
	// and rules. It is what setup_s times.
	setup(dir string) error
	clients() int
	// warmupOps is how many ops run before timing starts; live_heap_mb is
	// read after them.
	warmupOps() int64
	// spansPerOp bounds the spans one traced op records.
	spansPerOp() int
	// op runs client c's next op and returns the rows it read. tr is nil
	// for untraced ops.
	op(c int, id int64, tr *trace) (rows int, err error)
	// check validates client c's last op after its latency is taken.
	check(c int) error
	// verify checks the database state after the measured phase.
	verify() error
	database() *sentinel.Database
	close() error
}

// workloads constructs each workload from its seed.
var workloads = map[string]func(seed uint64) workload{
	"fire_sync":      newFireSync,
	"fire_deferred":  newFireDeferred,
	"query_snapshot": newQuerySnapshot,
}

const (
	// A run sets up its workload at least minSetups times and until
	// setupBudget has passed, at most maxSetups times; setup_s is the
	// median, and the last set-up is the one measured.
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 3 * time.Second
	// window splits the measured phase: the printed ops_per_s is the
	// median rate over windows, so a burst of interference from outside
	// the program moves one window, not the whole run.
	window = 2 * time.Second
	// warmupCap bounds the warm-up should a program be too slow to
	// finish its warm-up ops.
	warmupCap = 60 * time.Second
	// live_heap_mb is the median of heapReadings readings heapGap apart,
	// taken after heapSettle: long enough for the storage layer's 1 s
	// version GC to reclaim the undo chains the warm-up left, which
	// otherwise add up to ~1.3 MB depending on when its last pass ran.
	heapSettle   = 1500 * time.Millisecond
	heapReadings = 5
	heapGap      = 250 * time.Millisecond
	// traceWindow alternates traced and untraced ops in a traced run, so
	// both see the same database state and the difference of their
	// medians is the tracing overhead.
	traceWindow = 200 * time.Millisecond
	// traceArena bounds the spans a traced run keeps in memory.
	traceArena = 1 << 18
	// watchdog ends a run that hangs, with every goroutine's stack on
	// standard error, before the 180 s a run is allowed.
	watchdog = 170 * time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string
}

// phase is what a set of closed-loop clients did over one time window.
type phase struct {
	ops, failed, wrong, rows int
	lat                      [2][]float64 // µs of successful ops: [untraced, traced]
	done                     []int        // successful ops per whole window
	start, end               int64
	errs                     []error
}

// runPhase runs every client of w in a closed loop until d has passed or,
// when limit > 0, limit ops have started. With rec set, ops that start in
// odd traceWindows are traced.
func runPhase(w workload, d time.Duration, limit int64, rec *recorder, ids *atomic.Int64) phase {
	parts := make([]phase, w.clients())
	start := now()
	deadline := start + int64(d)
	var started atomic.Int64
	windows := int(d / window)
	for c := range parts {
		parts[c].done = make([]int, windows)
	}
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for {
				t0 := now()
				if t0 >= deadline || limit > 0 && started.Add(1) > limit {
					p.end = t0
					return
				}
				id := ids.Add(1)
				var tr *trace
				traced := 0
				if rec != nil && (t0-start)/int64(traceWindow)%2 == 1 {
					if tr = rec.start(id); tr != nil {
						traced = 1
					}
				}
				root := tr.begin(spanOp)
				rows, err := w.op(c, id, tr)
				tr.end(root)
				t1 := now()
				p.ops++
				if err == nil {
					if err = w.check(c); err != nil {
						p.wrong++
					}
				}
				if err != nil {
					if tr != nil {
						tr.failed = true
					}
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Errorf("op %d: %w", id, err))
					}
					continue
				}
				p.rows += rows
				p.lat[traced] = append(p.lat[traced], float64(t1-t0)/1e3)
				if win := int((t1 - start) / int64(window)); win < windows {
					p.done[win]++
				}
			}
		}(c)
	}
	wg.Wait()
	out := phase{start: start, done: make([]int, windows)}
	for _, p := range parts {
		for i, n := range p.done {
			out.done[i] += n
		}
		out.ops += p.ops
		out.failed += p.failed
		out.wrong += p.wrong
		out.rows += p.rows
		out.lat[0] = append(out.lat[0], p.lat[0]...)
		out.lat[1] = append(out.lat[1], p.lat[1]...)
		out.end = max(out.end, p.end)
		out.errs = append(out.errs, p.errs...)
	}
	sort.Float64s(out.lat[0])
	sort.Float64s(out.lat[1])
	return out
}

// liveHeapMB returns the median of heapReadings heap sizes, each read
// after a forced GC, so a reading does not depend on where the database's
// background work happens to be.
func liveHeapMB() float64 {
	time.Sleep(heapSettle)
	var mbs []float64
	for i := 0; i < heapReadings; i++ {
		if i > 0 {
			time.Sleep(heapGap)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		mbs = append(mbs, float64(ms.HeapAlloc)/(1<<20))
	}
	return median(mbs)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run sets up, warms up, measures and checks one workload. Problems with
// the program's outputs are reported through result.Correct and the
// returned check errors; err is for runs that could not finish.
func run(o options) (res result, checks []error, err error) {
	mk := workloads[o.workload]
	if mk == nil {
		return res, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	dir := filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(dir)

	var w workload
	var setups []float64
	for r, spent := 0, 0.0; r < maxSetups && (r < minSetups || spent < setupBudget.Seconds()); r++ {
		if w != nil {
			if err := w.close(); err != nil {
				return res, nil, fmt.Errorf("close set-up %d: %w", r-1, err)
			}
		}
		w = mk(o.seed)
		db := filepath.Join(dir, fmt.Sprintf("db%d", r))
		if err := os.Mkdir(db, 0o755); err != nil {
			return res, nil, err
		}
		t0 := time.Now()
		if err := w.setup(db); err != nil {
			return res, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[r]
	}
	defer w.close()

	// live_heap_mb is read after a fixed number of ops rather than after
	// the timed phase: the firing workloads keep an in-memory directory
	// entry per AUDIT record they create, so a heap read after a timed
	// phase would grow with throughput and penalise a faster program.
	var ids atomic.Int64
	warm := runPhase(w, warmupCap, w.warmupOps(), nil, &ids)
	liveHeap := liveHeapMB()
	var rec *recorder
	if o.trace {
		rec = newRecorder(traceArena, w.spansPerOp())
	}
	before, err := takeHarvest(w.database())
	if err != nil {
		return res, nil, err
	}
	m := runPhase(w, time.Duration(o.seconds)*time.Second, 0, rec, &ids)
	after, err := takeHarvest(w.database())
	if err != nil {
		return res, nil, err
	}

	for _, e := range append(warm.errs, m.errs...) {
		fmt.Fprintln(os.Stderr, "e2ebench:", e)
	}
	if n := warm.wrong + m.wrong; n > 0 {
		checks = append(checks, fmt.Errorf("%d ops answered wrongly", n))
	}
	if err := w.verify(); err != nil {
		checks = append(checks, fmt.Errorf("verify: %w", err))
	}
	if err := w.close(); err != nil {
		checks = append(checks, fmt.Errorf("close: %w", err))
	}
	res.Attempted = warm.ops + m.ops
	res.Failed = warm.failed + m.failed
	fmt.Printf("workload %s seed %d: %d ops measured over %.3f s after %d warm-up ops; %d failed, %d wrong\n",
		o.workload, o.seed, m.ops, float64(m.end-m.start)/1e9, warm.ops, res.Failed, warm.wrong+m.wrong)
	fmt.Printf("error_rate %.6f ratio (failed or wrongly answered ops / %d attempted)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)

	vals := map[string]float64{}
	var defs []metricDef
	lat := m.lat[0]
	if !o.trace {
		defs = e2eMetrics
		vals["setup_s"] = median(setups)
		vals["op_p50_us"] = percentile(lat, 50)
		var rates []float64
		for _, n := range m.done {
			rates = append(rates, float64(n)/window.Seconds())
		}
		vals["cpu_us_per_op"] = float64(after.cpu-before.cpu) / 1e3 / float64(max(m.ops, 1))
		vals["live_heap_mb"] = liveHeap
		// Throughput and the latency tail are printed but not reported as
		// result metrics: on a shared host they follow the CPU time the
		// hypervisor steals far more than they follow the program.
		tail := tailPercentile(len(lat))
		fmt.Printf("latency over %d samples: op_p50_us %.1f, op_p99_us %.1f; highest percentile with >=10 samples beyond it: p%g = %.1f us\n",
			len(lat), vals["op_p50_us"], percentile(lat, 99), tail, percentile(lat, tail))
		fmt.Printf("ops_per_s %.1f 1/s (median over %v windows: %.1f)\n", median(rates), window, rates)
		fmt.Printf("set-up times (s): %.4f\n", setups)
	} else {
		defs = layerMetrics
		for k, v := range counterMetrics(before, after, m.ops, m.rows) {
			vals[k] = v
		}
		sum, err := summarize(rec.done())
		if err != nil {
			checks = append(checks, fmt.Errorf("trace check: %w", err))
		}
		path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := dumpTraces(path, rec.done()); err != nil {
			return res, checks, fmt.Errorf("write spans: %w", err)
		}
		for _, name := range []string{spanInvoke, spanNew, spanAction, spanBegin, spanCommit, spanQuery} {
			vals[name+"_us"] = sum.meanUs(name)
		}
		vals["rules.signal_to_action_us"] = sum.signalToActionUs()
		for _, name := range spanNames {
			vals["self."+name+"_us"] = sum.selfPerOpUs(name)
		}
		untraced, traced := percentile(m.lat[0], 50), percentile(m.lat[1], 50)
		vals["trace.overhead_us"] = traced - untraced
		fmt.Printf("traced %d ops (%d failed, %d untraced) into %s; op_p50_us traced %.1f, untraced %.1f\n",
			sum.traces, sum.failed, len(m.lat[0]), path, traced, untraced)
	}
	res.Correct = len(checks) == 0
	res.Metrics = map[string]value{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return res, checks, fmt.Errorf("metric %s was not computed", d.name)
		}
		if err := checkName(d.name); err != nil {
			return res, checks, err
		}
		res.Metrics[d.name] = value{Value: v, Unit: d.unit}
		if d.targets != "" {
			fmt.Printf("%-34s %14.4f %-8s -> %s\n", d.name, v, d.unit, d.targets)
		} else {
			fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	return res, checks, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: fire_sync, fire_deferred or query_snapshot")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured phase in seconds, at least 2")
	trace := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for databases and span dumps")
	flag.Parse()
	o.trace = *trace == 1
	if flag.NArg() > 0 || time.Duration(o.seconds)*time.Second < window || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		buf := make([]byte, 1<<22)
		fmt.Fprintf(os.Stderr, "e2ebench: still running after %v; goroutines:\n%s\n", watchdog, buf[:runtime.Stack(buf, true)])
		os.Exit(3)
	})
	res, checks, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, c := range checks {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
