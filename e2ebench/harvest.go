package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	sentinel "repro"
)

// counterSeries are the counters the per-layer metrics are derived from.
var counterSeries = []string{
	"sentinel_rules_fires_immediate_total",
	"sentinel_rules_fires_deferred_total",
	"sentinel_rules_fires_detached_total",
	"sentinel_rules_retries_total",
	"sentinel_rules_errors_total",
	"sentinel_detector_signals_total",
	"sentinel_detector_detections_total",
	"sentinel_detector_rule_notifies_total",
	"sentinel_detector_fastpath_hits_total",
	"sentinel_sched_tasks_total",
	"sentinel_txn_sub_commits_total",
	"sentinel_txn_aborts_total",
	"sentinel_lock_waits_total",
	"sentinel_lock_deadlocks_total",
	"sentinel_storage_wal_append_bytes_total",
	"sentinel_storage_wal_fsyncs_total",
	"sentinel_storage_buffer_hits_total",
	"sentinel_storage_buffer_misses_total",
	"sentinel_storage_page_reads_total",
	"sentinel_storage_page_writes_total",
	"sentinel_query_index_probes_total",
	"sentinel_query_index_range_scans_total",
	"sentinel_query_extent_scans_total",
	"sentinel_query_reverify_drops_total",
}

// histogramSeries are the histograms whose means the per-layer metrics
// report.
var histogramSeries = []string{
	"sentinel_sched_task_wait_seconds",
	"sentinel_sched_task_run_seconds",
	"sentinel_lock_wait_seconds",
	"sentinel_storage_group_commit_batch_size",
	"sentinel_storage_group_commit_wait_seconds",
	"sentinel_storage_version_chain_length",
}

// harvest is one reading of the database's counters, the Go runtime's
// allocation totals and the process's CPU time, taken outside the timed
// phase.
type harvest struct {
	counter    map[string]float64
	histSum    map[string]float64
	histCount  map[string]float64
	allocBytes uint64
	allocs     uint64
	cpu        time.Duration // user plus system CPU time of the process
}

// takeHarvest reads every series the per-layer metrics need. A missing
// series is an error, so a renamed metric cannot silently zero a layer.
func takeHarvest(db *sentinel.Database) (harvest, error) {
	h := harvest{counter: map[string]float64{}, histSum: map[string]float64{}, histCount: map[string]float64{}}
	for _, s := range db.Metrics().Snapshot() {
		if s.Hist != nil {
			h.histSum[s.Name] = s.Hist.Sum
			h.histCount[s.Name] = float64(s.Hist.Count)
		} else {
			h.counter[s.Name] = s.Value
		}
	}
	for _, name := range counterSeries {
		if _, ok := h.counter[name]; !ok {
			return h, fmt.Errorf("metric series %s is missing from db.Metrics() or is not a counter", name)
		}
	}
	for _, name := range histogramSeries {
		if _, ok := h.histCount[name]; !ok {
			return h, fmt.Errorf("metric series %s is missing from db.Metrics() or is not a histogram", name)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.allocBytes, h.allocs = ms.TotalAlloc, ms.Mallocs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return h, fmt.Errorf("getrusage: %w", err)
	}
	h.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return h, nil
}

// counterMetrics derives the counter-based per-layer metrics from two
// harvests around a phase of ops operations that returned rows rows.
func counterMetrics(before, after harvest, ops, rows int) map[string]float64 {
	d := func(name string) float64 { return after.counter[name] - before.counter[name] }
	perOp := func(v float64) float64 { return v / float64(ops) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	mean := func(name string) float64 {
		return ratio(after.histSum[name]-before.histSum[name], after.histCount[name]-before.histCount[name])
	}
	hits, misses := d("sentinel_storage_buffer_hits_total"), d("sentinel_storage_buffer_misses_total")
	drops := d("sentinel_query_reverify_drops_total")
	return map[string]float64{
		"go.alloc_bytes_per_op": perOp(float64(after.allocBytes - before.allocBytes)),
		"go.allocs_per_op":      perOp(float64(after.allocs - before.allocs)),

		"rules.fires_per_op": perOp(d("sentinel_rules_fires_immediate_total") +
			d("sentinel_rules_fires_deferred_total") + d("sentinel_rules_fires_detached_total")),
		"rules.retries_per_op": perOp(d("sentinel_rules_retries_total")),
		"rules.errors_per_op":  perOp(d("sentinel_rules_errors_total")),

		"detector.signals_per_op":       perOp(d("sentinel_detector_signals_total")),
		"detector.detections_per_op":    perOp(d("sentinel_detector_detections_total")),
		"detector.rule_notifies_per_op": perOp(d("sentinel_detector_rule_notifies_total")),
		"detector.fastpath_hit_ratio":   ratio(d("sentinel_detector_fastpath_hits_total"), d("sentinel_detector_signals_total")),

		"sched.task_wait_us": mean("sentinel_sched_task_wait_seconds") * 1e6,
		"sched.task_run_us":  mean("sentinel_sched_task_run_seconds") * 1e6,
		"sched.tasks_per_op": perOp(d("sentinel_sched_tasks_total")),

		"txn.sub_commits_per_op": perOp(d("sentinel_txn_sub_commits_total")),
		"txn.aborts_per_op":      perOp(d("sentinel_txn_aborts_total")),

		"lockmgr.waits_per_op":     perOp(d("sentinel_lock_waits_total")),
		"lockmgr.wait_us":          mean("sentinel_lock_wait_seconds") * 1e6,
		"lockmgr.deadlocks_per_op": perOp(d("sentinel_lock_deadlocks_total")),

		"storage.wal_bytes_per_op":        perOp(d("sentinel_storage_wal_append_bytes_total")),
		"storage.wal_fsyncs_per_op":       perOp(d("sentinel_storage_wal_fsyncs_total")),
		"storage.group_commit_batch_size": mean("sentinel_storage_group_commit_batch_size"),
		"storage.group_commit_wait_us":    mean("sentinel_storage_group_commit_wait_seconds") * 1e6,
		"storage.buffer_hit_ratio":        ratio(hits, hits+misses),
		"storage.page_reads_per_op":       perOp(d("sentinel_storage_page_reads_total")),
		"storage.page_writes_per_op":      perOp(d("sentinel_storage_page_writes_total")),
		"storage.chain_walk_mean":         mean("sentinel_storage_version_chain_length"),

		"query.index_probes_per_op":   perOp(d("sentinel_query_index_probes_total")),
		"query.range_scans_per_op":    perOp(d("sentinel_query_index_range_scans_total")),
		"query.extent_scans_per_op":   perOp(d("sentinel_query_extent_scans_total")),
		"query.reverify_drops_per_op": perOp(drops),
		"query.rows_per_op":           perOp(float64(rows)),
		"query.rows_per_posting":      ratio(float64(rows), float64(rows)+drops),
	}
}
