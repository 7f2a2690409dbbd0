package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	name, unit string
	// targets names the end-to-end metric and workload a per-layer metric
	// should move; empty for end-to-end metrics.
	targets string
}

// e2eMetrics are reported by untraced runs (--trace 0).
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_us", unit: "us"},
	{name: "cpu_us_per_op", unit: "us"},
	{name: "live_heap_mb", unit: "MB"},
}

const (
	firingP50   = "op_p50_us on fire_sync and fire_deferred"
	deferredOps = "cpu_us_per_op and the printed ops_per_s on fire_deferred; should not move query_snapshot"
	txnP50      = "op_p50_us on fire_sync (fsync) and fire_deferred (deferred rules run inside Commit)"
	lockTail    = "op_p50_us and the printed op_p99_us and ops_per_s on fire_sync"
	walOps      = "op_p50_us and the printed ops_per_s on fire_sync"
	readP50     = "op_p50_us on query_snapshot; should not move fire_deferred"
	queryP50    = "op_p50_us on query_snapshot, and the condition share of rules.signal_to_action_us on fire_*"
	traceSplit  = "attribution only: the traced op's time by layer, adding up to the traced op"
)

// layerMetrics are reported by traced runs (--trace 1): counter deltas
// and runtime totals per op over the whole measured phase, span
// statistics over its traced ops.
var layerMetrics = []metricDef{
	{"object.invoke_us", "us", firingP50},
	{"object.new_us", "us", firingP50},
	{"go.alloc_bytes_per_op", "bytes/op", firingP50},
	{"go.allocs_per_op", "count/op", firingP50},

	{"rules.signal_to_action_us", "us", deferredOps},
	{"rules.action_us", "us", deferredOps},
	{"rules.fires_per_op", "count/op", deferredOps},
	{"rules.retries_per_op", "count/op", deferredOps},
	{"rules.errors_per_op", "count/op", deferredOps},
	{"detector.signals_per_op", "count/op", deferredOps},
	{"detector.detections_per_op", "count/op", deferredOps},
	{"detector.rule_notifies_per_op", "count/op", deferredOps},
	{"detector.fastpath_hit_ratio", "ratio", deferredOps},
	{"sched.task_wait_us", "us", deferredOps},
	{"sched.task_run_us", "us", deferredOps},
	{"sched.tasks_per_op", "count/op", deferredOps},

	{"txn.begin_us", "us", txnP50},
	{"txn.commit_us", "us", txnP50},
	{"txn.sub_commits_per_op", "count/op", txnP50},
	{"txn.aborts_per_op", "count/op", txnP50},

	{"lockmgr.waits_per_op", "count/op", lockTail},
	{"lockmgr.wait_us", "us", lockTail},
	{"lockmgr.deadlocks_per_op", "count/op", lockTail},

	{"storage.wal_bytes_per_op", "bytes/op", walOps},
	{"storage.wal_fsyncs_per_op", "count/op", walOps},
	{"storage.group_commit_batch_size", "count", walOps},
	{"storage.group_commit_wait_us", "us", walOps},

	{"storage.buffer_hit_ratio", "ratio", readP50},
	{"storage.page_reads_per_op", "count/op", readP50},
	{"storage.page_writes_per_op", "count/op", readP50},
	{"storage.chain_walk_mean", "count", readP50},
	{"query.query_us", "us", readP50},

	{"query.index_probes_per_op", "count/op", queryP50},
	{"query.range_scans_per_op", "count/op", queryP50},
	{"query.extent_scans_per_op", "count/op", queryP50},
	{"query.reverify_drops_per_op", "count/op", queryP50},
	{"query.rows_per_op", "count/op", queryP50},
	{"query.rows_per_posting", "ratio", queryP50},

	{"self.op_us", "us", traceSplit},
	{"self.txn.begin_us", "us", traceSplit},
	{"self.object.invoke_us", "us", traceSplit},
	{"self.rules.action_us", "us", traceSplit},
	{"self.object.new_us", "us", traceSplit},
	{"self.txn.commit_us", "us", traceSplit},
	{"self.query.query_us", "us", traceSplit},
	{"trace.overhead_us", "us", "the traced minus the untraced op_p50_us of the same run"},
}
