package main

// metricDef declares one printed metric. The lists below mirror
// BENCHMARK.json exactly (perfbench_test.go checks both directions).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// on lists the workloads whose timed path enters the metric's layer.
	// A per-layer metric is printed on every workload and reads 0 where
	// its layer is not entered; one missing on a listed workload is a bug.
	on []string
}

var (
	all       = []string{"plan-paper", "estimate", "service"}
	pipelines = []string{"plan-paper", "estimate"}
	est       = []string{"estimate"}
	campaigns = []string{"estimate", "service"}
	svc       = []string{"service"}
)

// endToEnd are the metrics of untraced runs. An "op" is a kernel planned
// (plan-paper), a kernel estimated (estimate) or a campaign turned around
// (service).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, on: all},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, on: all},
	{name: "sites_per_s", unit: "1/s", better: "higher", bound: 0.25, on: all},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: all},
	{name: "op_p90_ms", unit: "ms", better: "lower", bound: 0.25, on: all},
	{name: "heap_peak_mb", unit: "MiB", better: "lower", bound: 0.15, on: all},
}

// perLayer are the metrics of traced runs, named "<layer>.<quantity>".
var perLayer = []metricDef{
	{name: "kernels.build_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "fault.prepare_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "fault.prepare_alloc_mb", unit: "MiB", better: "lower", on: pipelines},
	{name: "trace.build_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "core.build_plan_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "core.plan_sites", unit: "count", better: "lower", on: pipelines},
	{name: "core.reduction", unit: "x", better: "higher", on: pipelines},
	{name: "gpusim.exec_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "gpusim.sim_minstr_per_s", unit: "Minstr/s", better: "higher", on: pipelines},
	{name: "gpusim.trace_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "gpusim.snapshot_ms", unit: "ms", better: "lower", on: pipelines},
	{name: "gpusim.snapshot_mb", unit: "MiB", better: "lower", on: pipelines},
	{name: "fault.run_ms", unit: "ms", better: "lower", on: campaigns},
	{name: "fault.site_p50_us", unit: "us", better: "lower", on: est},
	{name: "fault.site_p99_us", unit: "us", better: "lower", on: est},
	{name: "fault.allocs_per_run", unit: "count", better: "lower", on: est},
	{name: "fault.alloc_mb_per_run", unit: "MiB", better: "lower", on: est},
	{name: "fault.gc_cycles", unit: "count", better: "lower", on: est},
	{name: "fault.pages_copied_per_run", unit: "count", better: "lower", on: campaigns},
	{name: "fault.ctas_skipped_per_run", unit: "count", better: "higher", on: campaigns},
	{name: "fault.early_exit_ratio", unit: "ratio", better: "higher", on: campaigns},
	{name: "fault.intra_skip_ratio", unit: "ratio", better: "higher", on: campaigns},
	{name: "fault.affinity_resets", unit: "ratio", better: "lower", on: campaigns},
	{name: "fault.quarantined", unit: "count", better: "lower", on: campaigns},
	{name: "fault.retries", unit: "count", better: "lower", on: campaigns},
	{name: "service.submit_ms", unit: "ms", better: "lower", on: svc},
	{name: "service.status_ms", unit: "ms", better: "lower", on: svc},
	{name: "service.report_ms", unit: "ms", better: "lower", on: svc},
	{name: "service.advice_ms", unit: "ms", better: "lower", on: svc},
	{name: "service.dedup_hits", unit: "count", better: "higher", on: svc},
	{name: "service.engine_runs", unit: "count", better: "lower", on: svc},
	{name: "service.rejected", unit: "count", better: "lower", on: svc},
	{name: "journal.append_us", unit: "us", better: "lower", on: svc},
	{name: "journal.sync_ms", unit: "ms", better: "lower", on: svc},
	{name: "report.merged_ms", unit: "ms", better: "lower", on: svc},
	{name: "advisor.analyze_ms", unit: "ms", better: "lower", on: svc},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", on: all},
}

// enters reports whether workload w's timed path enters the metric.
func (m metricDef) enters(w string) bool {
	for _, o := range m.on {
		if o == w {
			return true
		}
	}
	return false
}
