package main

// metric is one reported number: its name and unit as BENCHMARK.json
// declares them. Every workload reports every metric of its mode
// (untraced: endToEnd; traced: perLayer), so a workload that does not
// exercise a layer reports that layer's metric as 0 (see README.md).
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run, the ones BENCHMARK.json
// bounds: CPU-time based, because on a shared box wall time follows
// hypervisor steal (see README.md).
var endToEnd = []metric{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"sim_minstr_per_cpu_s", "Minstr/s"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metric{
	{"wall.pass_s", "s"},
	{"wall.jobs_per_s", "1/s"},
	{"wall.job_p50_ms", "ms"},
	{"wall.job_p90_ms", "ms"},
	{"setup.input_s", "s"},
	{"setup.build_s", "s"},
	{"setup.server_s", "s"},
	{"sim.baseline_s", "s"},
	{"sim.pbsw_s", "s"},
	{"sim.cobra_s", "s"},
	{"sim.phi_s", "s"},
	{"sim.ns_per_instr", "ns"},
	{"sim.ns_per_ref", "ns"},
	{"sim.gang_cpu_ratio", "ratio"},
	{"layer.cpu.self_s", "s"},
	{"layer.mem.self_s", "s"},
	{"layer.cache.self_s", "s"},
	{"layer.sim.self_s", "s"},
	{"layer.phi.self_s", "s"},
	{"layer.kernels.self_s", "s"},
	{"layer.stream.self_s", "s"},
	{"layer.srv.self_s", "s"},
	{"layer.nethttp.self_s", "s"},
	{"layer.gc.self_s", "s"},
	{"layer.other.self_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.peak_rss_mb", "MB"},
	{"srv.queue_wait_ms", "ms"},
	{"srv.run_ms", "ms"},
	{"srv.hit_ms", "ms"},
	{"srv.http_overhead_ms", "ms"},
	{"srv.stream_ms", "ms"},
	{"srv.cache_hit_ratio", "ratio"},
	{"model.instr", "count"},
	{"model.mem_refs", "count"},
	{"model.cycles", "count"},
	{"model.l1_misses", "count"},
	{"model.llc_misses", "count"},
	{"model.dram_lines", "count"},
	{"model.branch_misses", "count"},
	{"trace.cpu_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// layers are the CPU-profile buckets behind the layer.*.self_s metrics,
// in report order.
var layers = []string{"cpu", "mem", "cache", "sim", "phi", "kernels", "stream", "srv", "nethttp", "gc", "other"}
