package main

import (
	"math"
	"slices"
	"sort"
	"syscall"
	"time"

	"cobra/internal/sim"
)

// clock is a point on both host clocks: wall time, what a user waits,
// and this process's user+system CPU time (getrusage), which leaves out
// time spent waiting.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return clock{wall: time.Now(), cpu: cpu}
}

// since returns the wall and CPU seconds elapsed from c.
func (c clock) since() (wall, cpu float64) {
	n := now()
	return n.wall.Sub(c.wall).Seconds(), (n.cpu - c.cpu).Seconds()
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// position: the support a reported percentile has.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// model sums the simulated counts the traced run reports as model.*.
// They are deterministic functions of the seed.
type model struct {
	instr, memRefs, l1Misses, llcMisses, dramLines, branchMisses uint64
	cycles                                                       float64
}

func (c *model) add(m sim.Metrics) {
	c.instr += m.Ctr.Instructions
	c.memRefs += m.Ctr.Loads + m.Ctr.Stores
	c.cycles += m.Cycles
	c.l1Misses += m.L1Misses
	c.llcMisses += m.LLCMisses
	c.dramLines += m.DRAM.ReadLines + m.DRAM.WriteLines
	c.branchMisses += m.Ctr.BranchMisses
}

func (c model) report(out map[string]float64) {
	out["model.instr"] = float64(c.instr)
	out["model.mem_refs"] = float64(c.memRefs)
	out["model.cycles"] = c.cycles
	out["model.l1_misses"] = float64(c.l1Misses)
	out["model.llc_misses"] = float64(c.llcMisses)
	out["model.dram_lines"] = float64(c.dramLines)
	out["model.branch_misses"] = float64(c.branchMisses)
}

// endToEndSamples collects one sample per timed pass.
type endToEndSamples struct {
	setup, wall, cpu, minstrPerCPUS, jobsPerS []float64
	latencyMS                                 []float64 // every job of every pass
}

func (e *endToEndSamples) add(setup, wall, cpu float64, instr uint64, latencyMS []float64) {
	e.setup = append(e.setup, setup)
	e.wall = append(e.wall, wall)
	e.cpu = append(e.cpu, cpu)
	e.minstrPerCPUS = append(e.minstrPerCPUS, float64(instr)/cpu/1e6)
	e.jobsPerS = append(e.jobsPerS, float64(len(latencyMS))/wall)
	e.latencyMS = append(e.latencyMS, latencyMS...)
}

// report sets the end-to-end metrics and the wall-clock ones. cpu_s is
// the least CPU time of any pass, and sim_minstr_per_cpu_s the highest
// rate: neighbouring load on a shared host only ever adds CPU time to a
// pass (cache and memory contention), so the fastest pass is the one
// it disturbed least. setup_s is the median set-up. The wall.* metrics
// (median pass wall time, jobs per wall second, job latency percentiles
// over all jobs) follow hypervisor steal, so they are reported, not
// bounded: a traced run carries them, and every run record keeps them.
func (e *endToEndSamples) report(r *runner) {
	r.metrics["cpu_s"] = slices.Min(e.cpu)
	r.metrics["setup_s"] = median(e.setup)
	r.metrics["sim_minstr_per_cpu_s"] = slices.Max(e.minstrPerCPUS)
	r.metrics["wall.pass_s"] = median(e.wall)
	r.metrics["wall.jobs_per_s"] = median(e.jobsPerS)
	r.metrics["wall.job_p50_ms"] = percentile(e.latencyMS, 0.5)
	r.metrics["wall.job_p90_ms"] = percentile(e.latencyMS, 0.9)
	r.notes["peak_rss_mb"] = peakRSSMB()
	r.notes["passes"] = map[string]any{
		"wall_s": e.wall, "cpu_s": e.cpu, "setup_s": e.setup,
		"job_samples": len(e.latencyMS), "job_samples_beyond_p90": beyond(len(e.latencyMS), 0.9),
	}
}

// reportTraced sets the per-layer metrics every workload derives the
// same way: set-up split, simulated counts, host time per simulated
// instruction and reference (untraced pass CPU), and tracing overhead.
// The service metrics and the gang ratio start at 0, meaning the
// workload does not exercise that layer; the workload that does
// overwrites them.
func reportTraced(r *runner, setups []setupTimes, untracedCPU, untracedWall, tracedWall float64, mc model) {
	var in, build, server []float64
	for _, s := range setups {
		in, build, server = append(in, s.input), append(build, s.build), append(server, s.server)
	}
	r.metrics["setup.input_s"] = median(in)
	r.metrics["setup.build_s"] = median(build)
	r.metrics["setup.server_s"] = median(server)
	mc.report(r.metrics)
	r.metrics["sim.ns_per_instr"] = untracedCPU * 1e9 / float64(mc.instr)
	r.metrics["sim.ns_per_ref"] = untracedCPU * 1e9 / float64(mc.memRefs)
	r.metrics["trace.overhead_frac"] = tracedWall/untracedWall - 1
	r.metrics["runtime.peak_rss_mb"] = peakRSSMB()
	for _, n := range []string{"sim.gang_cpu_ratio", "srv.queue_wait_ms", "srv.run_ms", "srv.hit_ms",
		"srv.http_overhead_ms", "srv.stream_ms", "srv.cache_hit_ratio"} {
		r.metrics[n] = 0
	}
	r.notes["untraced_pass"] = map[string]float64{"wall_s": untracedWall, "cpu_s": untracedCPU}
	r.notes["traced_pass_wall_s"] = tracedWall
}
