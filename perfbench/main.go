// Command cobrabench is the repository benchmark. It runs one workload
// at one seed, checks every simulated result, and prints one JSON
// result line: untraced runs report the end-to-end metrics, traced runs
// (-trace 1) the per-layer ones. perfbench/run.sh builds and runs it;
// README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named benchmark workload.
type workload struct {
	name string
	// run fills r.metrics with every metric of r's mode and counts each
	// checked operation through r.check.
	run func(r *runner) error
}

var workloads = []workload{
	{"campaign-s14", runCampaign},
	{"gang16-s18", runGang},
	{"service-mix", runService},
}

// runner carries one run's parameters and accumulates its results.
type runner struct {
	seed    uint64
	seconds float64
	traced  bool
	dir     string  // per-run scratch directory (journals, caches)
	tr      *tracer // nil unless traced

	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string       // the first few failure reasons
	notes     map[string]any // recorded beside the metrics
}

const maxFailureNotes = 20

// check counts one operation, failed unless ok.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// minPasses is the fewest timed passes a run makes: a repeated pass
// shows that it redoes its work and reproduces its results, and
// end-to-end cpu_s takes the least of at least three.
const minPasses = 3

// passes calls one at least minPasses times, and then again while the
// timed wall seconds it reports, plus one more pass of their mean
// length, fit in r.seconds.
func (r *runner) passes(one func() (wall float64, err error)) error {
	var total float64
	for i := 0; i < minPasses || total+total/float64(i) <= r.seconds; i++ {
		// Start every pass from a collected heap, so garbage the last
		// pass left neither costs this one GC time nor stacks onto its
		// peak memory.
		runtime.GC()
		w, err := one()
		if err != nil {
			return err
		}
		total += w
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign-s14, gang16-s18 or service-mix")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Float64("seconds", 20, "timed seconds per run (at least three passes always run)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", ".bench_build/records", "directory for run records and scratch files")
	flag.Parse()
	res, ctx, err := run(*name, *seed, *seconds, *trace, *out)
	if err == nil {
		err = printResult(ctx, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobrabench:", err)
		os.Exit(1)
	}
}

// printResult prints the host context line, then the result as the
// last line of standard output.
func printResult(ctx map[string]any, res result) error {
	for _, v := range []any{ctx, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// run runs one workload and writes its record (notes and spans) under
// out. It returns the result and the context line printed before it.
func run(name string, seed uint64, seconds float64, trace int, out string) (result, map[string]any, error) {
	var res result
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return res, nil, fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return res, nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if !(seconds > 0) {
		return res, nil, fmt.Errorf("-seconds must be positive")
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)
	dir := filepath.Join(out, tag+".tmp")
	if err := os.RemoveAll(dir); err != nil {
		return res, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, nil, err
	}
	defer os.RemoveAll(dir)

	r := &runner{seed: seed, seconds: seconds, traced: trace == 1, dir: dir,
		metrics: map[string]float64{}, notes: map[string]any{}}
	if r.traced {
		r.tr = newTracer()
	}
	host0 := readHost()
	if err := w.run(r); err != nil {
		return res, nil, fmt.Errorf("%s: %w", name, err)
	}
	r.notes["host"] = readHost().since(host0)

	want := endToEnd
	if r.traced {
		want = perLayer
	}
	res = result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, nil, fmt.Errorf("%s: metric %s missing or not finite", name, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if res.Attempted < 1 {
		return res, nil, fmt.Errorf("%s: no operations attempted", name)
	}
	if len(r.failures) > 0 {
		r.notes["failures"] = r.failures
	}

	record := map[string]any{"workload": name, "seed": seed, "trace": trace, "notes": r.notes, "result": res, "all_metrics": r.metrics}
	if r.tr != nil {
		record["spans"] = r.tr.spans
	}
	path := filepath.Join(out, tag+".json")
	if err := writeJSONFile(path, record); err != nil {
		return res, nil, err
	}
	return res, map[string]any{"context": r.notes["host"], "record": path}, nil
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// host is the noise context recorded beside each run: CPU time stolen
// by the hypervisor and spent waiting on I/O (from /proc/stat, in clock
// ticks) and the load average. It explains a noisy sample; it never
// drops one.
type host struct {
	steal, iowait, total uint64
	load                 string
}

func readHost() host {
	var h host
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		line, _, _ := strings.Cut(string(b), "\n")
		f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
		for i := 1; i < len(f); i++ {
			v, _ := strconv.ParseUint(f[i], 10, 64)
			h.total += v
			switch i {
			case 5:
				h.iowait = v
			case 8:
				h.steal = v
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.load = strings.TrimSpace(string(b))
	}
	return h
}

func (h host) since(h0 host) map[string]any {
	return map[string]any{
		"steal_ticks":      h.steal - h0.steal,
		"iowait_ticks":     h.iowait - h0.iowait,
		"total_ticks":      h.total - h0.total,
		"loadavg":          h.load,
		"loadavg_at_start": h0.load,
		"finished":         time.Now().UTC().Format(time.RFC3339),
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
