package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"cobra/internal/exp"
)

// testSeed has no stored references, so the shrunken workloads below
// are checked pass against pass only.
const testSeed = 99

// shrink runs the workloads at scales that take seconds, restoring the
// benchmark's scales after the test.
func shrink(t *testing.T) {
	c, g, s := campaignScale, gangScale, serviceScale
	campaignScale, gangScale, serviceScale = 8, 10, 8
	t.Cleanup(func() { campaignScale, gangScale, serviceScale = c, g, s })
}

func TestServiceSequenceIsSeeded(t *testing.T) {
	a, na, err := serviceSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := serviceSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := serviceSequence(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same request sequence")
	}
	if len(a) < 100 {
		t.Fatalf("%d requests a round, want at least 100 so p90 has 10 samples beyond it", len(a))
	}
	repeats, streams := 0, 0
	firstAt := map[int]int{}
	for i, q := range a {
		if q.stream() {
			streams++
		}
		if !q.Repeat {
			firstAt[q.Key] = i
			continue
		}
		repeats++
		at, ok := firstAt[q.Key]
		if !ok || i-at < repeatGap {
			t.Errorf("%s repeats spec %d first sent at %d, want at least %d requests earlier", q.ID, q.Key, at, repeatGap)
		}
	}
	if len(firstAt) != na {
		t.Errorf("%d distinct specs sent, sequence reports %d", len(firstAt), na)
	}
	if f := float64(repeats) / float64(len(a)); f < 0.2 || f > 0.3 {
		t.Errorf("repeat share %.2f, want about a quarter", f)
	}
	if streams == 0 || streams == len(a) {
		t.Errorf("%d of %d requests are streams, want a mix", streams, len(a))
	}
}

// TestServiceRefsCoverSequence pins refs.json to the request sequence:
// at each seed with references, every distinct spec has one, and every
// reference belongs to a spec of the sequence.
func TestServiceRefsCoverSequence(t *testing.T) {
	for _, seed := range []uint64{42, 1234} {
		ref, err := loadRefs("service-mix", seed)
		if err != nil {
			t.Fatal(err)
		}
		seq, distinct, err := serviceSequence(seed)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, q := range seq {
			names[specName(q.Spec)] = true
		}
		if len(names) != distinct || len(ref) != distinct {
			t.Errorf("seed %d: %d distinct specs, %d spec names, %d references", seed, distinct, len(names), len(ref))
		}
		for n := range names {
			if _, ok := ref[n]; !ok {
				t.Errorf("seed %d: no reference for %s", seed, n)
			}
		}
	}
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesMetrics pins BENCHMARK.json to the metrics
// and workloads this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !namePattern.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program reports %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	check := func(i int, n, u, better string, want metric) {
		name(n)
		if !unitPattern.MatchString(u) {
			t.Errorf("%s: invalid unit %q", n, u)
		}
		if n != want.Name || u != want.Unit {
			t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, n, u, want.Name, want.Unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", n, better)
		}
	}
	for i, m := range spec.EndToEnd {
		check(i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		check(i, m.Name, m.Unit, m.Better, perLayer[i])
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestEveryWorkloadEmitsItsMetrics runs each shrunken workload in both
// modes and checks the result line: every metric of the mode with its
// unit, all operations correct, the layer split summing to the traced
// CPU time, and simulated counts that repeat exactly.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	shrink(t)
	for _, w := range workloads {
		for trace, want := range [][]metric{endToEnd, perLayer} {
			res, _, err := run(w.name, testSeed, 0.001, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == 0 {
				continue
			}
			var sum float64
			for _, l := range layers {
				sum += res.Metrics["layer."+l+".self_s"].Value
			}
			if cpu := res.Metrics["trace.cpu_s"].Value; math.Abs(sum-cpu) > 1e-9*cpu {
				t.Errorf("%s: layers sum to %v s, traced CPU %v s", w.name, sum, cpu)
			}
			again, _, err := run(w.name, testSeed, 0.001, trace, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if len(m.Name) > 6 && m.Name[:6] == "model." && again.Metrics[m.Name] != res.Metrics[m.Name] {
					t.Errorf("%s: %s %v then %v", w.name, m.Name, res.Metrics[m.Name].Value, again.Metrics[m.Name].Value)
				}
			}
		}
	}
}

// TestCampaignPassesRedoWork pins that every campaign pass simulates:
// set-up regenerates inputs (exp.InputBuilds > 0) after dropping the
// memos, and Fig10 journals every cell instead of replaying runSuite's
// memo.
func TestCampaignPassesRedoWork(t *testing.T) {
	shrink(t)
	r := &runner{seed: testSeed, dir: t.TempDir(), metrics: map[string]float64{}, notes: map[string]any{}}
	var cells int
	for pass := 0; pass < 2; pass++ {
		if _, err := setupSuite(r); err != nil {
			t.Fatal(err)
		}
		if exp.InputBuilds() == 0 {
			t.Fatalf("pass %d: set-up generated no inputs", pass)
		}
		p, err := fig10(r, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.cells) == 0 || (pass > 0 && len(p.cells) != cells) {
			t.Fatalf("pass %d simulated %d cells, first pass %d", pass, len(p.cells), cells)
		}
		cells = len(p.cells)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cobra/internal/cache.(*Cache).Access":                  "cobra/internal/cache",
		"cobra/internal/exp.MapCellsCtx[go.shape.struct { a }]": "cobra/internal/exp",
		"cobra/internal/sim.runShards.func1":                    "cobra/internal/sim",
		"runtime.memmove":                                       "runtime",
		"net/http.(*conn).serve":                                "net/http",
		"encoding/json.(*encodeState).marshal":                  "encoding/json",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := layerOf([]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "cobra/internal/cache.New"}); got != "gc" {
		t.Errorf("allocation sample attributed to %q, want gc", got)
	}
	if got := layerOf([]string{"cobra/internal/cache.(*Cache).Access", "cobra/internal/mem.(*Hierarchy).Access"}); got != "cache" {
		t.Errorf("cache sample attributed to %q, want cache", got)
	}
}
