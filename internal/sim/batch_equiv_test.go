package sim_test

// Differential tests pinning the batched op pipeline (Mach.B over
// mem.AccessBatch) to the scalar per-reference oracle: every Metrics
// field of every scheme must be bit-identical under
// Arch.WithScalarRefs(), on one core and on a gang of four.

import (
	"fmt"
	"reflect"
	"testing"

	"cobra/internal/mem"
	"cobra/internal/sim"
	"cobra/internal/simtest"
)

// runAll executes every scheme (including the COBRA variants with
// distinctive machinery: coalescing, bin regrouping, no-partition) on
// the given number of cores and returns the metrics keyed by a
// descriptive name.
func runAll(t *testing.T, arch sim.Arch, cores int) map[string]sim.Metrics {
	t.Helper()
	arch = arch.WithCores(cores)
	out := map[string]sim.Metrics{}
	for _, dist := range simtest.Dists() {
		app, _ := simtest.CountAppDist(dist, 1<<13, 30000, 77)
		base, err := sim.RunBaseline(app, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["base/"+dist.String()] = base
		pb, err := sim.RunPBSW(app, 64, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["pbsw/"+dist.String()] = pb
		cob, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		if err != nil {
			t.Fatal(err)
		}
		out["cobra/"+dist.String()] = cob
	}
	app, _ := simtest.CountApp(1<<13, 30000, 78)
	comm, err := sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-comm"] = comm
	regroup, err := sim.RunCOBRA(app, sim.CobraOpt{MaxLLCBufs: 16}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-regroup"] = regroup
	nopart, err := sim.RunCOBRA(app, sim.CobraOpt{NoPartition: true, SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["cobra-nopart"] = nopart
	phi, err := sim.RunPHI(app, 64, arch)
	if err != nil {
		t.Fatal(err)
	}
	out["phi"] = phi
	return out
}

// TestBatchedPipelineMatchesScalar is the whole-simulation analogue of
// the mem/cpu layer differential tests: Metrics — cycles (float64,
// compared exactly), phase deltas, counters, traffic — must not differ
// in any bit between the batched pipeline and the scalar oracle.
func TestBatchedPipelineMatchesScalar(t *testing.T) {
	for _, cores := range []int{1, 4} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			batched := runAll(t, sim.DefaultArch(), cores)
			scalar := runAll(t, sim.DefaultArch().WithScalarRefs(), cores)
			if len(batched) != len(scalar) {
				t.Fatalf("scheme sets differ: %d vs %d", len(batched), len(scalar))
			}
			for name, b := range batched {
				s, ok := scalar[name]
				if !ok {
					t.Fatalf("missing scalar run %q", name)
				}
				if b.Cores != cores {
					t.Errorf("%s: merged %d cores, want %d", name, b.Cores, cores)
				}
				if !reflect.DeepEqual(b, s) {
					t.Errorf("%s: batched metrics diverge from scalar oracle\nbatched: %+v\nscalar:  %+v", name, b, s)
				}
			}
		})
	}
}

// TestBatchedPipelineMatchesScalarNUCA repeats the check with NUCA hop
// latencies enabled (the one place LLC/DRAM load timing depends on the
// address, exercising the replay's hoisted NUCA math).
func TestBatchedPipelineMatchesScalarNUCA(t *testing.T) {
	arch := sim.DefaultArch()
	arch.Mem.NUCA = mem.DefaultNUCA()
	app, _ := simtest.CountApp(1<<13, 30000, 79)
	for _, scheme := range []string{"base", "pbsw"} {
		var b, s sim.Metrics
		var err1, err2 error
		switch scheme {
		case "base":
			b, err1 = sim.RunBaseline(app, arch)
			s, err2 = sim.RunBaseline(app, arch.WithScalarRefs())
		default:
			b, err1 = sim.RunPBSW(app, 64, arch)
			s, err2 = sim.RunPBSW(app, 64, arch.WithScalarRefs())
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !reflect.DeepEqual(b, s) {
			t.Errorf("%s under NUCA: batched diverges from scalar", scheme)
		}
	}
}
