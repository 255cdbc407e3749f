package sim_test

// Functional and metric tests of the execution schemes, built on the
// shared workload builders in internal/simtest (external test package:
// simtest imports sim, so these can't live in package sim).

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cobra/internal/sim"
	"cobra/internal/simtest"
)

func TestValidateRejectsBadApps(t *testing.T) {
	app, _ := simtest.CountApp(10, 10, 1)
	app.TupleBytes = 7
	if app.Validate() == nil {
		t.Fatal("bad tuple size accepted")
	}
	app.TupleBytes = 4
	app.NumUpdates = 0
	if app.Validate() == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestBaselineFunctionalAndMetrics(t *testing.T) {
	app, counts := simtest.CountApp(1<<14, 100000, 2)
	m, err := sim.RunBaseline(app, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "baseline", *counts, simtest.RefCounts(app))
	if m.Cycles <= 0 || m.Ctr.Instructions == 0 || m.Ctr.Loads == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if m.Scheme != sim.SchemeBaseline {
		t.Fatal("wrong scheme tag")
	}
}

func TestPBSWFunctionalAndPhases(t *testing.T) {
	app, counts := simtest.CountApp(1<<14, 100000, 3)
	m, err := sim.RunPBSW(app, 64, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "pbsw", *counts, simtest.RefCounts(app))
	if m.NumBins < 32 || m.NumBins > 64 {
		t.Fatalf("NumBins = %d", m.NumBins)
	}
	total := m.InitCycles + m.BinCycles + m.AccumCycles
	if math.Abs(total-m.Cycles)/m.Cycles > 0.01 {
		t.Fatalf("phases (%.0f) do not sum to total (%.0f)", total, m.Cycles)
	}
	if m.BinCtr.Instructions == 0 || m.AccumCtr.Instructions == 0 {
		t.Fatal("phase counters empty")
	}
	// PB-SW executes far more instructions than baseline (paper: up to 4x).
	base, _ := sim.RunBaseline(app, sim.DefaultArch())
	if m.Ctr.Instructions < 2*base.Ctr.Instructions {
		t.Fatalf("PB-SW instructions (%d) not well above baseline (%d)", m.Ctr.Instructions, base.Ctr.Instructions)
	}
}

func TestCOBRAFunctionalAndFaster(t *testing.T) {
	// Big enough that the counter array exceeds the LLC slice: 1M keys x
	// 4B = 4MB > 2MB.
	app, counts := simtest.CountApp(1<<20, 400000, 4)
	arch := sim.DefaultArch()
	base, err := sim.RunBaseline(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]uint32(nil), simtest.RefCounts(app)...)
	pbsw, err := sim.RunPBSW(app, 512, arch)
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "pbsw", *counts, want)
	cob, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "cobra", *counts, want)
	if !(cob.Cycles < pbsw.Cycles && pbsw.Cycles < base.Cycles) {
		t.Fatalf("expected COBRA < PB-SW < Baseline cycles, got %.3g / %.3g / %.3g",
			cob.Cycles, pbsw.Cycles, base.Cycles)
	}
	// COBRA executes fewer instructions than PB-SW (Figure 12).
	if cob.Ctr.Instructions >= pbsw.Ctr.Instructions {
		t.Fatal("COBRA did not reduce instructions")
	}
	// COBRA's binning branch misses are near zero (Figure 12 bottom).
	if r := cob.BinCtr.BranchMissRate(); r > 0.02 {
		t.Fatalf("COBRA binning branch miss rate %.3f, want ~0", r)
	}
	if cob.NumBins <= pbsw.NumBins {
		t.Fatalf("COBRA bins (%d) should exceed PB-SW's compromise (%d)", cob.NumBins, pbsw.NumBins)
	}
}

func TestCOBRACommCoalesces(t *testing.T) {
	app, counts := simtest.CountApp(1<<16, 300000, 5)
	arch := sim.DefaultArch()
	plain, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "cobra", *counts, simtest.RefCounts(app))
	comm, err := sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	// Coalesced values must still sum correctly.
	simtest.CheckCounts(t, "cobra-comm", *counts, simtest.RefCounts(app))
	if comm.BinMem.DRAMWriteLines >= plain.BinMem.DRAMWriteLines {
		t.Fatalf("COBRA-COMM writes (%d lines) not below COBRA (%d)",
			comm.BinMem.DRAMWriteLines, plain.BinMem.DRAMWriteLines)
	}
}

func TestCommRejectsNonCommutative(t *testing.T) {
	app, _ := simtest.CountApp(1<<12, 1000, 6)
	app.Commutative = false
	if _, err := sim.RunCOBRA(app, sim.CobraOpt{Coalesce: true}, sim.DefaultArch()); err == nil {
		t.Fatal("COBRA-COMM accepted a non-commutative app")
	}
	if _, err := sim.RunPHI(app, 64, sim.DefaultArch()); err == nil {
		t.Fatal("PHI accepted a non-commutative app")
	}
	app.Commutative = true
	app.Reduce = nil
	if _, err := sim.RunPHI(app, 64, sim.DefaultArch()); err == nil {
		t.Fatal("PHI accepted an app without a lossless reducer")
	}
}

func TestPHIFunctionalAndTraffic(t *testing.T) {
	app, counts := simtest.CountApp(1<<14, 200000, 7)
	m, err := sim.RunPHI(app, 64, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	simtest.CheckCounts(t, "phi", *counts, simtest.RefCounts(app))
	if m.NumBins > 64 {
		t.Fatalf("PHI bins = %d", m.NumBins)
	}
	// 16K keys over a 200K-update stream coalesce massively on chip:
	// PHI's bin write traffic must be far below one tuple per update.
	if m.BinMem.DRAMWriteLines*16 > uint64(app.NumUpdates) {
		t.Fatalf("PHI wrote %d lines; expected heavy coalescing", m.BinMem.DRAMWriteLines)
	}
}

func TestIdealPBComposition(t *testing.T) {
	app, _ := simtest.CountApp(1<<16, 200000, 8)
	arch := sim.DefaultArch()
	small, err := sim.RunPBSW(app, 16, arch)
	if err != nil {
		t.Fatal(err)
	}
	large, err := sim.RunPBSW(app, 4096, arch)
	if err != nil {
		t.Fatal(err)
	}
	ideal := sim.IdealPB(small, large)
	if ideal.Scheme != sim.SchemePBIdeal {
		t.Fatal("wrong scheme")
	}
	want := small.InitCycles + small.BinCycles + large.AccumCycles
	if ideal.Cycles != want {
		t.Fatalf("ideal cycles %.0f, want %.0f", ideal.Cycles, want)
	}
	if ideal.Cycles > small.Cycles || ideal.Cycles > large.Cycles {
		t.Fatal("ideal must be at least as fast as both parents")
	}
}

func TestEvictBufSizeMonotone(t *testing.T) {
	app, _ := simtest.CountApp(1<<18, 300000, 9)
	arch := sim.DefaultArch()
	small, err := sim.RunCOBRA(app, sim.CobraOpt{EvictBufL1L2: 1}, arch)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sim.RunCOBRA(app, sim.CobraOpt{EvictBufL1L2: 64}, arch)
	if err != nil {
		t.Fatal(err)
	}
	if small.EvictStalls < big.EvictStalls {
		t.Fatalf("1-entry buffer stalled less (%.0f) than 64-entry (%.0f)",
			small.EvictStalls, big.EvictStalls)
	}
}

func TestSimulationDeterminism(t *testing.T) {
	// Identical app + arch must reproduce cycle counts bit-for-bit; the
	// figures' reproducibility rests on this.
	run := func() (float64, float64, float64) {
		app, _ := simtest.CountApp(1<<14, 50000, 21)
		arch := sim.DefaultArch()
		b, _ := sim.RunBaseline(app, arch)
		p, _ := sim.RunPBSW(app, 64, arch)
		c, _ := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
		return b.Cycles, p.Cycles, c.Cycles
	}
	b1, p1, c1 := run()
	b2, p2, c2 := run()
	if b1 != b2 || p1 != p2 || c1 != c2 {
		t.Fatalf("nondeterministic simulation: (%v,%v,%v) vs (%v,%v,%v)", b1, p1, c1, b2, p2, c2)
	}
}

func TestCtxSwitchQuantumMonotone(t *testing.T) {
	app, _ := simtest.CountApp(1<<16, 200000, 22)
	arch := sim.DefaultArch()
	freq, err := sim.RunCOBRA(app, sim.CobraOpt{CtxSwitchQuantum: 10000, SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	rare, err := sim.RunCOBRA(app, sim.CobraOpt{CtxSwitchQuantum: 10e6, SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	if freq.CtxSwitches <= rare.CtxSwitches {
		t.Fatalf("switches: freq=%d rare=%d", freq.CtxSwitches, rare.CtxSwitches)
	}
	if freq.CtxWasteBytes < rare.CtxWasteBytes {
		t.Fatalf("waste: freq=%d rare=%d", freq.CtxWasteBytes, rare.CtxWasteBytes)
	}
}

func TestSkipAccumStopsEarly(t *testing.T) {
	app, _ := simtest.CountApp(1<<14, 50000, 23)
	arch := sim.DefaultArch()
	full, err := sim.RunCOBRA(app, sim.CobraOpt{}, arch)
	if err != nil {
		t.Fatal(err)
	}
	binOnly, err := sim.RunCOBRA(app, sim.CobraOpt{SkipAccum: true}, arch)
	if err != nil {
		t.Fatal(err)
	}
	if binOnly.AccumCycles != 0 || binOnly.Cycles >= full.Cycles {
		t.Fatalf("SkipAccum did not skip: %+v", binOnly)
	}
	if binOnly.BinCycles != full.BinCycles {
		t.Fatalf("binning cycles differ with/without accumulate: %v vs %v", binOnly.BinCycles, full.BinCycles)
	}
}

func TestMaxLLCBufsRegroup(t *testing.T) {
	app, _ := simtest.CountApp(1<<16, 100000, 24)
	m, err := sim.RunCOBRA(app, sim.CobraOpt{MaxLLCBufs: 64}, sim.DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles <= 0 {
		t.Fatal("capped run produced no cycles")
	}
}

// plainApplier hides the Shard method of the applier it wraps.
type plainApplier struct{ sim.Applier }

// TestUnshardableApplierRunsOnOneCore pins the runners' one
// core-count-specific rule: a gang of one needs no per-core applier
// views, so an applier without Shard runs on one core — with metrics
// and output identical to the shardable applier it wraps — and is
// refused on four.
func TestUnshardableApplierRunsOnOneCore(t *testing.T) {
	app, counts := simtest.CountApp(1<<12, 20000, 31)
	plain := *app
	plain.NewApplier = func(m *sim.Mach) sim.Applier { return plainApplier{app.NewApplier(m)} }
	want := simtest.RefCounts(app)
	for _, scheme := range []sim.Scheme{sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA, sim.SchemePHI} {
		ref, err := sim.Run(app, scheme, 64, sim.DefaultArch())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(&plain, scheme, 64, sim.DefaultArch())
		if err != nil {
			t.Fatalf("%s on one core: %v", scheme, err)
		}
		simtest.CheckCounts(t, string(scheme), *counts, want)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: unshardable applier changed the metrics\ngot:  %+v\nwant: %+v", scheme, got, ref)
		}
		_, err = sim.Run(&plain, scheme, 64, sim.DefaultArch().WithCores(4))
		if err == nil || !strings.Contains(err.Error(), "does not support multi-core sharding") {
			t.Errorf("%s on four cores: err = %v, want the sharding refusal", scheme, err)
		}
	}
}
