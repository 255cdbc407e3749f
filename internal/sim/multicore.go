package sim

// Scheme runners on a gang of per-core machines (DESIGN §9).
//
// Every scheme runs on Arch.Cores() per-core Machs — each with its own
// L1/L2, OpBuf pipeline, and private NUCA LLC slice, exactly the
// paper's Table II machine — and merges the per-core Metrics with
// MergeMetrics. A single-core run is a gang of one: the same runner
// with one machine, one shard owning the whole stream and key range,
// and a merge that is the identity. The sharding follows the paper's
// parallel PB/COBRA execution model:
//
//   - Init and Binning shard the *input stream* by position: core c
//     streams its contiguous chunk of updates into core-private bins
//     spanning the full key range (the paper duplicates all bins and
//     C-Buffers per thread).
//   - Baseline and Accumulate shard the *key range* by ownership
//     (owner-computes): core c applies every update whose key (or bin)
//     it owns, reading tuples from all source cores' bins in source
//     order. Because chunk order equals input order, each key sees its
//     updates in exactly the single-core sequence, so the shared
//     functional arrays are bitwise identical to a single-core run —
//     and writes from different cores land on disjoint slice elements,
//     so the fan-out is race-free.
//
// Determinism contract: per-core simulations are fully independent
// within a phase (no shared machine state), phases are separated by
// barriers (one runShards call each, giving cross-core bin handoff a
// happens-before edge), and per-core results are folded in core-index
// order — the same discipline as exp.RunCells. The goroutine schedule
// can therefore never change a single byte of the output.

import (
	"fmt"
	"runtime/debug"
	"sync"

	"cobra/internal/core"
	"cobra/internal/cpu"
	"cobra/internal/phi"
	"cobra/internal/stats"
)

// shardRange returns the half-open item range [lo, hi) that core c of
// n owns in an n-way shard of total items: lo = ceil(c·total/n).
func shardRange(c, n, total int) (lo, hi int) {
	return (c*total + n - 1) / n, ((c+1)*total + n - 1) / n
}

// gang is one run's machines: n per-core machines in allocation
// lockstep plus per-core views of one shared functional applier.
type gang struct {
	n     int
	machs []*Mach
	apps  []Applier // apps[0] is the primary (NewApplier) instance
}

// newGang builds the per-core machines and applier views. The applier
// allocates its regions on core 0; the other machines' allocators are
// then synced so every later gang allocation lands at the same base on
// every core (each core addresses an identical layout through its own
// private hierarchy). A gang of one needs no views, so appliers that
// cannot shard still run on one core.
func newGang(app *App, arch Arch) (*gang, error) {
	n := arch.Cores()
	g := &gang{n: n, machs: make([]*Mach, n), apps: make([]Applier, n)}
	for c := range g.machs {
		g.machs[c] = NewMach(arch)
	}
	g.apps[0] = app.NewApplier(g.machs[0])
	sh, ok := g.apps[0].(ShardApplier)
	if !ok && n > 1 {
		return nil, fmt.Errorf("sim: app %s applier (%T) does not support multi-core sharding", app.Name, g.apps[0])
	}
	for c := 1; c < n; c++ {
		g.machs[c].next = g.machs[0].next
		g.apps[c] = sh.Shard(g.machs[c])
	}
	return g, nil
}

// alloc reserves the same region on every core's machine (lockstep).
func (g *gang) alloc(bytes uint64) Region {
	r := g.machs[0].Alloc(bytes)
	for _, m := range g.machs[1:] {
		m.Alloc(bytes)
	}
	return r
}

// metrics returns one Metrics per core, labelled for this run.
func (g *gang) metrics(app *App, scheme Scheme, numBins int) []Metrics {
	mets := make([]Metrics, g.n)
	for c := range mets {
		mets[c] = Metrics{App: app.Name, Input: app.InputName, Scheme: scheme, NumBins: numBins}
	}
	return mets
}

// forEachChunk replays core c's contiguous chunk of the update stream,
// passing the global stream position alongside each update.
func (g *gang) forEachChunk(app *App, c int, fn func(i int, key uint32, val uint64, newGroup bool)) {
	lo, hi := shardRange(c, g.n, app.NumUpdates)
	i := 0
	app.ForEach(func(key uint32, val uint64, newGroup bool) {
		if i >= lo && i < hi {
			fn(i, key, val, newGroup)
		}
		i++
	})
}

// runShards runs f(c) for every core — the last on the calling
// goroutine, the others on their own — and joins deterministically:
// every shard finishes (or panics, captured as a per-core error) before
// runShards returns, and the lowest core index with an error wins — the
// exp.RunCells discipline. Each call is one phase barrier.
func runShards(n int, f func(c int) error) error {
	errs := make([]error, n)
	shard := func(c int) {
		defer func() {
			if r := recover(); r != nil {
				errs[c] = fmt.Errorf("sim: core %d panicked: %v\n%s", c, r, debug.Stack())
			}
		}()
		errs[c] = f(c)
	}
	var wg sync.WaitGroup
	for c := 0; c < n-1; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shard(c)
		}(c)
	}
	shard(n - 1)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// phaseStart is one core's clock, counters and memory activity at the
// start of a phase.
type phaseStart struct {
	cycles float64
	ctr    cpu.Counters
	mem    PhaseMem
}

func startPhase(mach *Mach) phaseStart {
	return phaseStart{cycles: mach.CPU.Cycles(), ctr: mach.CPU.Ctr, mem: memSnap(mach)}
}

// since returns the phase's cycles, counters and memory activity.
func (s phaseStart) since(mach *Mach) (float64, cpu.Counters, PhaseMem) {
	return mach.CPU.Cycles() - s.cycles, mach.CPU.Ctr.Sub(s.ctr), memSnap(mach).sub(s.mem)
}

// runInit is the Init phase PB-SW and COBRA both pay (Table I): each
// core streams its chunk counting tuples per bin into its private
// count array, then prefix-sums the bin counts.
func (g *gang) runInit(ro runObs, app *App, input, cnt Region, shift uint, numBins int, mets []Metrics) error {
	return runShards(g.n, func(c int) error {
		mach := g.machs[c]
		t := ro.corePhase(c, "init.wall")
		defer t.Stop()
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.ALU(2) // shift + address math
			addr := cnt.Addr(uint64(key>>shift) * 4)
			mach.B.Load(addr)
			mach.B.Store(addr)
		})
		for b := 0; b < numBins; b++ {
			mach.B.Load(cnt.Addr(uint64(b) * 4))
			mach.B.ALU(2)
			mach.B.Store(cnt.Addr(uint64(b) * 4))
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		mets[c].InitCycles = mach.CPU.Cycles()
		return nil
	})
}

// runAccumulate is the Accumulate phase of PB-SW, COBRA and PHI:
// owner-computes over the bin range. For each bin it owns, a core reads
// every source core's segment sequentially from that source's bin
// region (the per-thread bin arrays of parallel PB) and applies it in
// source order — which is input order, preserving per-key update
// sequence exactly. When regions is nil, each source's region is
// allocated here, sized to its tuples. The phase finishes every core's
// Metrics.
func (g *gang) runAccumulate(ro runObs, app *App, perSrc [][][]core.Tuple, regions []Region, mets []Metrics) error {
	tb := uint64(app.TupleBytes)
	numBins := len(perSrc[0])
	// prefix[s][b] is the position of bin b's first tuple in source s's
	// region; prefix[s][numBins] is the source's tuple total.
	prefix := make([][]int, len(perSrc))
	for s, bins := range perSrc {
		prefix[s] = make([]int, numBins+1)
		for b, seg := range bins {
			prefix[s][b+1] = prefix[s][b] + len(seg)
		}
	}
	if regions == nil {
		regions = make([]Region, g.n)
		for s := range regions {
			regions[s] = g.alloc(uint64(prefix[s][numBins]) * tb)
		}
	}
	return runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		start := startPhase(mach)
		lo, hi := shardRange(c, g.n, numBins)
		for b := lo; b < hi; b++ {
			for s := range perSrc {
				seg := perSrc[s][b]
				pos := prefix[s][b]
				// Per-(bin, source) loop prologue: offsets lookup + loop setup.
				mach.B.ALU(6)
				mach.B.Load(regions[s].Addr(uint64(pos) * tb))
				mach.B.Branch(pcBinLoop, len(seg) != 0)
				for _, tup := range seg {
					mach.B.Load(regions[s].Addr(uint64(pos) * tb))
					mach.B.Branch(pcBinLoop, true)
					mach.B.ALU(1 + app.ApplyALU)
					applier.Apply(tup.Key, tup.Val)
					pos++
				}
			}
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		met := &mets[c]
		met.AccumCycles, met.AccumCtr, met.AccumMem = start.since(mach)
		met.finish(mach)
		return nil
	})
}

// RunBaseline executes the unoptimized kernel: stream the input, apply
// each irregular update directly (Figure 3 left). It owner-computes
// over the key range: core c applies only the updates whose key it
// owns, streaming them from a dense core-local input queue (the
// pre-partitioned update queues of a parallel baseline).
func RunBaseline(app *App, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	ro := beginRunObs(SchemeBaseline, app, g.n)
	defer ro.end()
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	mets := g.metrics(app, SchemeBaseline, 0)
	err = runShards(g.n, func(c int) error {
		mach, applier := g.machs[c], g.apps[c]
		t := ro.corePhase(c, "accumulate.wall")
		defer t.Stop()
		lo, hi := shardRange(c, g.n, app.NumKeys)
		j := 0
		app.ForEach(func(key uint32, val uint64, newGroup bool) {
			if int(key) < lo || int(key) >= hi {
				return
			}
			mach.B.Load(input.Addr(uint64(j) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.ALU(1 + app.ApplyALU) // address math + apply work
			applier.Apply(key, val)
			j++
		})
		mach.B.Flush()
		mach.CPU.DrainMem()
		met := &mets[c]
		met.finish(mach)
		met.AccumCycles = met.Cycles // the whole run is "apply"
		met.AccumMem = memSnap(mach)
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// RunPBSW executes software propagation blocking with the given bin
// count (Algorithm 2): Init (exact bin sizing), Binning through
// cacheline-sized software C-Buffers flushed with non-temporal stores,
// then Accumulate over the materialized bins. Init and Binning stream
// per-core chunks into core-private bins; Accumulate owner-computes
// over the bin range.
func RunPBSW(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	ro := beginRunObs(SchemePBSW, app, g.n)
	defer ro.end()
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	// Power-of-two bin range, as in Algorithm 2's shift-based binning.
	shift, nb := stats.PowTwoBins(uint64(app.NumKeys), numBins)
	tuplesPL := 64 / app.TupleBytes
	cbufs := g.alloc(uint64(nb) * 64)  // coalescing buffers, one line each
	fills := g.alloc(uint64(nb) * 4)   // C-Buffer fill counters
	cursors := g.alloc(uint64(nb) * 4) // bin write cursors
	// Each source core's in-memory bins get their own region sized to
	// its stream chunk: tuples from different sources never share a line.
	regions := make([]Region, g.n)
	for s := range regions {
		lo, hi := shardRange(s, g.n, app.NumUpdates)
		regions[s] = g.alloc(uint64(hi-lo) * uint64(app.TupleBytes))
	}
	mets := g.metrics(app, SchemePBSW, nb)

	if err := g.runInit(ro, app, input, fills, shift, nb, mets); err != nil {
		return Metrics{}, err
	}

	// ---- Binning: per-core chunks into private bins ----
	perSrc := make([][][]core.Tuple, g.n)
	scratches := make([]*binScratch, g.n)
	defer func() {
		for _, s := range scratches {
			if s != nil {
				putBinScratch(s)
			}
		}
	}()
	err = runShards(g.n, func(c int) error {
		mach, region := g.machs[c], regions[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		start := startPhase(mach)
		scratch := getBinScratch(nb)
		scratches[c] = scratch
		bins := scratch.bins     // materialized software bins
		fill := scratch.fill     // tuples in each software C-Buffer
		binPos := scratch.binPos // write cursor into each memory bin
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			b := int(key >> shift)
			mach.B.ALU(2) // shift + C-Buffer address math
			// Read-modify-write the C-Buffer fill counter, store the tuple.
			cntAddr := fills.Addr(uint64(b) * 4)
			mach.B.Load(cntAddr)
			mach.B.Store(cbufs.Addr(uint64(b)*64 + uint64(fill[b])*uint64(app.TupleBytes)))
			mach.B.ALU(1)
			mach.B.Store(cntAddr)
			fill[b]++
			full := fill[b] == tuplesPL
			mach.B.Branch(pcCBufFull, !full)
			if full {
				// Bulk transfer: non-temporal stores of the C-Buffer's
				// tuples into the in-memory bin at this bin's cursor.
				posAddr := cursors.Addr(uint64(b) * 4)
				mach.B.Load(posAddr)
				for k := 0; k < tuplesPL; k++ {
					off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
					mach.B.StoreNT(region.Addr(off))
					mach.B.ALU(1)
				}
				binPos[b] += tuplesPL
				mach.B.ALU(1)
				mach.B.Store(posAddr)
				fill[b] = 0
			}
			bins[b] = append(bins[b], core.Tuple{Key: key, Val: val})
		})
		// Flush partial C-Buffers (software epilogue).
		for b := 0; b < nb; b++ {
			mach.B.Load(fills.Addr(uint64(b) * 4))
			mach.B.Branch(pcCBufFull, fill[b] == 0)
			for k := 0; k < fill[b]; k++ {
				off := uint64(binPos[b]+k) * uint64(app.TupleBytes)
				mach.B.StoreNT(region.Addr(off))
				mach.B.ALU(1)
			}
			binPos[b] += fill[b]
			fill[b] = 0
		}
		mach.B.Flush()
		mach.CPU.DrainMem()
		mets[c].BinCycles, mets[c].BinCtr, mets[c].BinMem = start.since(mach)
		perSrc[c] = bins
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	if err := g.runAccumulate(ro, app, perSrc, regions, mets); err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// config translates the options into the C-Buffer hierarchy's
// configuration for app's tuples.
func (opt CobraOpt) config(app *App) (core.Config, error) {
	cfg := core.DefaultConfig(app.TupleBytes)
	cfg.Coalesce = opt.Coalesce
	cfg.CtxSwitchQuantum = opt.CtxSwitchQuantum
	cfg.NoPartition = opt.NoPartition
	if opt.EvictBufL1L2 > 0 {
		cfg.EvictBufL1L2 = opt.EvictBufL1L2
	}
	if opt.ReserveL1 > 0 {
		cfg.ReserveL1 = opt.ReserveL1
	}
	if opt.ReserveL2 > 0 {
		cfg.ReserveL2 = opt.ReserveL2
	}
	if opt.ReserveLLC > 0 {
		cfg.ReserveLLC = opt.ReserveLLC
	}
	if opt.Coalesce {
		if !app.Commutative || app.Reduce == nil {
			return core.Config{}, fmt.Errorf("sim: COBRA-COMM is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
		}
		cfg.CoalesceFn = app.Reduce
	}
	return cfg, nil
}

// RunCOBRA executes the COBRA scheme: the Init counting pass (bin sizes
// are precomputed exactly as in PB, §V-E), bininit, a Binning phase of
// single binupdate instructions through the hardware C-Buffer
// hierarchy, binflush, then Accumulate over the hardware-materialized
// bins (one per LLC C-Buffer — the optimal large bin count). Each core
// owns a full C-Buffer hierarchy (the paper duplicates C-Buffers per
// core and assigns each core's LLC C-Buffers to its own NUCA banks),
// bins its stream chunk, then owner-computes the Accumulate over every
// core's bins.
func RunCOBRA(app *App, opt CobraOpt, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	cfg, err := opt.config(app)
	if err != nil {
		return Metrics{}, err
	}
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	machines := make([]*core.Machine, g.n)
	for c := range machines {
		machines[c] = core.NewMachine(g.machs[c].CPU, cfg)
		if err := machines[c].BinInit(uint64(app.NumKeys)); err != nil {
			return Metrics{}, err
		}
	}
	scheme := SchemeCOBRA
	if opt.Coalesce {
		scheme = SchemeComm
	}
	ro := beginRunObs(scheme, app, g.n)
	defer ro.end()
	// The count array is one slot per memory bin, so it is sized after
	// bininit fixed the LLC C-Buffer count (§V-E: offsets must exist
	// before Binning).
	numBins := machines[0].NumBins()
	cnt := g.alloc(uint64(numBins) * 4)
	mets := g.metrics(app, scheme, numBins)

	if err := g.runInit(ro, app, input, cnt, machines[0].BinShiftLLC(), numBins, mets); err != nil {
		return Metrics{}, err
	}

	// ---- Binning: one binupdate per tuple, per-core C-Buffers ----
	// This loop stays on the scalar CPU methods deliberately: the COBRA
	// eviction-FIFO model inside BinUpdate reads the live per-core clock
	// (queueing delays, context-switch quanta), so its micro-ops cannot
	// be deferred behind a batch (DESIGN §7). Cores stay independent
	// because each Machine is bound to its own cpu.Core.
	err = runShards(g.n, func(c int) error {
		mach, m := g.machs[c], machines[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		start := startPhase(mach)
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.CPU.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.CPU.Branch(pcInnerLoop, !newGroup)
			m.BinUpdate(key, val)
		})
		m.BinFlush()
		met := &mets[c]
		met.BinCycles, met.BinCtr, met.BinMem = start.since(mach)
		met.EvictStalls, _ = m.EvictionStalls()
		if met.BinCycles > 0 {
			met.EvictStallFrac = met.EvictStalls / met.BinCycles
		}
		met.CtxWasteBytes = m.St.CtxWasteBytes
		met.CtxSwitches = m.St.CtxSwitches
		met.CBufMissRate = m.St.CBufMissRate()
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	if opt.SkipAccum {
		for c := range mets {
			mets[c].finish(g.machs[c])
		}
		return MergeMetrics(mets), nil
	}
	perSrc := make([][][]core.Tuple, g.n)
	for s := range perSrc {
		perSrc[s] = machines[s].Bins
		if opt.MaxLLCBufs > 0 && opt.MaxLLCBufs < len(perSrc[s]) {
			perSrc[s] = regroupBins(perSrc[s], opt.MaxLLCBufs)
		}
	}
	if err := g.runAccumulate(ro, app, perSrc, nil, mets); err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// RunPHI models PHI for a commutative app (Figure 14): idealized
// zero-overhead hierarchical coalescing during Binning (traffic =
// stream reads + residue writes), then an Accumulate pass over the
// coalesced residue with PB-SW's (compromised) bin count. Each core
// runs one coalescing unit over its stream chunk (partial residues per
// core — cross-core updates to one key coalesce only at Accumulate,
// which is exact for the integer monoids PHI admits), then
// owner-computes Accumulate over every core's residue bins.
func RunPHI(app *App, numBins int, arch Arch) (Metrics, error) {
	if err := app.Validate(); err != nil {
		return Metrics{}, err
	}
	if !app.Commutative || app.Reduce == nil {
		return Metrics{}, fmt.Errorf("sim: PHI is inapplicable to %s (§III-B: updates must coalesce losslessly)", app.Name)
	}
	g, err := newGang(app, arch)
	if err != nil {
		return Metrics{}, err
	}
	ro := beginRunObs(SchemePHI, app, g.n)
	defer ro.end()
	input := g.alloc(uint64(app.NumUpdates) * uint64(app.StreamBytes))
	cfg := phi.DefaultConfig(app.TupleBytes, numBins)
	cfg.Reduce = app.Reduce
	models := make([]*phi.Model, g.n)
	for c := range models {
		models[c] = phi.New(cfg, uint64(app.NumKeys))
	}
	mets := g.metrics(app, SchemePHI, models[0].NumBins())

	// ---- Binning: stream the input (real cache traffic); coalescing
	// and residue writes are idealized per the paper's PHI methodology.
	err = runShards(g.n, func(c int) error {
		mach, model := g.machs[c], models[c]
		t := ro.corePhase(c, "binning.wall")
		defer t.Stop()
		start := startPhase(mach)
		g.forEachChunk(app, c, func(i int, key uint32, val uint64, newGroup bool) {
			mach.B.Load(input.Addr(uint64(i) * uint64(app.StreamBytes)))
			mach.B.Branch(pcInnerLoop, !newGroup)
			mach.B.BinUpdate()     // PHI also uses a single update instruction
			model.Update(key, val) // pure functional model: no machine state read
		})
		mach.B.Flush()
		model.Flush()
		mach.H.WriteLineDirect((model.St.MemBytes + 63) / 64)
		mach.CPU.DrainMem()
		mets[c].BinCycles, _, mets[c].BinMem = start.since(mach)
		return nil
	})
	if err != nil {
		return Metrics{}, err
	}

	perSrc := make([][][]core.Tuple, g.n)
	for s := range perSrc {
		perSrc[s] = models[s].Bins
	}
	if err := g.runAccumulate(ro, app, perSrc, nil, mets); err != nil {
		return Metrics{}, err
	}
	return MergeMetrics(mets), nil
}

// Run executes one scheme at a fixed bin count: numBins sizes PB-SW's
// software bins and PHI's Accumulate bins, and the other schemes
// ignore it. PB-SW-IDEAL is a composition of two runs (IdealPB), not a
// run of its own.
func Run(app *App, scheme Scheme, numBins int, arch Arch) (Metrics, error) {
	switch scheme {
	case SchemeBaseline:
		return RunBaseline(app, arch)
	case SchemePBSW:
		return RunPBSW(app, numBins, arch)
	case SchemeCOBRA:
		return RunCOBRA(app, CobraOpt{}, arch)
	case SchemeComm:
		return RunCOBRA(app, CobraOpt{Coalesce: true}, arch)
	case SchemePHI:
		return RunPHI(app, numBins, arch)
	default:
		return Metrics{}, fmt.Errorf("sim: scheme %q has no fixed-bin runner", scheme)
	}
}
