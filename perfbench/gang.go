package main

import (
	"fmt"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

// gang16-s18: DegreeCount on KRON at scale 18 on 16 simulated cores,
// one cell per scheme. Its 2^18 keys and 4M updates overflow the LLC
// slice, so the miss, DRAM and prefetcher paths dominate; it is the
// only workload that shards cells, merges per-core metrics, and runs
// phi. It has no bin sweep.
// gangScale is a variable only so tests can shrink it.
var gangScale = 18

const (
	gangCores = 16
	gangBins  = 4096
	gangApp   = "DegreeCount"
	gangInput = "KRON"
)

// gangCells are the pass's cells in run order; bins 0 means the scheme
// takes none.
var gangCells = []struct {
	scheme sim.Scheme
	bins   int
}{
	{sim.SchemeBaseline, 0},
	{sim.SchemePBSW, gangBins},
	{sim.SchemeCOBRA, 0},
	{sim.SchemePHI, gangBins},
}

func setupGang(r *runner) (*sim.App, setupTimes, error) {
	exp.ResetMemos()
	var st setupTimes
	t0 := now()
	err := r.tr.call("exp.CachedGraphInput "+gangInput, 0, func() error {
		_, err := exp.CachedGraphInput(gangInput, gangScale, r.seed)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	_, st.input = t0.since()
	t1 := now()
	var app *sim.App
	err = r.tr.call("exp.BuildApp "+gangApp+"/"+gangInput, 0, func() error {
		app, err = exp.BuildApp(gangApp, gangInput, gangScale, r.seed)
		return err
	})
	_, st.build = t1.since()
	return app, st, err
}

// gangPass is one timed pass over gangCells.
type gangPass struct {
	wall, cpu float64
	cells     map[string]sim.Metrics
	latencyMS []float64
	cpuBy     map[sim.Scheme]float64
	instr     uint64
}

// runGangPass runs every cell at the given core count through
// exp.RunScheme, timing each.
func runGangPass(r *runner, app *sim.App, cores int, profile bool) (*gangPass, error) {
	arch := sim.DefaultArch().WithCores(cores)
	p := &gangPass{cells: map[string]sim.Metrics{}, cpuBy: map[sim.Scheme]float64{}}
	var err error
	p.wall, p.cpu, err = r.section(profile, func() error {
		for _, c := range gangCells {
			if err := p.run(r, app, c.scheme, c.bins, arch); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// run times one cell through exp.RunScheme.
func (p *gangPass) run(r *runner, app *sim.App, scheme sim.Scheme, bins int, arch sim.Arch) error {
	id := r.tr.begin(fmt.Sprintf("exp.RunScheme %s cores=%d", scheme, arch.Cores()), 0, "")
	t := now()
	m, err := exp.RunScheme(app, scheme, bins, arch)
	wall, cpu := t.since()
	r.tr.end(id)
	if err != nil {
		return err
	}
	if m.Cores != arch.Cores() {
		return fmt.Errorf("%s cell reports %d cores, want %d", scheme, m.Cores, arch.Cores())
	}
	p.cells[cellName(gangApp, gangInput, string(scheme), bins)] = m
	p.latencyMS = append(p.latencyMS, wall*1000)
	p.cpuBy[scheme] += cpu
	p.instr += m.Ctr.Instructions
	return nil
}

func runGang(r *runner) error {
	chk, err := newCellChecker("gang16-s18", r.seed)
	if err != nil {
		return err
	}
	if !r.traced {
		var e2e endToEndSamples
		err := r.passes(func() (float64, error) {
			app, st, err := setupGang(r)
			if err != nil {
				return 0, err
			}
			p, err := runGangPass(r, app, gangCores, false)
			if err != nil {
				return 0, err
			}
			chk.checkPass(r, p.cells)
			e2e.add(st.total(), p.wall, p.cpu, p.instr, p.latencyMS)
			return p.wall, nil
		})
		if err != nil {
			return err
		}
		e2e.report(r)
		return nil
	}

	// Traced: an untraced pass (also the per-scheme times), the same
	// pass under the CPU profile, then the same cells on one core for
	// the sharding cost ratio.
	var setups []setupTimes
	var passes []*gangPass
	var app *sim.App
	for i := 0; i < 2; i++ {
		var st setupTimes
		if app, st, err = setupGang(r); err != nil {
			return err
		}
		setups = append(setups, st)
		p, err := runGangPass(r, app, gangCores, i == 1)
		if err != nil {
			return err
		}
		chk.checkPass(r, p.cells)
		passes = append(passes, p)
	}
	untraced, traced := passes[0], passes[1]
	var e2e endToEndSamples
	e2e.add(setups[0].total(), untraced.wall, untraced.cpu, untraced.instr, untraced.latencyMS)
	e2e.report(r)
	one, err := runGangPass(r, app, 1, false)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(one.cells) {
		m := one.cells[k]
		r.check(m.Cycles > 0 && m.Ctr.Instructions > 0, "1-core cell %s simulated no work", k)
	}
	var mc model
	for _, m := range traced.cells {
		mc.add(m)
	}
	reportTraced(r, setups, untraced.cpu, untraced.wall, traced.wall, mc)
	r.metrics["sim.baseline_s"] = untraced.cpuBy[sim.SchemeBaseline]
	r.metrics["sim.pbsw_s"] = untraced.cpuBy[sim.SchemePBSW]
	r.metrics["sim.cobra_s"] = untraced.cpuBy[sim.SchemeCOBRA]
	r.metrics["sim.phi_s"] = untraced.cpuBy[sim.SchemePHI]
	r.metrics["sim.gang_cpu_ratio"] = untraced.cpu / one.cpu
	return nil
}
