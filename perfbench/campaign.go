package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// campaign-s14: exp.Fig10 at scale 14 on one worker, the figure users
// regenerate most. Its working sets fit the LLC slice, so the op buffer
// and the L1/L2 hit path dominate, and the PB-SW bin sweep takes most
// of its time. It never shards and never runs phi, stream or srv.
var campaignScale = 14 // a variable only so tests can shrink it

// setupTimes is the CPU seconds of one set-up: input generation, app
// build, and (for service-mix) server start. CPU time, like cpu_s, so
// that hypervisor steal stays out of the bounded setup_s.
type setupTimes struct{ input, build, server float64 }

func (s setupTimes) total() float64 { return s.input + s.build + s.server }

// setupSuite drops every exp memo (so the pass after it simulates every
// cell instead of replaying runSuite's memo), generates the suite's
// memoized inputs, and builds its apps: what a fresh Fig10 pays before
// its first cell.
func setupSuite(r *runner) (setupTimes, error) {
	exp.ResetMemos()
	var st setupTimes
	t0 := now()
	seen := map[string]bool{}
	for _, p := range exp.DefaultSuite() {
		kind := ""
		switch {
		case slices.Contains(exp.GraphApps(), p.App):
			kind = "Graph"
		case slices.Contains(exp.MatrixApps(), p.App):
			kind = "Matrix"
		}
		if kind == "" || seen[kind+p.Input] {
			continue
		}
		seen[kind+p.Input] = true
		err := r.tr.call("exp.Cached"+kind+"Input "+p.Input, 0, func() error {
			var err error
			if kind == "Graph" {
				_, err = exp.CachedGraphInput(p.Input, campaignScale, r.seed)
			} else {
				_, err = exp.CachedMatrixInput(p.Input, campaignScale, r.seed)
			}
			return err
		})
		if err != nil {
			return st, err
		}
	}
	_, st.input = t0.since()
	t1 := now()
	for _, p := range exp.DefaultSuite() {
		err := r.tr.call("exp.BuildApp "+p.App+"/"+p.Input, 0, func() error {
			_, err := exp.BuildApp(p.App, p.Input, campaignScale, r.seed)
			return err
		})
		if err != nil {
			return st, err
		}
	}
	_, st.build = t1.since()
	return st, nil
}

// campaignPass is one timed exp.Fig10 and what it produced.
type campaignPass struct {
	wall, cpu float64
	table     string
	cells     map[string]sim.Metrics // by cellName
	journaled int                    // cells the journal holds
	latencyMS []float64              // per cell, from the cell_done events
	instr     uint64
}

// fig10 runs one timed Fig10. The journal and event log it attaches are
// the campaign's own observation hooks: the journal records every
// cell's metrics and the events carry each cell's latency. The journal
// encodes and fsyncs each cell, as `figures -checkpoint` does; that
// cost is part of the timed pass.
func fig10(r *runner, profile bool) (*campaignPass, error) {
	ckpt := filepath.Join(r.dir, "campaign.ckpt")
	j, err := exp.OpenJournal(ckpt, false)
	if err != nil {
		return nil, err
	}
	var events bytes.Buffer
	ev := obsv.NewEventLog(&events)
	o := exp.Opts{Scale: campaignScale, Seed: r.seed, Arch: sim.DefaultArch(), Parallel: 1, Journal: j, Events: ev}

	var t *exp.Table
	id := r.tr.begin("exp.Fig10", 0, "")
	wall, cpu, err := r.section(profile, func() (err error) {
		t, err = exp.Fig10(o)
		return err
	})
	r.tr.end(id)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if cerr := ev.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	p := &campaignPass{wall: wall, cpu: cpu}
	var tb strings.Builder
	t.Fprint(&tb)
	p.table = tb.String()
	if p.cells, p.journaled, err = journalCells(ckpt, r.seed); err != nil {
		return nil, err
	}
	for _, m := range p.cells {
		p.instr += m.Ctr.Instructions
	}
	sc := bufio.NewScanner(&events)
	for sc.Scan() {
		var e struct {
			Name   string    `json:"ev"`
			Time   time.Time `json:"ts"`
			Fields struct {
				App, Input, Scheme string
				Bins               int
				MS                 float64
			} `json:"f"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("reading campaign events: %w", err)
		}
		if e.Name != "cell_done" {
			continue
		}
		f := e.Fields
		p.latencyMS = append(p.latencyMS, f.MS)
		start := e.Time.Add(-time.Duration(f.MS * float64(time.Millisecond)))
		r.tr.add("cell "+cellName(f.App, f.Input, f.Scheme, f.Bins), id, "", start, e.Time)
	}
	return p, nil
}

// cellName identifies a simulated cell within one workload and seed.
func cellName(app, input, scheme string, bins int) string {
	return fmt.Sprintf("%s/%s/%s/%d", app, input, scheme, bins)
}

// journalCells reopens a pass's checkpoint journal and looks up every
// cell Fig10 can record (the suite's Baseline, COBRA and PB-SW at each
// exp.BinSweep count), keyed by cellName. It also returns how many
// cells the journal holds, so a cell outside that set shows.
func journalCells(path string, seed uint64) (map[string]sim.Metrics, int, error) {
	j, err := exp.OpenJournal(path, true)
	if err != nil {
		return nil, 0, err
	}
	arch := sim.DefaultArch()
	key := exp.CellKey{Figure: "suite", Scale: campaignScale, Seed: seed, Cores: arch.Cores(), Arch: exp.ArchFingerprint(arch)}
	cells := map[string]sim.Metrics{}
	lookup := func(scheme sim.Scheme, bins int) {
		key.Scheme, key.Bins = string(scheme), bins
		if m, ok := j.Lookup(key); ok {
			cells[cellName(key.App, key.Input, key.Scheme, bins)] = m
		}
	}
	for _, p := range exp.DefaultSuite() {
		key.App, key.Input = p.App, p.Input
		lookup(sim.SchemeBaseline, 0)
		lookup(sim.SchemeCOBRA, 0)
		for _, b := range exp.BinSweep {
			lookup(sim.SchemePBSW, b)
		}
	}
	n := j.Len()
	return cells, n, j.Close()
}

func runCampaign(r *runner) error {
	chk, err := newCellChecker("campaign-s14", r.seed)
	if err != nil {
		return err
	}
	var firstTable string
	// checkPass counts the pass's cells and its rendered figure; the
	// figure must match the first pass byte for byte.
	checkPass := func(p *campaignPass) {
		chk.checkPass(r, p.cells)
		if firstTable == "" {
			firstTable = p.table
		}
		r.check(p.table == firstTable, "Fig10 table differs from the run's first pass")
		r.check(len(p.latencyMS) == p.journaled && len(p.cells) == p.journaled,
			"%d cell_done events, %d journaled cells, %d looked up", len(p.latencyMS), p.journaled, len(p.cells))
	}
	setup := func() (setupTimes, error) {
		st, err := setupSuite(r)
		// Every pass must redo the input work, or the memo replayed it.
		r.check(err != nil || exp.InputBuilds() > 0, "set-up generated no inputs")
		return st, err
	}

	if !r.traced {
		var e2e endToEndSamples
		err := r.passes(func() (float64, error) {
			st, err := setup()
			if err != nil {
				return 0, err
			}
			p, err := fig10(r, false)
			if err != nil {
				return 0, err
			}
			checkPass(p)
			e2e.add(st.total(), p.wall, p.cpu, p.instr, p.latencyMS)
			return p.wall, nil
		})
		if err != nil {
			return err
		}
		e2e.report(r)
		return nil
	}

	// Traced: an untraced pass, the same pass under the CPU profile,
	// then each scheme's cells again through exp.RunScheme and
	// exp.BestPBSWN, timed per scheme.
	var setups []setupTimes
	var passes []*campaignPass
	for i := 0; i < 2; i++ {
		st, err := setup()
		if err != nil {
			return err
		}
		setups = append(setups, st)
		p, err := fig10(r, i == 1)
		if err != nil {
			return err
		}
		checkPass(p)
		passes = append(passes, p)
	}
	untraced, tracedPass := passes[0], passes[1]
	var e2e endToEndSamples
	e2e.add(setups[0].total(), untraced.wall, untraced.cpu, untraced.instr, untraced.latencyMS)
	e2e.report(r)
	var mc model
	for _, m := range tracedPass.cells {
		mc.add(m)
	}
	byScheme, err := probeSchemes(r, tracedPass.cells)
	if err != nil {
		return err
	}
	reportTraced(r, setups, untraced.cpu, untraced.wall, tracedPass.wall, mc)
	r.metrics["sim.baseline_s"] = byScheme[string(sim.SchemeBaseline)]
	r.metrics["sim.pbsw_s"] = byScheme[string(sim.SchemePBSW)]
	r.metrics["sim.cobra_s"] = byScheme[string(sim.SchemeCOBRA)]
	r.metrics["sim.phi_s"] = 0 // Fig10 has no PHI cells
	return nil
}

// probeSchemes reruns the campaign's cells one scheme at a time through
// the exp entry points a single run uses, timing each scheme's CPU, and
// checks that every result equals the campaign's cell.
func probeSchemes(r *runner, cells map[string]sim.Metrics) (map[string]float64, error) {
	arch := sim.DefaultArch()
	cpuBy := map[string]float64{}
	same := func(name string, m sim.Metrics) {
		want, ok := cells[name]
		a, _ := digest(m)
		b, _ := digest(want)
		r.check(ok && a == b, "probe cell %s differs from the campaign's", name)
	}
	for _, p := range exp.DefaultSuite() {
		app, err := exp.BuildApp(p.App, p.Input, campaignScale, r.seed)
		if err != nil {
			return nil, err
		}
		for _, s := range []sim.Scheme{sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA} {
			id := r.tr.begin("probe "+string(s)+" "+p.App+"/"+p.Input, 0, "")
			c := now()
			if s == sim.SchemePBSW {
				_, sweep, err := exp.BestPBSWN(app, arch, 1)
				if err != nil {
					return nil, err
				}
				_, cpuS := c.since()
				cpuBy[string(s)] += cpuS
				for _, m := range sweep {
					same(cellName(p.App, p.Input, string(s), m.NumBins), m)
				}
			} else {
				m, err := exp.RunScheme(app, s, 0, arch)
				if err != nil {
					return nil, err
				}
				_, cpuS := c.since()
				cpuBy[string(s)] += cpuS
				same(cellName(p.App, p.Input, string(s), 0), m)
			}
			r.tr.end(id)
		}
	}
	return cpuBy, nil
}
