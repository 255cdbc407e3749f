package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// function (or a phase reconstructed from the layer's own timestamps,
// such as a campaign cell or a service job's queue wait). Times are ms
// since the run started; Parent 0 marks a root; spans of one service
// request share Req.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps a run's spans in memory until the run record is written.
// A nil tracer records nothing: untraced runs pay one nil check a call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e6 }

// add records a span with known bounds and returns its id.
func (t *tracer) add(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t.ms(start), End: t.ms(end)})
	return id
}

// begin opens a span that end closes.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	n := time.Now()
	return t.add(name, parent, req, n, n)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	n := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = t.ms(n)
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name string, parent int, f func() error) error {
	id := t.begin(name, parent, "")
	err := f()
	t.end(id)
	return err
}

// runtimeNames are the runtime/metrics behind runtime.alloc_mb,
// runtime.gc_cycles and runtime.gc_cpu_s.
var runtimeNames = [3]string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() [3]float64 {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// profiled is one traced section: a CPU profile plus runtime/metrics
// and clock readings around it.
type profiled struct {
	prof  bytes.Buffer
	rt    [3]float64
	start clock
}

func startProfiled() (*profiled, error) {
	p := &profiled{rt: readRuntime()}
	if err := pprof.StartCPUProfile(&p.prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	p.start = now()
	return p, nil
}

// stop ends the section and reports into out: trace.cpu_s, the
// layer.*.self_s split of it, and the runtime.* deltas. Each layer gets
// the section's getrusage CPU time in proportion to its profile
// samples, so the layers sum to trace.cpu_s exactly.
func (p *profiled) stop(out map[string]float64) (wall, cpu float64, err error) {
	wall, cpu = p.start.since()
	pprof.StopCPUProfile()
	rt := readRuntime()
	byLayer, err := layerProfile(p.prof.Bytes())
	if err != nil {
		return 0, 0, err
	}
	var total int64
	for _, v := range byLayer {
		total += v
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("CPU profile of the traced section holds no samples")
	}
	for _, l := range layers {
		out["layer."+l+".self_s"] = cpu * float64(byLayer[l]) / float64(total)
	}
	out["trace.cpu_s"] = cpu
	out["runtime.alloc_mb"] = (rt[0] - p.rt[0]) / (1 << 20)
	out["runtime.gc_cycles"] = rt[1] - p.rt[1]
	out["runtime.gc_cpu_s"] = rt[2] - p.rt[2]
	return wall, cpu, nil
}

// section times f on both clocks. With profile set, f runs under the
// CPU profile and the per-layer split lands in r.metrics.
func (r *runner) section(profile bool, f func() error) (wall, cpu float64, err error) {
	if !profile {
		c := now()
		err = f()
		wall, cpu = c.since()
		return wall, cpu, err
	}
	p, err := startProfiled()
	if err != nil {
		return 0, 0, err
	}
	ferr := f()
	wall, cpu, err = p.stop(r.metrics)
	if ferr != nil {
		err = ferr
	}
	return wall, cpu, err
}
