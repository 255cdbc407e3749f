package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/client"
	"cobra/internal/exp"
	"cobra/internal/sim"
	"cobra/internal/srv"
	"cobra/internal/stream"
)

// service-mix: an in-process srv.Server (one job worker, result cache
// journaled to a fresh file) behind a loopback HTTP listener, driven by
// closed-loop clients. The only workload that exercises srv, its
// journal-backed cache, and the stream engine; the same runners appear
// as short jobs, where HTTP, JSON and queueing show. Each round replays
// the seed's request sequence against a fresh server (fresh cache
// journal, fresh exp memos), so every round does the same work and one
// set of direct results checks every round.
//
// serviceScale is a variable only so tests can shrink it.
var serviceScale = 13

const (
	serviceBins = 256
	// serviceClients is one closed-loop client per host CPU of the
	// two-vCPU box the bounds were measured on.
	serviceClients = 2
	// serviceCopies is how many input seeds each suite pair gets per
	// round; a pair's offline schemes share one input.
	serviceCopies = 2
	// repeatGap keeps a repeat at least this many requests after the
	// spec it repeats, so with two clients and one job worker the first
	// answer is cached by then: repeats measure hits, not single-flight
	// waits.
	repeatGap = 4
	// serverStarts is how many servers each round starts, serving from
	// the last; the round's set-up time is their median. One start takes
	// about a millisecond of CPU, too little to time once.
	serverStarts = 50
	// pollFloor and pollCeiling pace the status polls of a streamed job
	// as the fleet coordinator's client does (`figures -fleet`): the
	// first poll after 5 ms, each next delay doubled, up to 200 ms.
	pollFloor   = 5 * time.Millisecond
	pollCeiling = 200 * time.Millisecond
)

// request is one request of the service-mix sequence.
type request struct {
	ID     string
	Spec   exp.RunSpec
	Key    int  // index of the distinct spec; a repeat shares its original's
	Repeat bool // a repeat of an earlier request
}

func (q request) stream() bool { return q.Spec.Kind == exp.KindStream }

// serviceSequence derives one round's requests from the seed: every
// suite pair at serviceCopies input seeds through Baseline, PB-SW,
// COBRA and (where its updates commute) PHI as /v1/run cells; both
// stream workloads over URND and SKEW through the four streamable
// schemes as /v1/stream jobs; all shuffled, then one repeat of an
// earlier spec for every three distinct specs, so a quarter of the
// requests repeat. The mix of kinds is the same at every seed; the seed
// picks the inputs, the order and which specs repeat.
func serviceSequence(seed uint64) ([]request, int, error) {
	rng := rand.New(rand.NewPCG(seed, 0x636f627261))
	ids := func(ss ...sim.Scheme) []sim.SchemeID {
		var out []sim.SchemeID
		for _, s := range ss {
			id, err := sim.ParseSchemeID(string(s))
			if err != nil {
				panic(err) // the canonical names always parse
			}
			out = append(out, id)
		}
		return out
	}
	offline := ids(sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA)
	all := ids(sim.SchemeBaseline, sim.SchemePBSW, sim.SchemeCOBRA, sim.SchemePHI)

	// PHI runs only where the pair's updates commute (sim.RunPHI's
	// precondition); a minimum-scale build tells.
	suite := exp.DefaultSuite()
	pairSchemes := make([][]sim.SchemeID, len(suite))
	for i, p := range suite {
		app, err := exp.BuildApp(p.App, p.Input, exp.MinScale, 1)
		if err != nil {
			return nil, 0, err
		}
		pairSchemes[i] = offline
		if app.Commutative && app.Reduce != nil {
			pairSchemes[i] = all
		}
	}
	var distinct []exp.RunSpec
	for c := 0; c < serviceCopies; c++ {
		for i, p := range suite {
			seed := rng.Uint64() >> 16
			for _, id := range pairSchemes[i] {
				distinct = append(distinct, exp.RunSpec{App: p.App, Input: p.Input, Scale: serviceScale,
					Seed: seed, Schemes: []sim.SchemeID{id}, Bins: serviceBins})
			}
		}
	}
	for _, app := range exp.StreamApps() {
		for _, in := range []string{"URND", "SKEW"} {
			seed := rng.Uint64() >> 16
			for _, id := range all {
				distinct = append(distinct, exp.RunSpec{App: app, Input: in, Scale: serviceScale,
					Seed: seed, Schemes: []sim.SchemeID{id}, Bins: serviceBins, Kind: exp.KindStream})
			}
		}
	}
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })

	repeats := len(distinct) / 3
	total := len(distinct) + repeats
	slot := make([]bool, total)
	for _, i := range rng.Perm(total - 2*repeatGap)[:repeats] {
		slot[i+2*repeatGap] = true
	}
	seq := make([]request, 0, total)
	var firstAt []int // position of each distinct spec's first request
	for pos := 0; pos < total; pos++ {
		q := request{ID: fmt.Sprintf("q%03d", pos)}
		if slot[pos] {
			n := 0
			for n < len(firstAt) && firstAt[n] <= pos-repeatGap {
				n++
			}
			q.Key, q.Repeat = rng.IntN(n), true
		} else {
			q.Key = len(firstAt)
			firstAt = append(firstAt, pos)
		}
		q.Spec = distinct[q.Key]
		seq = append(seq, q)
	}
	return seq, len(distinct), nil
}

// jobView is the part of srv.JobView the benchmark reads. The answer
// (results and windows) stays raw, so repeats compare byte for byte.
type jobView struct {
	ID          string          `json:"id"`
	State       srv.JobState    `json:"state"`
	Error       string          `json:"error"`
	Results     json.RawMessage `json:"results"`
	Windows     json.RawMessage `json:"windows"`
	CacheHits   int             `json:"cache_hits"`
	CacheMisses int             `json:"cache_misses"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
}

// reply is what a client observed for one request.
type reply struct {
	err        error
	start, end time.Time
	view       jobView
}

func (p reply) latencyMS() float64 { return float64(p.end.Sub(p.start).Nanoseconds()) / 1e6 }

// round is one replay of the sequence against a fresh server.
type round struct {
	setup     setupTimes
	wall, cpu float64
	seq       []request
	replies   []reply
}

// loopClient is one closed-loop client of the loopback server. It
// sends /v1/run and /v1/stream itself, so it keeps each answer's raw
// bytes, and waits on streamed jobs through the repository's client.
type loopClient struct {
	base string
	hc   *http.Client
	api  *client.Client
}

// call sends one request and decodes a 2xx JobView body; any other
// status is an error.
func (c *loopClient) call(method, path string, body []byte, want int) (jobView, error) {
	var v jobView
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return v, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != want {
		return v, fmt.Errorf("%s %s: HTTP %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return v, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return v, nil
}

// do runs one request to its answer: POST /v1/run (200), or POST
// /v1/stream (202) then client.Wait's paced GET /v1/jobs/{id} polls
// until the job settles.
func (c *loopClient) do(q request) reply {
	body, err := json.Marshal(srv.JobSpec{RunSpec: q.Spec})
	if err != nil {
		return reply{err: err}
	}
	p := reply{start: time.Now()}
	if !q.stream() {
		p.view, p.err = c.call(http.MethodPost, "/v1/run", body, http.StatusOK)
	} else {
		p.view, p.err = c.call(http.MethodPost, "/v1/stream", body, http.StatusAccepted)
		if p.err == nil {
			var v srv.JobView
			if v, p.err = c.api.Wait(context.Background(), p.view.ID); p.err == nil {
				p.view, p.err = viewOf(v)
			}
		}
	}
	p.end = time.Now()
	return p
}

// viewOf re-encodes a decoded srv.JobView as the benchmark's jobView.
func viewOf(v srv.JobView) (jobView, error) {
	var out jobView
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, &out)
	}
	return out, err
}

// serveRound starts fresh servers (the set-up it times), replays seq
// through serviceClients closed-loop clients as the timed section, and
// shuts the server down.
func serveRound(r *runner, n int, seq []request, profile bool) (rd *round, err error) {
	rd = &round{seq: seq}
	exp.ResetMemos()

	// Start serverStarts servers and serve from the last. Only the
	// starts are timed; the stops of the others are not.
	var sv *server
	var starts []float64
	for i := 0; i < serverStarts; i++ {
		if sv != nil {
			if err := sv.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("round%d-start%d", n, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := now()
		startID := r.tr.begin("srv start", 0, "")
		sv, err = startServer(dir)
		r.tr.end(startID)
		_, cpu := t.since()
		if err != nil {
			return nil, err
		}
		starts = append(starts, cpu)
	}
	defer func() {
		if serr := sv.stop(); err == nil {
			err = serr
		}
	}()
	rd.setup.server = median(starts)
	c := sv.client

	rd.replies = make([]reply, len(seq))
	rd.wall, rd.cpu, err = r.section(profile, func() error {
		var next atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < serviceClients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(seq) {
						return
					}
					rd.replies[k] = c.do(seq[k])
				}
			}()
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range rd.replies {
		q := seq[i]
		name := "POST /v1/run"
		if q.stream() {
			name = "POST /v1/stream"
		}
		id := r.tr.add(name, 0, q.ID, p.start, p.end)
		if v := p.view; !v.StartedAt.IsZero() {
			r.tr.add("srv queue", id, q.ID, v.SubmittedAt, v.StartedAt)
			r.tr.add("srv run", id, q.ID, v.StartedAt, v.FinishedAt)
		}
	}
	return rd, nil
}

// server is a srv.Server behind a loopback HTTP listener, as cobrad
// runs it, with its result cache journaled under a fresh directory.
type server struct {
	srv       *srv.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *loopClient
}

// startServer starts a server, journaling its result cache under dir,
// and waits until it reports ready.
func startServer(dir string) (*server, error) {
	s, err := srv.New(srv.Config{Workers: 1, CachePath: filepath.Join(dir, "cache.jsonl")})
	if err != nil {
		return nil, err
	}
	s.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Drain(context.Background())
		return nil, err
	}
	sv := &server{srv: s, hs: &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1), transport: &http.Transport{MaxIdleConnsPerHost: serviceClients}}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	hc := &http.Client{Transport: sv.transport, Timeout: time.Minute}
	sv.client = &loopClient{base: base, hc: hc, api: client.New(base, client.Options{HTTP: hc,
		PollFloor: pollFloor, PollInterval: pollCeiling, MaxRetries: -1, BreakerThreshold: -1, Resubmits: -1})}
	for i := 0; i < 1000; i++ {
		resp, err := sv.client.hc.Get(sv.client.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return nil, errors.Join(errors.New("service never became ready"), sv.stop())
}

// stop drains the service (flushing its journal), shuts the listener
// down, and waits for the serving goroutine to exit.
func (sv *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := sv.srv.Drain(ctx)
	serr := sv.hs.Shutdown(ctx)
	if err := <-sv.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	sv.transport.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// answer is one spec's result as the service should return it.
type answer struct {
	results, windows []sim.Metrics
	cpu              float64 // host CPU seconds of the direct run
}

// directAnswers computes every distinct spec's answer without the
// service: exp.BuildApp plus exp.RunScheme for /v1/run cells, the
// stream engine for /v1/stream jobs. Outside every timed section.
func directAnswers(seq []request, distinct, workers int) ([]answer, error) {
	specs := make([]exp.RunSpec, distinct)
	for _, q := range seq {
		specs[q.Key] = q.Spec
	}
	exp.ResetMemos()
	return exp.MapCells(workers, distinct, func(i int) (answer, error) {
		spec := specs[i]
		c := now()
		var a answer
		if spec.Kind == exp.KindStream {
			if err := spec.Normalize(exp.Limits{}); err != nil {
				return a, err
			}
			w, err := spec.StreamWorkload()
			if err != nil {
				return a, err
			}
			res, err := stream.Run(w, stream.Config{Scheme: spec.Schemes[0].Scheme(), Bins: spec.Bins, Arch: spec.Arch(sim.DefaultArch())})
			if err != nil {
				return a, err
			}
			a.results, a.windows = []sim.Metrics{res.Merged}, res.PerWindow
		} else {
			app, err := exp.BuildApp(spec.App, spec.Input, spec.Scale, spec.Seed)
			if err != nil {
				return a, err
			}
			m, err := exp.RunScheme(app, spec.Schemes[0].Scheme(), spec.Bins, spec.Arch(sim.DefaultArch()))
			if err != nil {
				return a, err
			}
			a.results = []sim.Metrics{m}
		}
		_, a.cpu = c.since()
		return a, nil
	})
}

// specName identifies one distinct spec of a seed's sequence, in
// refs.json and in the run record.
func specName(s exp.RunSpec) string {
	kind := "run"
	if s.Kind == exp.KindStream {
		kind = "stream"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%d/seed%d", kind, s.App, s.Input, s.Schemes[0].Scheme(), s.Bins, s.Seed)
}

// digest fingerprints an answer's results and windows.
func (a answer) digest() (string, error) {
	return digest(struct{ Results, Windows []sim.Metrics }{a.results, a.windows})
}

// checkReplies counts one operation per request. A request fails on a
// transport error, an unexpected status, a job that did not finish, an
// answer that is not byte-identical to the first answer for its spec in
// this run, one that differs from the direct result, or, where the seed
// has stored references, one whose digest differs from its reference.
func checkReplies(r *runner, seq []request, rounds []*round, want []answer, ref map[string]string) error {
	direct := make([]string, len(want))
	digests := map[string]string{}
	for _, q := range seq {
		if q.Repeat {
			continue
		}
		d, err := want[q.Key].digest()
		if err != nil {
			return err
		}
		direct[q.Key], digests[specName(q.Spec)] = d, d
	}
	r.notes["digests"] = digests
	r.notes["refs_checked"] = ref != nil

	first := map[int][]byte{}
	for _, rd := range rounds {
		for i, p := range rd.replies {
			q := rd.seq[i]
			if p.err != nil {
				r.check(false, "%s: %v", q.ID, p.err)
				continue
			}
			if p.view.State != srv.JobDone {
				r.check(false, "%s: job %s ended %s: %s", q.ID, p.view.ID, p.view.State, p.view.Error)
				continue
			}
			raw := append(append([]byte(nil), p.view.Results...), p.view.Windows...)
			if f, ok := first[q.Key]; !ok {
				first[q.Key] = raw
			} else if !bytes.Equal(f, raw) {
				r.check(false, "%s: answer differs from the first answer for its spec", q.ID)
				continue
			}
			var got answer
			err := json.Unmarshal(p.view.Results, &got.results)
			if err == nil && len(p.view.Windows) > 0 {
				err = json.Unmarshal(p.view.Windows, &got.windows)
			}
			var d string
			if err == nil {
				d, err = got.digest()
			}
			name := specName(q.Spec)
			switch {
			case err != nil:
				r.check(false, "%s: %v", q.ID, err)
			case d != direct[q.Key]:
				r.check(false, "%s: answer %s differs from the direct result %s", q.ID, d, direct[q.Key])
			default:
				r.check(ref == nil || d == ref[name], "%s: answer %s, reference %q for %s", q.ID, d, ref[name], name)
			}
		}
	}
	return nil
}

func runService(r *runner) error {
	ref, err := loadRefs("service-mix", r.seed)
	if err != nil {
		return err
	}
	seq, distinct, err := serviceSequence(r.seed)
	if err != nil {
		return err
	}
	var rounds []*round
	if !r.traced {
		if err := r.passes(func() (float64, error) {
			rd, err := serveRound(r, len(rounds), seq, false)
			if err != nil {
				return 0, err
			}
			rounds = append(rounds, rd)
			return rd.wall, nil
		}); err != nil {
			return err
		}
	} else {
		// Traced: an untraced round, then the same round under the CPU
		// profile; the direct results then give the per-scheme times.
		for i := 0; i < 2; i++ {
			rd, err := serveRound(r, i, seq, i == 1)
			if err != nil {
				return err
			}
			rounds = append(rounds, rd)
		}
	}
	workers := serviceClients
	if r.traced {
		workers = 1 // serial, so each direct cell's CPU time is its own
	}
	want, err := directAnswers(seq, distinct, workers)
	if err != nil {
		return fmt.Errorf("direct results: %w", err)
	}
	if err := checkReplies(r, seq, rounds, want, ref); err != nil {
		return err
	}
	var mc model
	for _, a := range want {
		mc.add(a.results[0])
	}

	timed := rounds
	if r.traced {
		timed = rounds[:1] // end-to-end samples come from untraced rounds only
	}
	var e2e endToEndSamples
	for _, rd := range timed {
		lat := make([]float64, len(rd.replies))
		for i, p := range rd.replies {
			lat[i] = p.latencyMS()
		}
		e2e.add(rd.setup.total(), rd.wall, rd.cpu, mc.instr, lat)
	}
	e2e.report(r)
	if !r.traced {
		return nil
	}

	untraced, traced := rounds[0], rounds[1]
	reportTraced(r, []setupTimes{untraced.setup, traced.setup}, untraced.cpu, untraced.wall, traced.wall, mc)
	cpuBy := map[sim.Scheme]float64{}
	var streamCPU float64
	for _, q := range traced.seq {
		if q.Repeat {
			continue
		}
		if q.stream() {
			streamCPU += want[q.Key].cpu
		} else {
			cpuBy[q.Spec.Schemes[0].Scheme()] += want[q.Key].cpu
		}
	}
	r.metrics["sim.baseline_s"] = cpuBy[sim.SchemeBaseline]
	r.metrics["sim.pbsw_s"] = cpuBy[sim.SchemePBSW]
	r.metrics["sim.cobra_s"] = cpuBy[sim.SchemeCOBRA]
	r.metrics["sim.phi_s"] = cpuBy[sim.SchemePHI]
	r.notes["direct_stream_cpu_s"] = streamCPU

	var queue, runMiss, hit, overhead, streamLat []float64
	var hits, lookups int
	for i, p := range traced.replies {
		q, v := traced.seq[i], p.view
		ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
		queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
		hits += v.CacheHits
		lookups += v.CacheHits + v.CacheMisses
		switch {
		case q.stream():
			streamLat = append(streamLat, p.latencyMS())
		case v.CacheMisses > 0:
			runMiss = append(runMiss, ms(v.FinishedAt.Sub(v.StartedAt)))
		}
		if q.Repeat {
			hit = append(hit, p.latencyMS())
		}
		if !q.stream() {
			overhead = append(overhead, p.latencyMS()-ms(v.FinishedAt.Sub(v.SubmittedAt)))
		}
	}
	r.metrics["srv.queue_wait_ms"] = median(queue)
	r.metrics["srv.run_ms"] = median(runMiss)
	r.metrics["srv.hit_ms"] = median(hit)
	r.metrics["srv.http_overhead_ms"] = median(overhead)
	r.metrics["srv.stream_ms"] = median(streamLat)
	r.metrics["srv.cache_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	r.notes["requests_per_round"] = len(traced.seq)
	return nil
}
