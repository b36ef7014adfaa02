package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/nettheory/feedbackflow/internal/loadgen"
	"github.com/nettheory/feedbackflow/internal/obs"
	"github.com/nettheory/feedbackflow/internal/scenario"
	"github.com/nettheory/feedbackflow/internal/serve"
)

// The serve workload: ffcd in process, two solver workers behind a
// loopback listener, driven over at most two keep-alive connections by
// a zipf-popular stream of loadgen.Corpus documents. The corpus is
// much larger than the cache, so misses keep solving, inserting and
// evicting beside the hits. Document i has popularity rank i for every
// seed, and the seed draws the request stream: corpus documents differ
// in solve cost, and a seeded rank order moved the miss tail by 20%
// from seed to seed.
const (
	serveCorpus    = 2048 // documents the zipf stream draws from
	serveCache     = 256  // result cache entries
	serveZipfS     = 1.2  // zipf exponent of document popularity
	serveProbe     = 2100 // cold documents solved one at a time for solve_ms
	serveProbeWarm = 100  // cold documents posted before them, unmeasured
	serveBatches   = 3    // batches the measured cold documents are split into
	serveWorkers   = 2
	serveConns     = 2

	// lightRPS and heavyRPS are the traced run's fixed offered rates.
	// The measured run drives closed loops instead (README.md).
	lightRPS = 600
	heavyRPS = 1800
)

// ffcd is one in-process daemon on a loopback listener.
type ffcd struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startFFCD(client *http.Client, tracer *obs.Tracer) (*ffcd, error) {
	srv := serve.New(serve.Config{Workers: serveWorkers, CacheEntries: serveCache, Tracer: tracer})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	d := &ffcd{srv: srv, cancel: cancel, done: make(chan error, 1)}
	go func() {
		d.done <- srv.ListenAndServe(ctx, "127.0.0.1:0", 5*time.Second, func(a net.Addr) { ready <- a })
	}()
	select {
	case a := <-ready:
		d.url = "http://" + a.String()
	case err := <-d.done:
		cancel()
		return nil, err
	}
	resp, err := client.Get(d.url + "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.stop()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// stop shuts the daemon down and waits until it has drained.
func (d *ffcd) stop() error {
	d.cancel()
	return <-d.done
}

// counter reads one cache counter.
func (d *ffcd) counter(name string) int64 {
	v, _ := d.srv.CacheSnapshot()[name].(int64)
	return v
}

// bodyGate checks every 200 body: it must equal the first body served
// for that document with the report's wall-clock field masked (a
// re-solve after eviction measures a new wall time, nothing else), and
// a hit must be byte-identical to a body some miss produced.
type bodyGate struct {
	mu      sync.Mutex
	first   map[int][32]byte
	solved  map[int]map[[32]byte]bool
	pending []pendingHit
}

func newBodyGate() *bodyGate {
	return &bodyGate{first: map[int][32]byte{}, solved: map[int]map[[32]byte]bool{}}
}

var wallField = []byte(`"wall_ns": `)

func maskWall(body []byte) [32]byte {
	i := bytes.Index(body, wallField)
	if i < 0 {
		return sha256.Sum256(body)
	}
	j := i + len(wallField)
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	h := sha256.New()
	h.Write(body[:i])
	h.Write(body[j:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func (g *bodyGate) check(doc int, hit bool, body []byte) error {
	exact := sha256.Sum256(body)
	masked := maskWall(body)
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.first[doc]; !ok {
		g.first[doc] = masked
	} else if f != masked {
		return fmt.Errorf("document %d: body differs from the first body served for it", doc)
	}
	if !hit {
		if g.solved[doc] == nil {
			g.solved[doc] = map[[32]byte]bool{}
		}
		g.solved[doc][exact] = true
	} else if !g.solved[doc][exact] {
		// A waiter coalesced onto an in-flight solve is reported as a
		// hit and can reach the client before the solving request's
		// own reply does; settle checks it once the rung is over.
		g.pending = append(g.pending, pendingHit{doc, exact})
	}
	return nil
}

type pendingHit struct {
	doc   int
	exact [32]byte
}

// settle checks the hits that arrived before their solved body and
// returns one error per hit that no miss produced.
func (g *bodyGate) settle() []error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var errs []error
	for _, p := range g.pending {
		if !g.solved[p.doc][p.exact] {
			errs = append(errs, fmt.Errorf("document %d: cache hit is not byte-identical to a solved body", p.doc))
		}
	}
	g.pending = g.pending[:0]
	return errs
}

// digest is the digest over the masked bodies of the cold documents, in
// document order: the same documents on every run, whatever the seed
// and however fast the host served the zipf stream.
func (g *bodyGate) digest() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	h := sha256.New()
	for doc := serveCorpus; doc < serveCorpus+serveProbeWarm+serveProbe; doc++ {
		if f, ok := g.first[doc]; ok {
			fmt.Fprintf(h, "%d:%x\n", doc, f)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// reply is one completed request as the client saw it. Times are
// offsets from the driver's epoch.
type reply struct {
	doc             int
	due, sent, done time.Duration
	lag             time.Duration // how late the generator handed it off
	hit             bool
	status          int
	trace           obs.TraceID
	err             error
}

// driver is the benchmark's open-loop load generator.
type driver struct {
	b      *bench
	client *http.Client
	docs   [][]byte
	zipf   *rand.Zipf
	gate   *bodyGate
	epoch  time.Time
	nextID uint64
}

// post sends one document, verifies the reply and returns it with its
// body.
func (d *driver) post(url string, doc int, id obs.TraceID) (reply, []byte) {
	r := reply{doc: doc, trace: id, sent: time.Since(d.epoch)}
	req, err := http.NewRequest(http.MethodPost, url+"/run", bytes.NewReader(d.docs[doc]))
	if err != nil {
		r.err = err
		return r, nil
	}
	if id != 0 {
		req.Header.Set("X-FFCD-Trace-ID", id.String())
	}
	resp, err := d.client.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Since(d.epoch)
		return r, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(d.epoch)
	r.status = resp.StatusCode
	r.hit = resp.Header.Get("X-FFCD-Cache") == "hit"
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("document %d: %s", doc, resp.Status)
	default:
		r.err = d.gate.check(doc, r.hit, body)
	}
	return r, body
}

// rung is the outcome of one fixed-rate stretch of the open loop.
type rung struct {
	replies []reply
	lat     []float64 // ms from due time to completion
	lag     []float64 // ms of generator lateness
}

// openLoop offers rate requests per second for dur. Request i is due
// at start + i/rate regardless of earlier replies; serveConns senders
// take due requests in order, and each is timed from its due time.
func (d *driver) openLoop(url string, rate float64, dur time.Duration, traced bool) *rung {
	n := max(int(rate*dur.Seconds()), 1)
	type job struct {
		i        int
		doc      int
		due, lag time.Duration
		id       obs.TraceID
	}
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	out := &rung{replies: make([]reply, n)}
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r, _ := d.post(url, j.doc, j.id)
				r.due, r.lag = j.due, j.lag
				out.replies[j.i] = r
			}
		}()
	}
	start := time.Since(d.epoch)
	for i := 0; i < n; i++ {
		due := start + time.Duration(float64(i)/rate*float64(time.Second))
		d.waitUntil(due)
		j := job{i: i, doc: int(d.zipf.Uint64()), due: due, lag: time.Since(d.epoch) - due}
		if traced {
			d.nextID++
			j.id = obs.TraceID(d.nextID)
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for _, err := range d.gate.settle() {
		d.b.gate("%v", err)
	}
	for _, r := range out.replies {
		d.b.op(r.err)
		out.lat = append(out.lat, ms(r.done-r.due))
		out.lag = append(out.lag, ms(r.lag))
	}
	return out
}

// waitUntil returns at the due time. The runtime's timers wake a
// sleeping goroutine up to a millisecond late, far too coarse for
// sub-millisecond arrival gaps, so the generator sleeps in the kernel
// (sleepPrecise) instead; while it sleeps the runtime hands its
// processor to the server and client goroutines.
func (d *driver) waitUntil(due time.Duration) {
	if w := due - time.Since(d.epoch); w > 0 {
		sleepPrecise(w)
	}
}

// loop is the outcome of one closed loop: the latency (ms from send),
// completion time and document of every request, and its duration.
type loop struct {
	lat  []float64
	done []time.Duration // from the loop's start
	docs []int
	wall time.Duration
}

// rateWindow is the width of the windows loop.rate counts completions in.
const rateWindow = 250 * time.Millisecond

// rate is the median over the loop's whole rateWindow windows of their
// completion rate: a stall of the shared host costs the windows it
// falls in, not the reported rate. A window's rate is its completions
// after the first over the time from its first to its last.
func (l *loop) rate() float64 {
	n := int(l.wall / rateWindow)
	if n == 0 {
		return float64(len(l.lat)) / l.wall.Seconds()
	}
	first := make([]time.Duration, n)
	last := make([]time.Duration, n)
	count := make([]int, n)
	for _, d := range l.done { // in completion order
		w := int(d / rateWindow)
		if w >= n {
			continue
		}
		if count[w] == 0 {
			first[w] = d
		}
		last[w] = d
		count[w]++
	}
	var rates []float64
	for w := range count {
		if count[w] > 1 && last[w] > first[w] {
			rates = append(rates, float64(count[w]-1)/(last[w]-first[w]).Seconds())
		}
	}
	if len(rates) == 0 {
		return float64(len(l.lat)) / l.wall.Seconds()
	}
	return median(rates)
}

// closedLoop keeps conns requests of the zipf stream outstanding for
// dur: each connection sends its next request as soon as the last one
// is answered.
func (d *driver) closedLoop(url string, conns int, dur time.Duration) *loop {
	var mu sync.Mutex
	out := &loop{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				doc := int(d.zipf.Uint64())
				mu.Unlock()
				r, _ := d.post(url, doc, 0)
				mu.Lock()
				d.b.op(r.err)
				out.lat = append(out.lat, ms(r.done-r.sent))
				out.done = append(out.done, time.Since(start))
				out.docs = append(out.docs, doc)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	for _, err := range d.gate.settle() {
		d.b.gate("%v", err)
	}
	return out
}

func runServe(b *bench) error {
	docs := loadgen.Corpus(serveCorpus + serveProbeWarm + serveProbe)
	rng := rand.New(rand.NewSource(b.seed))
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	d := &driver{
		b:      b,
		client: &http.Client{Transport: tr},
		docs:   docs,
		zipf:   rand.NewZipf(rng, serveZipfS, 1, serveCorpus-1),
		gate:   newBodyGate(),
		epoch:  time.Now(),
	}
	b.traffic["corpus_documents"] = serveCorpus
	b.traffic["cache_entries"] = serveCache
	b.traffic["corpus_per_cache_entry"] = float64(serveCorpus) / serveCache
	b.traffic["zipf_s"] = serveZipfS
	b.traffic["connections"] = serveConns
	b.traffic["solver_workers"] = serveWorkers
	b.traffic["light_rps"] = lightRPS
	b.traffic["heavy_rps"] = heavyRPS
	b.traffic["cold_documents"] = serveProbe

	// Set-up: server start to a served /healthz, repeated.
	s, reps, err := measureSetup(5, func() error {
		f, err := startFFCD(d.client, nil)
		if err != nil {
			return err
		}
		tr.CloseIdleConnections()
		return f.stop()
	})
	if err != nil {
		return err
	}
	b.set("setup_s", s, reps)

	if b.trace {
		err = traceServe(b, d)
	} else {
		err = measureServe(b, d)
	}
	b.digest = d.gate.digest()
	return err
}

// measureServe is the untraced serve run.
func measureServe(b *bench, d *driver) error {
	f, err := startFFCD(d.client, nil)
	if err != nil {
		return err
	}
	defer f.stop()
	runtime.GC()
	heap := startHeapPeak()

	// Cold misses one at a time: the request-path solve. The first
	// serveProbeWarm cold documents warm the daemon and are not
	// measured; the rest are posted in serveBatches batches spread over
	// the run, so that the figures do not rest on one stretch of the
	// shared host's load.
	var cold coldProbe
	next := serveCorpus
	next = cold.run(b, d, f.url, next, serveProbeWarm, false)
	batch := func() { next = cold.run(b, d, f.url, next, serveProbe/serveBatches, true) }
	batch()

	t0 := time.Now()
	d.closedLoop(f.url, serveConns, b.phase(0.05))
	fmt.Printf("warmup_s %.4f (closed loop on %d connections)\n", time.Since(t0).Seconds(), serveConns)
	h0, m0 := f.counter("runcache.hits"), f.counter("runcache.misses")

	light := d.closedLoop(f.url, 1, b.phase(0.3))
	batch()
	heavy := d.closedLoop(f.url, serveConns, b.phase(0.35))
	batch()
	for _, l := range []struct {
		name  string
		conns int
		*loop
	}{{"light", 1, light}, {"heavy", serveConns, heavy}} {
		fmt.Printf("%s: closed loop on %d connections, %.1f/s, p50 %.3f ms, p99 %.3f ms (n=%d)\n",
			l.name, l.conns, l.rate(), median(l.lat), tail(l.lat, 0.99), len(l.lat))
	}
	hits, misses := f.counter("runcache.hits")-h0, f.counter("runcache.misses")-m0
	fmt.Printf("cold: p90 %.3f ms, p99 %.3f ms (n=%d)\n", tail(cold.lat, 0.9), tail(cold.lat, 0.99), len(cold.lat))
	fmt.Printf("hit_ratio %.4f (%d hits of %d lookups after warm-up, cold documents included)\n", float64(hits)/float64(hits+misses), hits, hits+misses)

	n := len(cold.lat)
	b.set("solve_ms_p50", median(cold.lat), n)
	b.set("allocs_per_solve", median(cold.allocs), n)
	b.set("conn_steps_per_s", median(cold.stepRate), n)
	b.set("max_rps", heavy.rate(), len(heavy.lat))
	b.set("light.lat_ms_p50", median(light.lat), len(light.lat))
	b.set("heavy.lat_ms_p50", median(heavy.lat), len(heavy.lat))
	b.set("heap_peak_mb", heap.Stop(), 0)
	b.traffic["distinct_key_frac"] = distinctFrac(light.docs, heavy.docs)
	return nil
}

// coldProbe accumulates the cold misses of measureServe.
type coldProbe struct {
	lat, allocs []float64
	stepRate    []float64 // connection-steps per second of each solve
}

// run posts the n cold documents from index next on, one at a time,
// records them when measured, and returns the next unused index.
func (c *coldProbe) run(b *bench, d *driver, url string, next, n int, measured bool) int {
	for doc := next; doc < next+n; doc++ {
		m0 := mallocs()
		r, body := d.post(url, doc, 0)
		m1 := mallocs()
		if r.err == nil && r.hit {
			r.err = fmt.Errorf("cold document %d was a cache hit", doc)
		}
		var steps float64
		if r.err == nil {
			steps, r.err = reportConnSteps(body)
		}
		b.op(r.err)
		if !measured {
			continue
		}
		c.lat = append(c.lat, ms(r.done-r.sent))
		c.allocs = append(c.allocs, float64(m1-m0))
		c.stepRate = append(c.stepRate, steps/(r.done-r.sent).Seconds())
	}
	return next + n
}

// reportConnSteps is the connection-steps a run report records: its
// rate vector's length times its steps.
func reportConnSteps(body []byte) (float64, error) {
	var rep struct {
		Steps int               `json:"steps"`
		Rates []json.RawMessage `json:"rates"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("run report: %w", err)
	}
	return float64(len(rep.Rates) * rep.Steps), nil
}

// distinctFrac is the fraction of requests whose document had not been
// requested before within the given request streams.
func distinctFrac(docs ...[]int) float64 {
	seen := map[int]bool{}
	n := 0
	for _, ds := range docs {
		for _, doc := range ds {
			seen[doc] = true
			n++
		}
	}
	return float64(len(seen)) / float64(max(n, 1))
}

// spanStore is the in-memory SpanSink the traced ffcd writes to; the
// driver joins its events to client requests by trace ID.
type spanStore struct {
	mu     sync.Mutex
	events map[obs.TraceID]obs.SpanEvent
}

func (s *spanStore) EmitSpan(ev *obs.SpanEvent) {
	id, ok := obs.ParseTraceID(ev.Trace)
	if !ok {
		return
	}
	cp := *ev
	cp.Phases = append([]obs.PhaseEvent(nil), ev.Phases...)
	s.mu.Lock()
	s.events[id] = cp
	s.mu.Unlock()
}

func (s *spanStore) get(id obs.TraceID) (obs.SpanEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev, ok := s.events[id]
	return ev, ok
}

// traceServe is the traced serve run. A light rung against an untraced
// daemon is the reference for the tracing overhead; a traced daemon then
// serves the light and heavy rungs with every request's ffcd phase span
// joined to the client span by its X-FFCD-Trace-ID. Finally the solves
// of the documents that missed are replayed through the traced kernel
// calls, and their scenarios timed through Load, Canonical and Build.
func traceServe(b *bench, d *driver) error {
	fa, err := startFFCD(d.client, nil)
	if err != nil {
		return err
	}
	d.openLoop(fa.url, lightRPS, b.phase(0.08), false)
	base := d.openLoop(fa.url, lightRPS, b.phase(0.15), false)
	if err := fa.stop(); err != nil {
		return err
	}
	d.client.Transport.(*http.Transport).CloseIdleConnections()

	store := &spanStore{events: map[obs.TraceID]obs.SpanEvent{}}
	fb, err := startFFCD(d.client, obs.NewTracer(store))
	if err != nil {
		return err
	}
	d.openLoop(fb.url, lightRPS, b.phase(0.08), true)
	h0, m0, e0 := fb.counter("runcache.hits"), fb.counter("runcache.misses"), fb.counter("runcache.evictions")
	light := d.openLoop(fb.url, lightRPS, b.phase(0.15), true)
	heavy := d.openLoop(fb.url, heavyRPS, b.phase(0.15), true)
	hits, misses := fb.counter("runcache.hits")-h0, fb.counter("runcache.misses")-m0
	evictions := fb.counter("runcache.evictions") - e0
	if err := fb.stop(); err != nil {
		return err
	}

	l := b.spans
	off := d.epoch.Sub(l.epoch)
	phases := map[string][]float64{}
	var hitLat, missLat, unattributed, lag []float64
	var missDocs []int
	seenMiss := map[int]bool{}
	requests, rejected := 0, 0
	for _, r := range append(light.replies, heavy.replies...) {
		requests++
		lag = append(lag, ms(r.lag))
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if r.err != nil {
			continue
		}
		ev, ok := store.get(r.trace)
		if !ok {
			b.gate("request %s: ffcd emitted no span", r.trace)
			continue
		}
		client := r.done - r.sent
		if r.hit {
			hitLat = append(hitLat, ms(client))
		} else {
			missLat = append(missLat, ms(client))
			if !seenMiss[r.doc] {
				seenMiss[r.doc] = true
				missDocs = append(missDocs, r.doc)
			}
		}
		unattributed = append(unattributed, us(client-time.Duration(ev.DurNS)))
		root := l.add(span{Name: "client.request", ID: uint64(r.trace), Start: int64(off + r.sent), End: int64(off + r.done), Parent: -1})
		at := ev.StartNS - l.epoch.UnixNano()
		run := l.add(span{Name: "serve.run", ID: uint64(r.trace), Start: at, End: at + ev.DurNS, Parent: root})
		for _, p := range ev.Phases {
			l.add(span{Name: "serve." + p.Name, ID: uint64(r.trace), Start: at, End: at + p.DurNS, Parent: run})
			at += p.DurNS
			phases[p.Name] = append(phases[p.Name], float64(p.DurNS)/1e3)
		}
		l.close()
	}
	b.set("serve.parse_us_p50", median(phases["parse"]), len(phases["parse"]))
	b.set("serve.canonicalize_us_p50", median(phases["canonicalize"]), len(phases["canonicalize"]))
	b.set("serve.cache_us_p50", median(phases["cache"]), len(phases["cache"]))
	b.set("serve.queue_us_p50", median(phases["queue"]), len(phases["queue"]))
	b.set("serve.queue_us_p99", quantile(phases["queue"], 0.99), len(phases["queue"]))
	b.set("serve.solve_us_p50", median(phases["solve"]), len(phases["solve"]))
	b.set("serve.render_us_p50", median(phases["render"]), len(phases["render"]))
	b.set("runcache.hit_lat_ms_p50", median(hitLat), len(hitLat))
	b.set("runcache.miss_lat_ms_p50", median(missLat), len(missLat))
	b.set("runcache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	b.set("runcache.evictions_per_req", float64(evictions)/float64(max(requests, 1)), requests)
	b.set("serve.rejected_frac", float64(rejected)/float64(max(requests, 1)), requests)
	b.set("serve.unattributed_us_p50", median(unattributed), len(unattributed))
	b.set("driver.lag_ms_p99", quantile(lag, 0.99), len(lag))
	b.set("trace.overhead_frac", median(light.lat)/median(base.lat)-1, len(light.lat))
	l.selfTable("client.request")

	return traceServeSolves(b, d, missDocs)
}

// traceServeSolves replays the solves of up to 64 documents that missed
// through the traced kernel calls, timing their scenario stages too.
func traceServeSolves(b *bench, d *driver, docs []int) error {
	if len(docs) > 64 {
		docs = docs[:64]
	}
	tr := newSolveTracer()
	var load, canon, build []float64
	for _, doc := range docs {
		t0 := time.Now()
		sp, err := scenario.Load(bytes.NewReader(d.docs[doc]))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := sp.Canonical(); err != nil {
			return err
		}
		t2 := time.Now()
		sys, r0, err := sp.Build()
		t3 := time.Now()
		if err != nil {
			return err
		}
		load = append(load, us(t1.Sub(t0)))
		canon = append(canon, us(t2.Sub(t1)))
		build = append(build, ms(t3.Sub(t2)))
		_, _, err = tr.solve(b, sys, newReplayer(sys), sys.NewWorkspace(), r0, sp.RunOptions())
		b.op(err)
	}
	b.set("scenario.load_us", median(load), len(load))
	b.set("scenario.canonical_us", median(canon), len(canon))
	b.set("scenario.build_ms", median(build), len(build))
	if len(docs) > 0 {
		tr.report(b)
	}
	b.zeroLayers()
	return nil
}
