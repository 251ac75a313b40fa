package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/power"
	"repro/internal/serve"
)

// servingWorkload is one closed-loop query workload against the daemon.
type servingWorkload struct {
	name string
	// kind is "route" or "stretch": the endpoint and the report prefix.
	kind string
	// spec is the snapshot; its Seed is set from --seed.
	spec          serve.BuildSpec
	beta          float64
	pairsPerQuery int
	// setups is the number of fresh daemons set up per run; setup_s is
	// their median.
	setups int
	// tail is the reported tail quantile: the highest one that keeps at
	// least ten samples beyond it at the default run length.
	tail float64
	// checkEvery selects the checked queries: every response to a query
	// whose stream index is a multiple of it is compared with a direct
	// power.Measurer answer.
	checkEvery int
	// bodies is the number of distinct query bodies; the stream cycles
	// through them if a run sends more.
	bodies int
	// window, if set, splits the timed phase into windows of about this
	// length, and qps and latency quantiles come from the quietest quarter
	// of them (see loop.quiet). 0 keeps the whole phase.
	window time.Duration
}

// servingWorkloads are the two daemon workloads. Both run the shipped
// daemon defaults (serve.Config{}).
var servingWorkloads = map[string]servingWorkload{
	"route-14k": {
		name: "route-14k", kind: "route",
		spec: serve.BuildSpec{Kind: "udg", Side: 30, Lambda: 16},
		beta: 0, pairsPerQuery: 4, setups: 9, tail: 0.99, checkEvery: 1, bodies: 8192, window: 500 * time.Millisecond,
	},
	"stretch-100k": {
		name: "stretch-100k", kind: "stretch",
		spec: serve.BuildSpec{Kind: "udg", Side: 80, Lambda: 16},
		beta: 2, pairsPerQuery: 1, setups: 3, tail: 0.90, checkEvery: 8, bodies: 1024,
	},
}

// queryStream is the PCG stream of the query generator, so the query
// stream and the snapshot (seeded by --seed itself) are independent.
const queryStream = 0x9e1

// reqHeader carries the request id of a traced query to the wrapped
// handler, which records its span under the same id.
const reqHeader = "X-Perfbench-Req"

// clientCount is the closed loop's client count: two, never more than the
// machine's CPUs.
func clientCount() int { return min(2, runtime.NumCPU()) }

func (w servingWorkload) path() string { return "/query/" + w.kind }

// tailName names a tail quantile the way the report prints it: route_p99_ms.
func tailName(prefix string, q float64) string {
	return fmt.Sprintf("%s_p%d_ms", prefix, int(math.Round(q*100)))
}

// daemon is one serve.Server behind a loopback HTTP listener.
type daemon struct {
	srv      *serve.Server
	url      string
	hs       *http.Server
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, fmt.Errorf("listen on loopback: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), done, nil
}

// shutdown stops hs and waits until its Serve loop has returned.
func shutdown(hs *http.Server, done chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(ctx)
	if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

func startDaemon() (*daemon, error) {
	srv := serve.New(serve.Config{})
	hs, url, done, err := listen(srv)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, url: url, hs: hs, done: done}, nil
}

// stop shuts the daemon down and waits for it; later calls return the
// first call's error.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() { d.stopErr = shutdown(d.hs, d.done) })
	return d.stopErr
}

// newClient returns a keep-alive client capped at conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte, id int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setUp starts a daemon, builds the workload's snapshot over HTTP and
// waits for one warm-up query to be answered. The returned duration runs
// from POST /snapshots to that answer, so it covers the build and the lazy
// weight-slab fill of the first query.
func setUp(w servingWorkload, seed uint64) (*daemon, time.Duration, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*daemon, time.Duration, error) {
		return nil, 0, errors.Join(err, d.stop())
	}
	c := newClient(1)
	defer c.CloseIdleConnections()
	spec := w.spec
	spec.Seed = seed
	body, err := json.Marshal(serve.SnapshotRequest{BuildSpec: spec})
	if err != nil {
		return fail(err)
	}
	t0 := now()
	status, resp, err := post(c, d.url+"/snapshots", body, -1)
	if err != nil || status != http.StatusCreated {
		return fail(fmt.Errorf("POST /snapshots: status %d, %v: %s", status, err, resp))
	}
	members := d.srv.Store().Current().Members
	if len(members) < 2 {
		return fail(fmt.Errorf("snapshot has %d members, need 2", len(members)))
	}
	warm := queryBody(w.beta, []serve.PairSpec{{U: members[0], V: members[len(members)/2]}})
	status, resp, err = post(c, d.url+w.path(), warm, -1)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Errorf("warm-up %s query: status %d, %v: %s", w.kind, status, err, resp))
	}
	return d, now().Sub(t0), nil
}

func queryBody(beta float64, pairs []serve.PairSpec) []byte {
	b, err := json.Marshal(serve.QueryRequest{Beta: beta, Pairs: pairs})
	if err != nil {
		panic(err) // a QueryRequest always encodes
	}
	return b
}

// genQueries draws the query stream: pairs of distinct members, uniform.
func genQueries(w servingWorkload, members []int32, seed uint64) ([][]serve.PairSpec, [][]byte) {
	r := rand.New(rand.NewPCG(seed, queryStream))
	pairs := make([][]serve.PairSpec, w.bodies)
	bodies := make([][]byte, w.bodies)
	for q := range pairs {
		ps := make([]serve.PairSpec, w.pairsPerQuery)
		for j := range ps {
			u := members[r.IntN(len(members))]
			v := u
			for v == u {
				v = members[r.IntN(len(members))]
			}
			ps[j] = serve.PairSpec{U: u, V: v}
		}
		pairs[q], bodies[q] = ps, queryBody(w.beta, ps)
	}
	return pairs, bodies
}

// call is one query of a closed loop.
type call struct {
	id         int64 // request sequence number
	q          int   // index into the query stream
	start, end time.Time
	status     int
	body       []byte
}

// loop is the outcome of one closed-loop phase.
type loop struct {
	calls   []call // in id order
	start   time.Time
	elapsed time.Duration
	mem     memDelta
	batch   serve.BatcherStats // the daemon's batcher counters, delta
}

// memDelta is a process-wide runtime.MemStats difference.
type memDelta struct{ mallocs, bytes, gcs, pauseNs uint64 }

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memDiff(a, b runtime.MemStats) memDelta {
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC), b.PauseTotalNs - a.PauseTotalNs}
}

// closedLoop runs clients clients for dur: each sends its next query as
// soon as its previous answer has been read. With traced set, requests
// carry their id for the wrapped handler.
func closedLoop(url string, bodies [][]byte, clients int, dur time.Duration, traced bool, b *serve.Batcher) loop {
	c := newClient(clients)
	defer c.CloseIdleConnections()
	var seq atomic.Int64
	perClient := make([][]call, clients)
	b0, m0 := b.Stats(), readMem()
	start := now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now().Before(deadline) {
				id := seq.Add(1) - 1
				q := int(id % int64(len(bodies)))
				hdr := int64(-1)
				if traced {
					hdr = id
				}
				t0 := now()
				status, body, err := post(c, url, bodies[q], hdr)
				if err != nil {
					status = 0
				}
				perClient[k] = append(perClient[k], call{id: id, q: q, start: t0, end: now(), status: status, body: body})
			}
		}()
	}
	wg.Wait()
	l := loop{start: start, elapsed: now().Sub(start), mem: memDiff(m0, readMem())}
	b1 := b.Stats()
	l.batch = serve.BatcherStats{
		Flushes: b1.Flushes - b0.Flushes, Queries: b1.Queries - b0.Queries,
		MultiQueryFlushes: b1.MultiQueryFlushes - b0.MultiQueryFlushes,
	}
	if l.batch.Flushes > 0 {
		l.batch.QueriesPerFlush = float64(l.batch.Queries) / float64(l.batch.Flushes)
	}
	for _, cs := range perClient {
		l.calls = append(l.calls, cs...)
	}
	slices.SortFunc(l.calls, func(a, b call) int { return cmp.Compare(a.id, b.id) })
	return l
}

// latenciesMs returns every call's client-side latency in milliseconds.
func (l loop) latenciesMs() []float64 {
	out := make([]float64, len(l.calls))
	for i, c := range l.calls {
		out[i] = durMs(c.end.Sub(c.start))
	}
	return out
}

func (l loop) qps() float64 { return float64(len(l.calls)) / l.elapsed.Seconds() }

// quiet splits the phase into equal windows of about span by completion
// time, keeps the quarter of them that completed the most calls, and
// returns their throughput and the latency quantiles of their calls
// pooled. On a shared host, outside load comes in bursts that slow every
// call in the windows they hit, and it moves the tail far more than the
// median: over ten 30 s route runs, whole-phase p99 spread 0.28 of its
// median (p50 0.05), the quieter half of 0.5 s windows 0.10, the quietest
// quarter 0.04. A change to the program moves every window, so the
// quietest quarter still shows it. span 0 keeps the whole phase.
func (l loop) quiet(span time.Duration, tail float64) quietStats {
	windows := 1
	if span > 0 {
		windows = max(1, int(math.Round(float64(l.elapsed)/float64(span))))
	}
	span = l.elapsed / time.Duration(windows)
	per := make([][]float64, windows)
	for _, c := range l.calls {
		i := min(int(c.end.Sub(l.start)/span), windows-1)
		per[i] = append(per[i], durMs(c.end.Sub(c.start)))
	}
	slices.SortStableFunc(per, func(a, b []float64) int { return cmp.Compare(len(b), len(a)) })
	per = per[:(windows+3)/4]
	var lat []float64
	for _, w := range per {
		lat = append(lat, w...)
	}
	return quietStats{
		qps: float64(len(lat)) / (span.Seconds() * float64(len(per))),
		p50: quantile(lat, 0.5), tail: quantile(lat, tail),
		calls: len(lat), kept: len(per), windows: windows,
	}
}

// quietStats is what loop.quiet measures over the windows it keeps.
type quietStats struct {
	qps, p50, tail       float64
	calls, kept, windows int
}

// oracle answers queries directly through power.Measurer, the engine the
// daemon batches into, with its own slab cache.
type oracle struct {
	w     servingWorkload
	snap  *serve.Snapshot
	slabs *power.SlabCache
	want  map[int][]power.StretchSample // query index → expected samples
}

func newOracle(w servingWorkload, snap *serve.Snapshot) *oracle {
	return &oracle{w: w, snap: snap, slabs: power.NewSlabCache(), want: map[int][]power.StretchSample{}}
}

// measurerFor builds the measurer the daemon would for this workload.
func measurerFor(w servingWorkload, snap *serve.Snapshot, slabs *power.SlabCache) *power.Measurer {
	base := snap.Base
	if w.kind != "stretch" {
		base = nil
	}
	return power.NewMeasurerCached(snap.Graph, base, snap.Pts, power.BatchSpec{Beta: w.beta, Hops: true}, slabs)
}

func toPairs(ps []serve.PairSpec) []power.Pair {
	out := make([]power.Pair, len(ps))
	for i, p := range ps {
		out[i] = power.Pair{U: p.U, V: p.V}
	}
	return out
}

// prepare computes the expected answers of the given queries in one batch.
func (o *oracle) prepare(queries [][]serve.PairSpec, qs []int) {
	var all []power.Pair
	var todo []int
	for _, q := range qs {
		if _, ok := o.want[q]; !ok {
			o.want[q] = nil // filled below
			todo = append(todo, q)
			all = append(all, toPairs(queries[q])...)
		}
	}
	samples := measurerFor(o.w, o.snap, o.slabs).Pairs(all)
	for _, q := range todo {
		n := len(queries[q])
		o.want[q], samples = samples[:n], samples[n:]
	}
}

// checked reports whether the answers to query q are compared.
func (o *oracle) checked(q int) bool { return q%o.w.checkEvery == 0 }

// checkCalls compares every checked 200 response with the oracle and
// returns the number of failed calls (non-200 or wrong).
func (o *oracle) checkCalls(queries [][]serve.PairSpec, calls []call) (failed int, firstErr error) {
	var qs []int
	for _, c := range calls {
		if c.status == http.StatusOK && o.checked(c.q) {
			qs = append(qs, c.q)
		}
	}
	o.prepare(queries, qs)
	for _, c := range calls {
		var err error
		switch {
		case c.status != http.StatusOK:
			err = fmt.Errorf("query %d: status %d: %s", c.id, c.status, c.body)
		case o.checked(c.q):
			err = checkBody(o.w.kind, o.snap.Info.ID, o.w.beta, queries[c.q], o.want[c.q], c.body)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("request %d: %w", c.id, err)
			}
		}
	}
	return failed, firstErr
}

// wantRoute is the documented wire form of a route answer: unreachable
// pairs carry zeroed costs and Hops −1, and +Inf power reads 0.
func wantRoute(s power.StretchSample) serve.RouteResult {
	r := serve.RouteResult{U: s.U, V: s.V, Euclid: s.Euclid, Hops: -1}
	if math.IsInf(s.SubLen, 1) {
		return r
	}
	r.Reachable, r.Len, r.Hops = true, s.SubLen, s.Hops
	if !math.IsInf(s.PowerSub, 1) {
		r.Power = s.PowerSub
	}
	return r
}

// wantStretch is the documented wire form of a stretch answer: a pair
// unreachable in either graph reads unreachable with every cost and ratio
// zeroed; an infinite ratio reads 0.
func wantStretch(s power.StretchSample) serve.StretchResult {
	r := serve.StretchResult{RouteResult: wantRoute(s)}
	if math.IsInf(s.SubLen, 1) || math.IsInf(s.BaseLen, 1) {
		r.Reachable, r.Len, r.Power = false, 0, 0
		return r
	}
	finite := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return 0
		}
		return v
	}
	r.BaseLen = s.BaseLen
	r.BasePower = finite(s.PowerBase)
	r.DistStretch = finite(s.DistStretch)
	r.PowerStretch = finite(s.PowerStretch)
	r.EuclidStretch = s.EuclidStretch()
	return r
}

// decodeStrict decodes exactly one JSON value with no unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decode response: trailing data")
	}
	return nil
}

// checkBody compares one response body field by field, with exact float
// equality, against the expected samples of its pairs.
func checkBody(kind, snapID string, beta float64, pairs []serve.PairSpec, want []power.StretchSample, body []byte) error {
	var snapshot string
	var gotBeta float64
	var got, exp []any
	switch kind {
	case "route":
		var resp serve.RouteResponse
		if err := decodeStrict(body, &resp); err != nil {
			return err
		}
		snapshot, gotBeta = resp.Snapshot, resp.Beta
		for i, r := range resp.Results {
			got = append(got, r)
			if i < len(want) {
				exp = append(exp, wantRoute(want[i]))
			}
		}
	case "stretch":
		var resp serve.StretchResponse
		if err := decodeStrict(body, &resp); err != nil {
			return err
		}
		snapshot, gotBeta = resp.Snapshot, resp.Beta
		for i, r := range resp.Results {
			got = append(got, r)
			if i < len(want) {
				exp = append(exp, wantStretch(want[i]))
			}
		}
	default:
		return fmt.Errorf("unknown query kind %q", kind)
	}
	if snapshot != snapID || gotBeta != beta {
		return fmt.Errorf("answered by snapshot %q at beta %v, want %q at %v", snapshot, gotBeta, snapID, beta)
	}
	if len(got) != len(pairs) || len(want) != len(pairs) {
		return fmt.Errorf("%d results for %d pairs", len(got), len(pairs))
	}
	for i := range got {
		if got[i] != exp[i] {
			return fmt.Errorf("pair %d (%d,%d): got %+v, want %+v", i, pairs[i].U, pairs[i].V, got[i], exp[i])
		}
	}
	return nil
}

// runServing measures one serving workload.
func runServing(w servingWorkload, cfg runConfig, rep *report) (result, error) {
	clients := clientCount()
	rep.note("load closed-loop clients=%d MaxConnsPerHost=%d transport=loopback daemon=serve.Config{} snapshot=%+v beta=%v pairs/query=%d",
		clients, clients, w.spec, w.beta, w.pairsPerQuery)

	var setups []float64
	var d *daemon
	for i := range w.setups {
		nd, el, err := setUp(w, cfg.seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, durS(el))
		if i < w.setups-1 {
			if err := nd.stop(); err != nil {
				return result{}, err
			}
			runtime.GC()
			continue
		}
		d = nd
	}
	heap := liveHeapMB()
	snap := d.srv.Store().Current()
	rep.note("snapshot points=%d members=%d edges=%d goodFraction=%v hasBase=%v",
		snap.Info.Points, snap.Info.Members, snap.Info.Edges, snap.Info.GoodFraction, snap.Info.HasBase)
	queries, bodies := genQueries(w, snap.Members, cfg.seed)
	url := d.url + w.path()
	dur := time.Duration(cfg.seconds * float64(time.Second))

	if cfg.trace {
		res, err := traceServing(w, cfg, rep, d, queries, bodies, dur)
		return res, errors.Join(err, d.stop())
	}

	l := closedLoop(url, bodies, clients, dur, false, d.srv.Batcher())
	peak, err := peakRSSMB()
	if err != nil {
		return result{}, errors.Join(err, d.stop())
	}
	failed, firstErr := newOracle(w, snap).checkCalls(queries, l.calls)
	if err := d.stop(); err != nil {
		return result{}, err
	}
	if firstErr != nil {
		rep.note("check FAILED: %v", firstErr)
	}

	q := l.quiet(w.window, w.tail)
	per := ""
	if q.windows > 1 {
		per = fmt.Sprintf("; the %d of %d windows that completed most calls", q.kept, q.windows)
	}
	rep.add("setup_s", median(setups), "s", len(setups), "POST /snapshots until one warm-up query answered; median of fresh daemons")
	rep.add("ops_per_s", q.qps, "1/s", q.calls, w.kind+"_qps: "+w.kind+" queries per second"+per)
	rep.add("p50_ms", q.p50, "ms", q.calls, w.kind+"_p50_ms"+per)
	rep.add("tail_ms", q.tail, "ms", q.calls, tailName(w.kind, w.tail)+per)
	rep.add("peak_rss_mb", peak, "MB", 1, "process VmHWM after the timed phase")
	rep.add("heap_mb", heap, "MB", 1, "snapshot_heap_mb: live heap after set-up and runtime.GC")
	return finish(rep, false, len(l.calls), failed)
}
