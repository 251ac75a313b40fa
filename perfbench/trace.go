package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/pointprocess"
	"repro/internal/power"
	"repro/internal/rgg"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/tiling"
)

// span is one traced interval. Spans of one request share Req; Parent
// names the enclosing span of the same request.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

func (t *tracer) record(name, parent string, req int64, start, end time.Time) {
	s := span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations in ms of the spans named name, by
// request id.
func (t *tracer) durations(name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] = float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	return path, errors.Join(err, f.Close())
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// Span names, one per layer boundary the traced run crosses.
const (
	spanClient   = "client"
	spanHandler  = "serve.handler"
	spanBatcher  = "serve.Batcher.Measure"
	spanPairs    = "power.Measurer.Pairs"
	spanRebuild  = "setup.rebuild"
	spanDeploy   = "pointprocess.Poisson"
	spanBase     = "rgg.UDGGrid"
	spanSENS     = "core.BuildUDGSharded"
	spanSlabs    = "power.NewMeasurerCached"
	spanSuite    = "scenario.Engine.Run"
	spanScenario = "scenario."
)

// perLayerNames lists the per-layer metrics in BENCHMARK.json order, with
// their units.
func perLayerNames() ([]string, map[string]string) {
	var names []string
	units := map[string]string{}
	add := func(unit string, ns ...string) {
		for _, n := range ns {
			names = append(names, n)
			units[n] = unit
		}
	}
	add("ms", "pointprocess.deploy_ms")
	add("count", "pointprocess.points")
	add("ms", "rgg.base_ms")
	add("count", "rgg.base_edges")
	add("MB", "rgg.base_mb")
	add("ms", "core.sens_ms")
	add("count", "core.good_tiles", "core.members", "core.sens_edges", "core.election_messages", "core.handshake_attempts")
	add("ms", "power.slab_ms")
	add("MB", "power.slab_mb")
	add("ms", "power.pairs_p50_ms")
	add("count", "power.slab_hits", "power.slab_misses")
	add("ms", "serve.batch_wait_ms")
	add("count", "serve.flushes")
	add("ratio", "serve.queries_per_flush")
	add("count", "serve.multi_query_flushes")
	add("ms", "serve.handler_ms", "serve.transport_ms")
	add("count", "serve.allocs_per_query")
	add("KB", "serve.alloc_kb_per_query")
	add("count", "serve.pool_rejected", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms", "trace.overhead_ms")
	for _, sc := range scenario.All() {
		add("s", "scenario."+sc.ID+"_s")
	}
	add("count", "scenario.cache_hits", "scenario.cache_misses", "scenario.slab_hits", "scenario.slab_misses")
	return names, units
}

// tracedHandler records a span around every request h serves.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := now()
		h.ServeHTTP(w, r)
		tr.record(spanHandler, spanClient, id, t0, now())
	})
}

// replay runs fn over the ids of calls from clients goroutines, each taking
// the next id as soon as it is done, and records a span per call.
func replay(tr *tracer, name string, calls []call, clients int, fn func(c call) error) error {
	var next atomic.Int64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				t0 := now()
				err := fn(calls[i])
				tr.record(name, "", calls[i].id, t0, now())
				if err != nil && errs[k] == nil {
					errs[k] = err
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// traceServing is the traced run of a serving workload: an untraced
// reference phase, then the same stream stepped down the layers.
func traceServing(w servingWorkload, cfg runConfig, rep *report, d *daemon, queries [][]serve.PairSpec, bodies [][]byte, dur time.Duration) (result, error) {
	clients := clientCount()
	snap := d.srv.Store().Current()
	o := newOracle(w, snap)
	attempted, failed := 0, 0
	check := func(calls []call) {
		f, err := o.checkCalls(queries, calls)
		attempted += len(calls)
		failed += f
		if err != nil {
			rep.note("check FAILED: %v", err)
		}
	}
	phase := dur / 3

	// Untraced reference: the end-to-end numbers this trace is read against.
	a := closedLoop(d.url+w.path(), bodies, clients, phase, false, d.srv.Batcher())
	check(a.calls)
	lat := a.latenciesMs()
	untracedP50 := quantile(lat, 0.5)
	rep.note("untraced %s_qps=%.6g 1/s %s_p50_ms=%.6g ms %s=%.6g ms n=%d",
		w.kind, a.qps(), w.kind, untracedP50, tailName(w.kind, w.tail), quantile(lat, w.tail), len(lat))
	nq := float64(len(a.calls))
	rep.add("serve.flushes", float64(a.batch.Flushes), "count", len(a.calls), "untraced phase")
	rep.add("serve.queries_per_flush", a.batch.QueriesPerFlush, "ratio", int(a.batch.Flushes), "untraced phase")
	rep.add("serve.multi_query_flushes", float64(a.batch.MultiQueryFlushes), "count", int(a.batch.Flushes), "untraced phase")
	rep.add("serve.allocs_per_query", float64(a.mem.mallocs)/nq, "count", len(a.calls), "process-wide MemStats delta, client included")
	rep.add("serve.alloc_kb_per_query", float64(a.mem.bytes)/1024/nq, "KB", len(a.calls), "process-wide MemStats delta, client included")
	rep.add("runtime.gc_cycles", float64(a.mem.gcs), "count", len(a.calls), "untraced phase")
	rep.add("runtime.gc_pause_ms", float64(a.mem.pauseNs)/1e6, "ms", int(a.mem.gcs), "untraced phase, total")

	// Step 1: client span and wrapped-handler span over loopback.
	tr := newTracer()
	hs, url, done, err := listen(tracedHandler(d.srv, tr))
	if err != nil {
		return result{}, err
	}
	b := closedLoop(url+w.path(), bodies, clients, phase, true, d.srv.Batcher())
	if err := shutdown(hs, done); err != nil {
		return result{}, err
	}
	check(b.calls)
	handler := tr.durations(spanHandler)
	var transport []float64
	for _, c := range b.calls {
		tr.record(spanClient, "", c.id, c.start, c.end)
		if h, ok := handler[c.id]; ok {
			transport = append(transport, durMs(c.end.Sub(c.start))-h)
		}
	}
	clientMs := b.latenciesMs()
	tracedP50 := median(clientMs)
	rep.add("serve.handler_ms", median(values(handler)), "ms", len(handler), "median wrapped-handler span")
	rep.add("serve.transport_ms", median(transport), "ms", len(transport), "median client span minus handler span")
	rep.add("trace.overhead_ms", tracedP50-untracedP50, "ms", len(clientMs),
		fmt.Sprintf("traced client-span median %.6g ms minus untraced %s_p50_ms", tracedP50, w.kind))

	// Step 2: the same pair sets through the daemon's own batcher, which
	// has the shipped default bounds.
	batcher := d.srv.Batcher()
	err = replay(tr, spanBatcher, b.calls, clients, func(c call) error {
		got := batcher.Measure(snap, w.beta, w.kind == "stretch", toPairs(queries[c.q]))
		return o.checkSamples(c.q, got)
	})
	attempted += len(b.calls)
	if err != nil {
		failed++
		rep.note("check FAILED: batcher replay: %v", err)
	}

	// Step 3: the same pair sets through power.Measurer directly, on the
	// oracle's slabs, which checkCalls has already filled.
	err = replay(tr, spanPairs, b.calls, clients, func(c call) error {
		return o.checkSamples(c.q, measurerFor(w, snap, o.slabs).Pairs(toPairs(queries[c.q])))
	})
	attempted += len(b.calls)
	if err != nil {
		failed++
		rep.note("check FAILED: measurer replay: %v", err)
	}
	batchMs, pairsMs := median(values(tr.durations(spanBatcher))), median(values(tr.durations(spanPairs)))
	rep.add("power.pairs_p50_ms", pairsMs, "ms", len(b.calls), "median Measurer.Pairs call on the request pair sets")
	rep.add("serve.batch_wait_ms", batchMs-pairsMs, "ms", len(b.calls),
		fmt.Sprintf("median Batcher.Measure %.6g ms minus median Measurer.Pairs", batchMs))
	st := snap.SlabStats()
	rep.add("power.slab_hits", float64(st.Hits), "count", 1, "Snapshot.SlabStats")
	rep.add("power.slab_misses", float64(st.Misses), "count", 1, "Snapshot.SlabStats")
	rep.add("serve.pool_rejected", float64(d.srv.Pool().Rejected()), "count", 1, "Pool.Stats")

	// Step 4: set-up rebuilt call by call, after the daemon has let go of
	// its snapshot so two large structures never coexist.
	served := snap.Info
	servedBase := snap.Base.EdgeCount
	if err := d.stop(); err != nil {
		return result{}, err
	}
	d.srv.Store().Remove(served.ID)
	runtime.GC()
	attempted++
	if err := rebuild(w, cfg.seed, served, servedBase, tr, rep); err != nil {
		failed++
		rep.note("check FAILED: rebuild: %v", err)
	}

	path, err := tr.write(cfg.out, w.name, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	rep.note("trace %d spans written to %s", len(tr.spans), path)
	return finish(rep, true, attempted, failed)
}

// checkSamples compares direct samples with the expected ones prepared by
// checkCalls; it only reads the oracle, so replay goroutines may share it.
func (o *oracle) checkSamples(q int, got []power.StretchSample) error {
	want, ok := o.want[q]
	if !ok {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("query %d: %d samples, want %d", q, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("query %d pair %d: got %+v, want %+v", q, i, got[i], want[i])
		}
	}
	return nil
}

// rebuild repeats the snapshot build through the layer calls serve.Build
// makes, one span each, and checks the result equals the served snapshot.
func rebuild(w servingWorkload, seed uint64, served serve.SnapshotInfo, servedBase int, tr *tracer, rep *report) error {
	sp := w.spec
	box := geom.Box(sp.Side, sp.Side)
	spec := tiling.DefaultUDGSpec()
	t00 := now()

	t0 := now()
	pts := pointprocess.Poisson(box, sp.Lambda, rng.Sub(rng.Seed(seed), sp.Stream))
	t1 := now()
	tr.record(spanDeploy, spanRebuild, -1, t0, t1)
	base := rgg.UDGGrid(pts, spec.Radius)
	t2 := now()
	tr.record(spanBase, spanRebuild, -1, t1, t2)
	net, err := core.BuildUDGSharded(pts, box, spec, core.Options{Base: base})
	if err != nil {
		return err
	}
	t3 := now()
	tr.record(spanSENS, spanRebuild, -1, t2, t3)
	var measured = net.Base.CSR
	if w.kind != "stretch" {
		measured = nil
	}
	power.NewMeasurerCached(net.Graph, measured, pts, power.BatchSpec{Beta: w.beta, Hops: true}, power.NewSlabCache())
	t4 := now()
	tr.record(spanSlabs, spanRebuild, -1, t3, t4)
	tr.record(spanRebuild, "", -1, t00, t4)

	// Bytes computed from array lengths: CSR = int32 Start + int32 Adj;
	// a weight slab is one float64 per Adj entry.
	const mb = 1 << 20
	baseBytes := 4 * float64(len(base.Start)+len(base.Adj))
	slabEntries := len(net.Graph.Adj)
	if measured != nil {
		slabEntries += len(measured.Adj)
	}
	if w.beta > 0 {
		slabEntries *= 2
	}
	rep.add("pointprocess.deploy_ms", durMs(t1.Sub(t0)), "ms", 1, "")
	rep.add("pointprocess.points", float64(len(pts)), "count", 1, "")
	rep.add("rgg.base_ms", durMs(t2.Sub(t1)), "ms", 1, "")
	rep.add("rgg.base_edges", float64(base.EdgeCount), "count", 1, "")
	rep.add("rgg.base_mb", baseBytes/mb, "MB", 1, "computed from CSR lengths")
	rep.add("core.sens_ms", durMs(t3.Sub(t2)), "ms", 1, "base supplied, so base time excluded")
	rep.add("core.good_tiles", float64(net.Stats.GoodTiles), "count", 1, "")
	rep.add("core.members", float64(len(net.Members)), "count", 1, "")
	rep.add("core.sens_edges", float64(net.Graph.EdgeCount), "count", 1, "")
	rep.add("core.election_messages", float64(net.Stats.ElectionMessages), "count", 1, "")
	rep.add("core.handshake_attempts", float64(net.Stats.HandshakeAttempts), "count", 1, "")
	rep.add("power.slab_ms", durMs(t4.Sub(t3)), "ms", 1, "weight-slab fill the first query pays")
	rep.add("power.slab_mb", 8*float64(slabEntries)/mb, "MB", 1, "computed from slab lengths")

	if len(pts) != served.Points || len(net.Members) != served.Members ||
		net.Graph.EdgeCount != served.Edges || base.EdgeCount != servedBase ||
		net.GoodFraction() != served.GoodFraction {
		return fmt.Errorf("rebuilt points=%d members=%d edges=%d base=%d good=%v, served points=%d members=%d edges=%d base=%d good=%v",
			len(pts), len(net.Members), net.Graph.EdgeCount, base.EdgeCount, net.GoodFraction(),
			served.Points, served.Members, served.Edges, servedBase, served.GoodFraction)
	}
	return nil
}
