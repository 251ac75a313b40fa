package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	_ "repro/internal/experiments" // registers the scenarios
	"repro/internal/scenario"
)

// suiteSpec is a scenario-engine workload, run through scenario.Engine
// with Jobs=1 like the CLI default. One operation is one full pass.
type suiteSpec struct {
	name string
	cfg  scenario.Config
	// ids selects scenarios; nil runs every registered one.
	ids []string
}

// goldenCfg is the configuration internal/experiments/testdata pins.
var goldenCfg = scenario.Config{Seed: 2026, Scale: 0.15}

var suiteWorkload = suiteSpec{name: "paper-suite", cfg: goldenCfg}

// timingSink keeps the per-scenario wall times the engine reports; the
// tables themselves are checked from Run's return value.
type timingSink struct {
	tr    *tracer // nil when untraced
	pass  int64
	times map[string][]float64 // scenario ID → ms per pass
}

func (s *timingSink) BeginTable(scenario.Header) error { return nil }
func (s *timingSink) Row([]string) error               { return nil }
func (s *timingSink) Note(string) error                { return nil }
func (s *timingSink) EndTable() error                  { return nil }

func (s *timingSink) Timing(id string, d time.Duration) error {
	s.times[id] = append(s.times[id], durMs(d))
	if s.tr != nil {
		end := now()
		s.tr.record(spanScenario+id, spanSuite, s.pass, end.Add(-d), end)
	}
	return nil
}

// loadGoldens reads the pinned table of every scenario in scs from the
// checkout the benchmark runs in.
func loadGoldens(scs []scenario.Scenario) (map[string]string, error) {
	out := map[string]string{}
	for _, sc := range scs {
		b, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", "golden_"+sc.ID+".txt"))
		if err != nil {
			return nil, fmt.Errorf("golden table: %w", err)
		}
		out[sc.ID] = string(b)
	}
	return out, nil
}

// checkTable checks one scenario's table: byte-equal to its golden when
// there is one, otherwise every row fills the declared columns and no
// cell reports an error or NaN.
func checkTable(sc scenario.Scenario, tab *scenario.Table, golden string, haveGolden bool) error {
	switch {
	case tab == nil:
		return fmt.Errorf("%s: no table", sc.ID)
	case tab.ID != sc.ID:
		return fmt.Errorf("%s: table is labelled %s", sc.ID, tab.ID)
	case haveGolden:
		if tab.String() != golden {
			return fmt.Errorf("%s: table differs from its golden", sc.ID)
		}
		return nil
	case len(tab.Columns) == 0 || len(tab.Rows) == 0:
		return fmt.Errorf("%s: %d columns, %d rows", sc.ID, len(tab.Columns), len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			return fmt.Errorf("%s row %d: %d cells for %d columns", sc.ID, i, len(row), len(tab.Columns))
		}
		for _, cell := range row {
			if strings.HasPrefix(cell, "ERR:") || strings.Contains(cell, "NaN") {
				return fmt.Errorf("%s row %d: cell %q", sc.ID, i, cell)
			}
		}
	}
	return nil
}

// runSuite measures the scenario suite.
func runSuite(s suiteSpec, cfg runConfig, rep *report) (result, error) {
	scs := scenario.All()
	if s.ids != nil {
		var err error
		if scs, err = scenario.Match(s.ids); err != nil {
			return result{}, err
		}
	}
	var goldens map[string]string
	if s.cfg == goldenCfg {
		var err error
		if goldens, err = loadGoldens(scs); err != nil {
			return result{}, err
		}
	}
	rep.note("load scenario.Engine.Run seed=%d scale=%v scenarios=%d jobs=1 golden-compared=%v",
		s.cfg.Seed, s.cfg.Scale, len(scs), goldens != nil)

	attempted, failed := 0, 0
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	pass := func(sink *timingSink) (*scenario.Engine, time.Duration, error) {
		eng := scenario.NewEngine(sink)
		eng.Jobs = 1
		t0 := now()
		tables, err := eng.Run(s.cfg, scs)
		t1 := now()
		if err != nil {
			return nil, 0, err
		}
		if sink.tr != nil {
			sink.tr.record(spanSuite, "", sink.pass, t0, t1)
		}
		attempted += len(scs)
		for i, sc := range scs {
			var tab *scenario.Table
			if i < len(tables) {
				tab = tables[i]
			}
			golden, ok := goldens[sc.ID]
			if err := checkTable(sc, tab, golden, ok); err != nil {
				failed++
				rep.note("check FAILED: %v", err)
			}
		}
		return eng, t1.Sub(t0), nil
	}

	// Set-up: the process's first pass, untimed.
	_, setup, err := pass(&timingSink{times: map[string][]float64{}})
	if err != nil {
		return result{}, err
	}
	runtime.GC()

	dur := time.Duration(cfg.seconds * float64(time.Second))
	sink := &timingSink{tr: tr, times: map[string][]float64{}}
	var eng *scenario.Engine
	var walls []float64
	var total time.Duration
	m0 := readMem()
	for len(walls) == 0 || total < dur {
		var el time.Duration
		if eng, el, err = pass(sink); err != nil {
			return result{}, err
		}
		walls = append(walls, durS(el))
		total += el
		sink.pass++
	}
	mem := memDiff(m0, readMem())
	heap := liveHeapMB()
	runtime.KeepAlive(eng)
	peak, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	for _, sc := range scs {
		ts := sink.times[sc.ID]
		rep.add("scenario."+sc.ID+"_s", median(ts)/1e3, "s", len(ts), "median over timed passes")
	}
	if cfg.trace {
		cs := eng.Cache.Stats()
		sh, sm := eng.Slabs.Stats()
		rep.note("untraced-equivalent suite_s=%.6g s n=%d (spans come from the TimingSink callbacks every run receives, so tracing adds no work)",
			median(walls), len(walls))
		rep.add("scenario.cache_hits", float64(cs.Hits), "count", 1, "last pass")
		rep.add("scenario.cache_misses", float64(cs.Misses), "count", 1, "last pass")
		rep.add("scenario.slab_hits", float64(sh), "count", 1, "last pass")
		rep.add("scenario.slab_misses", float64(sm), "count", 1, "last pass")
		rep.add("runtime.gc_cycles", float64(mem.gcs), "count", len(walls), "timed passes")
		rep.add("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6, "ms", int(mem.gcs), "timed passes, total")
		path, err := tr.write(cfg.out, s.name, cfg.seed)
		if err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		rep.note("trace %d spans written to %s", len(tr.spans), path)
		return finish(rep, true, attempted, failed)
	}

	// A pass is the operation. Per-table latencies cover windows of a few
	// hundred milliseconds: on a 2-vCPU VM whose host stole a quarter of
	// the CPU, their spread over ten runs was 0.19 of the median against
	// 0.11 for whole passes.
	rep.add("setup_s", durS(setup), "s", 1, "first RunAll of the process, untimed")
	rep.add("ops_per_s", float64(len(walls))/total.Seconds(), "1/s", len(walls), "full passes per second")
	rep.add("p50_ms", median(walls)*1e3, "ms", len(walls), "suite_s in ms: median wall time of one pass")
	rep.add("tail_ms", slices.Max(walls)*1e3, "ms", len(walls), "slowest pass: too few passes for a percentile with ten beyond")
	rep.add("peak_rss_mb", peak, "MB", 1, "process VmHWM after the timed passes")
	rep.add("heap_mb", heap, "MB", 1, "live heap after the last pass, its engine caches held")
	return finish(rep, false, attempted, failed)
}
