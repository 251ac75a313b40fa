package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// tiny returns a serving workload on an 8×8 snapshot, small enough for a
// smoke run of every code path.
func tiny(kind string) servingWorkload {
	w := servingWorkloads["route-14k"]
	if kind == "stretch" {
		w = servingWorkloads["stretch-100k"]
	}
	w.name = "tiny-" + kind
	w.spec.Side = 8
	w.setups, w.bodies, w.checkEvery = 2, 64, 2
	return w
}

func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 5, seconds: 0.3, trace: trace, out: t.TempDir()}
}

// checkResult asserts a correct run that reports exactly the metrics of
// its mode.
func checkResult(t *testing.T, res result, err error, trace bool, out string) {
	t.Helper()
	if err != nil {
		t.Fatalf("run failed: %v\n%s", err, out)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v, want correct with attempts\n%s", res, out)
	}
	names := endToEnd
	if trace {
		names, _ = perLayerNames()
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		if !ok {
			t.Errorf("metric %s missing", n)
		} else if !trace && m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
		}
	}
}

// spanNames reads the span names of a trace file.
func spanNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		names[s.Name] = true
	}
	return names
}

func TestServingSmoke(t *testing.T) {
	for _, kind := range []string{"route", "stretch"} {
		for _, trace := range []bool{false, true} {
			w, cfg := tiny(kind), smokeConfig(t, trace)
			var out bytes.Buffer
			res, err := runServing(w, cfg, newReport(&out))
			checkResult(t, res, err, trace, out.String())
			if !trace {
				continue
			}
			got := spanNames(t, filepath.Join(cfg.out, "trace-"+w.name+"-5.jsonl"))
			for _, want := range []string{spanClient, spanHandler, spanBatcher, spanPairs,
				spanRebuild, spanDeploy, spanBase, spanSENS, spanSlabs} {
				if !got[want] {
					t.Errorf("%s trace has no %s span", kind, want)
				}
			}
		}
	}
}

func TestSuiteSmoke(t *testing.T) {
	t.Chdir("..") // the checkout root, where the benchmark runs
	for _, tc := range []struct {
		cfg   scenario.Config
		trace bool
	}{
		{goldenCfg, false}, // byte-compared with the goldens
		{scenario.Config{Seed: 7, Scale: 0.15}, true}, // structural checks
	} {
		s := suiteSpec{name: "suite-smoke", cfg: tc.cfg, ids: []string{"E01", "E03"}}
		cfg := smokeConfig(t, tc.trace)
		var out bytes.Buffer
		res, err := runSuite(s, cfg, newReport(&out))
		checkResult(t, res, err, tc.trace, out.String())
		if tc.trace {
			got := spanNames(t, filepath.Join(cfg.out, "trace-suite-smoke-5.jsonl"))
			for _, want := range []string{spanSuite, spanScenario + "E01", spanScenario + "E03"} {
				if !got[want] {
					t.Errorf("suite trace has no %s span", want)
				}
			}
		}
	}
}

// TestTamperedResponseFails feeds the checker real daemon answers, then
// the same answers with one field changed, a refused request and a foreign
// snapshot id.
func TestTamperedResponseFails(t *testing.T) {
	for _, kind := range []string{"route", "stretch"} {
		w := tiny(kind)
		d, _, err := setUp(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		snap := d.srv.Store().Current()
		queries, bodies := genQueries(w, snap.Members, 5)
		c := newClient(1)
		var calls []call
		for q := 0; q < 4; q++ {
			status, body, err := post(c, d.url+w.path(), bodies[2*q], -1)
			if err != nil {
				t.Fatal(err)
			}
			calls = append(calls, call{id: int64(q), q: 2 * q, status: status, body: body})
		}
		c.CloseIdleConnections()
		if err := d.stop(); err != nil {
			t.Fatal(err)
		}
		if failed, err := newOracle(w, snap).checkCalls(queries, calls); failed != 0 {
			t.Fatalf("%s: untampered answers failed: %v", kind, err)
		}

		tamper := func(body []byte, edit func(m map[string]any)) []byte {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatal(err)
			}
			edit(m)
			b, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		bad := []call{
			{id: 0, q: calls[0].q, status: http.StatusOK, body: tamper(calls[0].body, func(m map[string]any) {
				r := m["results"].([]any)[0].(map[string]any)
				r["euclid"] = r["euclid"].(float64) * (1 + 1e-15)
			})},
			{id: 1, q: calls[1].q, status: http.StatusOK, body: tamper(calls[1].body, func(m map[string]any) {
				m["snapshot"] = "0000000000000000"
			})},
			{id: 2, q: calls[2].q, status: http.StatusTooManyRequests, body: calls[2].body},
			{id: 3, q: calls[3].q, status: http.StatusOK, body: calls[3].body[:len(calls[3].body)/2]},
		}
		if failed, _ := newOracle(w, snap).checkCalls(queries, bad); failed != len(bad) {
			t.Errorf("%s: %d of %d tampered answers reported failed", kind, failed, len(bad))
		}
	}
}

// TestTamperedTableFails checks both table checkers against altered tables.
func TestTamperedTableFails(t *testing.T) {
	scs, err := scenario.Match([]string{"E01"})
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir("..")
	goldens, err := loadGoldens(scs)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := scenario.NewEngine(nil).Run(goldenCfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	sc, tab := scs[0], tables[0]
	if err := checkTable(sc, tab, goldens["E01"], true); err != nil {
		t.Fatalf("untampered table: %v", err)
	}
	if err := checkTable(sc, tab, "", false); err != nil {
		t.Fatalf("untampered table, structural check: %v", err)
	}
	edit := func(f func(*scenario.Table)) *scenario.Table {
		c := *tab
		c.Rows = make([][]string, len(tab.Rows))
		for i, r := range tab.Rows {
			c.Rows[i] = append([]string(nil), r...)
		}
		f(&c)
		return &c
	}
	changed := edit(func(c *scenario.Table) { c.Rows[0][len(c.Rows[0])-1] += "0" })
	if checkTable(sc, changed, goldens["E01"], true) == nil {
		t.Error("a changed cell matched the golden")
	}
	for name, bad := range map[string]*scenario.Table{
		"ERR cell":  edit(func(c *scenario.Table) { c.Rows[0][0] = "ERR: boom" }),
		"NaN cell":  edit(func(c *scenario.Table) { c.Rows[0][1] = "NaN" }),
		"short row": edit(func(c *scenario.Table) { c.Rows[0] = c.Rows[0][:1] }),
		"no rows":   edit(func(c *scenario.Table) { c.Rows = nil }),
	} {
		if checkTable(sc, bad, "", false) == nil {
			t.Errorf("%s passed the structural check", name)
		}
	}
	if checkTable(sc, nil, "", false) == nil {
		t.Error("a missing table passed")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "route-14k", "--trace", "2"},
		{"--workload", "route-14k", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(stdout.String(), `"correct"`) {
			t.Errorf("%v printed a result line", args)
		}
	}
}

// TestQuietKeepsFastestQuarter checks that loop.quiet keeps the quarter
// of the windows that completed the most calls.
func TestQuietKeepsFastestQuarter(t *testing.T) {
	start := time.Unix(0, 0)
	var l loop
	l.start, l.elapsed = start, 8*time.Second
	// Windows 2 and 5 complete ten 1 ms calls each; the other six
	// complete two 50 ms calls each.
	for w := range 8 {
		n, lat := 2, 50*time.Millisecond
		if w == 2 || w == 5 {
			n, lat = 10, time.Millisecond
		}
		for i := range n {
			end := start.Add(time.Duration(w)*time.Second + time.Duration(i+1)*50*time.Millisecond)
			l.calls = append(l.calls, call{start: end.Add(-lat), end: end})
		}
	}
	q := l.quiet(time.Second, 0.99)
	if q.windows != 8 || q.kept != 2 || q.calls != 20 {
		t.Fatalf("windows=%d kept=%d calls=%d, want 8, 2, 20", q.windows, q.kept, q.calls)
	}
	if q.qps != 10 || q.p50 != 1 || q.tail != 1 {
		t.Errorf("qps=%v p50=%v tail=%v, want 10, 1, 1", q.qps, q.p50, q.tail)
	}
	if whole := l.quiet(0, 0.99); whole.windows != 1 || whole.calls != 32 || whole.tail != 50 {
		t.Errorf("span 0: windows=%d calls=%d tail=%v, want 1, 32, 50", whole.windows, whole.calls, whole.tail)
	}
}
