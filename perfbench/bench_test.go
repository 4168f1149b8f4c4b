package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/repro/cobra/internal/batch"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		pct  float64
		want float64
		ok   bool
	}{
		{n: 10000, pct: 99.9, want: 9990, ok: true}, // rank 9990: 10 beyond
		{n: 9999, pct: 99, want: 9900, ok: true},    // p99.9 would leave 9
		{n: 1000, pct: 99, want: 990, ok: true},
		{n: 999, pct: 95, want: 950, ok: true}, // p99 rank 990 leaves 9
		{n: 100, pct: 90, want: 90, ok: true},
		{n: 20, pct: 50, want: 10, ok: true},
		{n: 19, ok: false}, // the median leaves only 9 beyond
		{n: 0, ok: false},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(seq(c.n), 10)
		if ok != c.ok || (ok && (pct != c.pct || v != c.want)) {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", c.n, pct, v, ok, c.pct, c.want, c.ok)
		}
	}
}

// metricName is the charset every metric and workload name must match:
// a leading letter or digit, then up to 63 letters, digits, '_', '.' or
// '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the charset of a unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func validName(name string) bool { return metricName.MatchString(name) }

func validUnit(unit string) bool { return metricUnit.MatchString(unit) }

func TestMetricNameCharset(t *testing.T) {
	for _, name := range []string{"trials_per_s", "engine.tiled_round_s", "a-b.c_d", "0x", strings.Repeat("a", 64)} {
		if !validName(name) {
			t.Errorf("%q rejected", name)
		}
	}
	for _, name := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a:b", "é", strings.Repeat("a", 65)} {
		if validName(name) {
			t.Errorf("%q accepted", name)
		}
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !validName(name) || seen[name] {
			t.Errorf("declared name %q invalid or repeated", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.name)
		if !validUnit(m.unit) {
			t.Errorf("%s: unit %q invalid", m.name, m.unit)
		}
	}
	for _, w := range workloads() {
		check(w.name)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// and workloads this program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestDigestGateRejectsOneAlteredByte serves a real job through a proxy
// that can flip one digit of the results stream, and checks the gate
// passes the true bytes and rejects the altered ones.
func TestDigestGateRejectsOneAlteredByte(t *testing.T) {
	svc := batch.NewServer(batch.ServerConfig{Logger: quiet})
	defer svc.Close()
	var tamper atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tamper.Load() || !strings.HasSuffix(r.URL.Path, "/results") {
			svc.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		i := bytes.Index(body, []byte(`"rounds":`)) + len(`"rounds":`)
		body[i] = '0' + (body[i]-'0'+1)%10 // still valid NDJSON
		w.Header().Set("Trailer", batch.StreamTrailer)
		w.WriteHeader(rec.Code)
		w.Write(body)
		w.Header().Set(batch.StreamTrailer, rec.Result().Trailer.Get(batch.StreamTrailer))
	}))
	defer ts.Close()
	c := newClient(ts.URL, nil)
	defer c.close()

	spec := jobSpec{campaign: &batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: 8, Seed: 5, Workers: 1}}
	honest := c.runJob(context.Background(), spec, 0)
	tamper.Store(true)
	altered := c.runJob(context.Background(), spec, 0)

	g := &gate{}
	if err := g.compute([]opResult{honest, altered}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.check(honest); err != nil {
		t.Fatalf("true stream rejected: %v", err)
	}
	if altered.err != nil {
		t.Fatalf("altered stream failed before the gate: %v", altered.err)
	}
	if altered.lines != honest.lines {
		t.Fatalf("altered stream has %d lines, want %d", altered.lines, honest.lines)
	}
	if err := g.check(altered); err == nil {
		t.Fatal("stream with one altered byte passed the gate")
	}
}

func TestParsePromDeltas(t *testing.T) {
	before := `# HELP cobrad_journal_fsync_seconds Fsync latency.
# TYPE cobrad_journal_fsync_seconds histogram
cobrad_journal_fsync_seconds_bucket{le="0.001"} 3
cobrad_journal_fsync_seconds_bucket{le="+Inf"} 4
cobrad_journal_fsync_seconds_sum 0.0125
cobrad_journal_fsync_seconds_count 4
# TYPE cobrad_fleet_leases_granted_total counter
cobrad_fleet_leases_granted_total{worker="w1"} 5
cobrad_fleet_leases_granted_total{worker="w 2 {odd} \"q\""} 7
cobrad_journal_appends_total 100
`
	after := `cobrad_journal_fsync_seconds_bucket{le="0.001"} 9
cobrad_journal_fsync_seconds_bucket{le="+Inf"} 10
cobrad_journal_fsync_seconds_sum 0.0425
cobrad_journal_fsync_seconds_count 10
cobrad_fleet_leases_granted_total{worker="w1"} 9
cobrad_fleet_leases_granted_total{worker="w 2 {odd} \"q\""} 8
cobrad_fleet_leases_granted_total{worker="w3"} 2
cobrad_journal_appends_total 160 1700000000000
`
	p0, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := p1.sub(p0)
	approx := func(name string, got, want float64) {
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	approx("fsync sum", d.total("cobrad_journal_fsync_seconds_sum"), 0.03)
	approx("fsync count", d.total("cobrad_journal_fsync_seconds_count"), 6)
	approx("granted (all workers, new series from 0)", d.total("cobrad_fleet_leases_granted_total"), 4+1+2)
	approx("appends (timestamped sample)", d.total("cobrad_journal_appends_total"), 60)
	approx("granted before", p0.total("cobrad_fleet_leases_granted_total"), 12)
	if got := d.total("cobrad_journal_fsync_seconds"); got != 0 {
		t.Errorf("histogram base name matched its _sum/_count series: %g", got)
	}
	if _, err := parseProm(strings.NewReader(`broken{le="1" 3` + "\n")); err == nil {
		t.Error("unterminated label set accepted")
	}
	if _, err := parseProm(strings.NewReader("x notanumber\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestDeriveIsStableAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		s := derive(42, i)
		if s != derive(42, i) || s >= 1<<53 || seen[s] {
			t.Fatalf("derive(42, %d) = %d unstable, too wide or repeated", i, s)
		}
		seen[s] = true
	}
}

func TestParseStolen(t *testing.T) {
	stat := "cpu  4820473 0 145108 2968632 58430 0 21046 128905 0 0\n" +
		"cpu0 2410000 0 72000 1484000 29000 0 10000 64000 0 0\n" +
		"cpu1 2410473 0 73108 1484632 29430 0 11046 64905 0 0\n" +
		"intr 123 4 5\nctxt 99\n"
	if got, want := parseStolen(stat), 128905.0/100/2; got != want {
		t.Errorf("parseStolen = %g, want %g", got, want)
	}
	for _, bad := range []string{"", "intr 1\n", "cpu 1 2 3\ncpu0 1 2 3\n", "cpu 1 2 3 4 5 6 7 x\ncpu0 0\n"} {
		if got := parseStolen(bad); got != 0 {
			t.Errorf("parseStolen(%q) = %g, want 0", bad, got)
		}
	}
	if v := stolenSeconds(); v < 0 {
		t.Errorf("stolenSeconds = %g", v)
	}
}

func TestMedianOfClassesSpansTheGap(t *testing.T) {
	// Alternating fast and slow jobs: a median over all ten reads the gap
	// between the kinds, the class medians do not.
	byClass := map[string][]float64{
		"cobra": {1.0, 1.4, 1.1, 1.2, 1.3},
		"bips":  {2.9, 2.5, 2.7, 2.6, 2.8},
	}
	if got, want := medianOfClasses(byClass), (1.2+2.7)/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("medianOfClasses = %g, want %g", got, want)
	}
	if got := medianOfClasses(map[string][]float64{"sweep": {3, 1, 2}}); got != 2 {
		t.Errorf("one class: %g, want its median 2", got)
	}
	if got := medianOfClasses(nil); got != 0 {
		t.Errorf("no jobs: %g, want 0", got)
	}
}
