// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload through the real cobrad service surface — batch.Server
// behind a loopback HTTP listener over a journaling store.Store, and for
// sweep-fleet a fleet.Coordinator with in-process fleet.Workers — checks
// every job's NDJSON bytes against the library path, and prints its
// metrics. See README.md for the workloads, the metrics and what each
// layer metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload jobs-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Lines before it,
// prefixed "# ", give the environment and sample counts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef declares a reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, as a user of the service
// sees them.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"cpu_s_per_trial", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics of a traced run, one or more per layer.
var perLayer = []metricDef{
	{"graph.compile_s", "s"},
	{"graph.compiles", "count"},
	{"graph.compile_share", "frac"},
	{"engine.tiled_round_s", "s"},
	{"engine.sparse_round_s", "s"},
	{"engine.tiled_rounds_per_trial", "count"},
	{"engine.sparse_rounds_per_trial", "count"},
	{"engine.sent_per_trial", "count"},
	{"engine.trial_s", "s"},
	{"stats.fold_ns", "ns"},
	{"batch.service_tax_s_per_trial", "s"},
	{"batch.submit_s", "s"},
	{"batch.encode_ns_per_line", "ns"},
	{"batch.admission_wait_s", "s"},
	{"batch.cell_wall_s", "s"},
	{"batch.backpressure_stalls", "count"},
	{"store.fsync_s", "s"},
	{"store.fsyncs_per_job", "count"},
	{"store.appends_per_job", "count"},
	{"store.bytes_per_trial", "bytes"},
	{"store.recover_s", "s"},
	{"store.results_read_s", "s"},
	{"fleet.acquire_s", "s"},
	{"fleet.renew_s", "s"},
	{"fleet.complete_s", "s"},
	{"fleet.calls_per_cell", "count"},
	{"fleet.renews_per_cell", "count"},
	{"fleet.idle_acquire_frac", "frac"},
	{"fleet.upload_bytes_per_trial", "bytes"},
	{"fleet.leases_expired", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: campaign-large, jobs-small or sweep-fleet")
	seed := flag.Uint64("seed", 1, "workload seed; every job seed derives from it")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload campaign-large|jobs-small|sweep-fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{w: w, root: root, seed: *seed, seconds: *seconds, traced: *trace == 1}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, line := range b.report {
		fmt.Println("# " + line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one benchmark run.
type bench struct {
	w       *workload
	root    string
	seed    uint64
	seconds int
	traced  bool

	led *fleetLedger

	report []string
}

func (b *bench) printf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

// window is one measured interval of closed-loop traffic.
type window struct {
	ops        []opResult // jobs and history reads, in completion order
	start, end time.Time
	cpu        float64       // process CPU seconds spent in the window
	stolen     float64       // wall seconds the hypervisor took (stolenSeconds)
	rssMB      float64       // VmHWM after the workload's rssJobs jobs
	rssJobs    int           // jobs done when rssMB was read
	prom       promSample    // /metrics delta (traced windows)
	rt         runtimeSample // runtime GC accounting delta
}

func (win *window) seconds() float64 { return win.end.Sub(win.start).Seconds() }

// netSeconds is the window's wall time less the time the hypervisor took
// its CPUs away: the time the program had to run in.
func (win *window) netSeconds() float64 { return win.seconds() - win.stolen }

// jobs returns the window's successful job operations.
func (win *window) jobs() []opResult {
	var out []opResult
	for _, op := range win.ops {
		if !op.history && op.err == nil {
			out = append(out, op)
		}
	}
	return out
}

func (win *window) trials() int {
	n := 0
	for _, op := range win.jobs() {
		n += op.spec.trials()
	}
	return n
}

func (b *bench) run() (*result, error) {
	env := readEnvironment(b.root)
	env.Workload, env.Seed, env.Seconds, env.Trace = b.w.name, b.seed, b.seconds, b.traced
	envJSON, _ := json.Marshal(env)
	b.printf("environment %s", envJSON)
	if b.w.fleet {
		b.printf("fleet timers: poll %v, heartbeat %v, lease ttl %v, %d workers", fleetPoll, fleetHeartbeat, fleetTTL, fleetWorkers)
	}
	b.printf("load: %d closed-loop client(s), GOMAXPROCS %d", b.w.clients, runtime.GOMAXPROCS(0))

	work := filepath.Join(b.root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	tr := newTracer()
	b.led = newFleetLedger(tr)
	corpusDir := filepath.Join(work, "corpus")
	phase := time.Now()
	lap := func(name string) {
		b.printf("phase %s: %.3f s", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	corpus, err := buildCorpus(b.w, corpusDir, b.led, b.seed)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	lap("corpus")
	svc, setupTimes, err := setUp(b.w, corpusDir, work, b.led, b.seed)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	c := newClient(svc.ts.URL, tr)
	defer c.close()
	lap("set-up")

	var next atomic.Int64
	dur := time.Duration(b.seconds) * time.Second
	var windows []*window
	if !b.traced {
		win, err := b.window(svc, c, &next, dur, corpus, false)
		if err != nil {
			return nil, err
		}
		windows = append(windows, win)
	} else {
		// Half the time untraced, half traced: the same service and job
		// sequence, so the difference is the tracing overhead.
		plain, err := b.window(svc, c, &next, dur/2, corpus, false)
		if err != nil {
			return nil, err
		}
		tr.on.Store(true)
		traced, err := b.window(svc, c, &next, dur/2, corpus, true)
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		windows = append(windows, plain, traced)
	}

	lap("measure")

	// Correctness gate, outside every timed window.
	var ops []opResult
	for _, win := range windows {
		ops = append(ops, win.ops...)
	}
	g := &gate{}
	keep := map[string]bool{}
	if b.traced {
		for i := 0; i < b.w.sample; i++ {
			keep[string(b.w.job(b.seed, i).body())] = true
		}
	}
	if err := g.compute(ops, b.gateParallelism(), keep); err != nil {
		return nil, err
	}
	failed := 0
	for _, op := range ops {
		err := g.check(op)
		if err == nil && !op.history {
			var state string
			state, err = c.state(context.Background(), op)
			if err == nil && state != "done" {
				err = fmt.Errorf("%s: state %q, want done", op.id, state)
			}
		}
		if err != nil {
			if failed < 5 {
				fmt.Fprintln(os.Stderr, "perfbench: miss:", err)
			}
			failed++
		}
	}

	lap("gate")

	res := &result{Attempted: len(ops), Metrics: map[string]metricValue{}}
	if !b.traced {
		b.endToEnd(res, windows[0], setupTimes)
	} else {
		// The layer replays are traced too. The fleet's workers stop first,
		// so their idle polling stays out of the fleet ledger.
		svc.stopFleet()
		tr.on.Store(true)
		defer tr.on.Store(false)
		rp, err := replayEngine(b.w, b.seed, g, tr)
		if err != nil {
			return nil, err
		}
		for _, m := range rp.mismatch {
			fmt.Fprintln(os.Stderr, "perfbench: replay differs from library:", m)
		}
		failed += len(rp.mismatch)
		res.Attempted += rp.trials
		if err := b.perLayer(res, windows, svc, g, rp, corpusDir, work, tr); err != nil {
			return nil, err
		}
	}
	res.Failed = failed
	res.Correct = failed == 0
	b.printf("error_rate: %g (%d failed of %d attempted)", float64(failed)/float64(res.Attempted), failed, res.Attempted)
	return res, nil
}

// gateParallelism runs single-worker campaigns side by side and anything
// that parallelizes itself one at a time, so library times per trial
// compare with the service's.
func (b *bench) gateParallelism() int {
	spec := b.w.job(b.seed, 0)
	if spec.campaign != nil && spec.campaign.Workers == 1 {
		return cpus()
	}
	return 1
}

// window runs the workload's closed-loop clients until dur has passed
// and each client has finished a whole job cycle.
func (b *bench) window(svc *service, c *client, next *atomic.Int64, dur time.Duration, corpus []opResult, traced bool) (*window, error) {
	w := b.w
	win := &window{}
	var before promSample
	if traced {
		var err error
		if before, err = settled(c.hc, svc.ts.URL); err != nil {
			return nil, err
		}
	}
	rt0, cpu0, stolen0 := readRuntime(), cpuSeconds(), stolenSeconds()
	win.start = time.Now()
	var mu sync.Mutex
	var finished []opResult // this window's successful jobs, history targets
	var rssErr error
	var wg sync.WaitGroup
	for k := 0; k < w.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 1; ; iter++ {
				if (iter-1)%w.cycle == 0 && time.Since(win.start) >= dur {
					return
				}
				op := c.runJob(context.Background(), w.job(b.seed, int(next.Add(1)-1)), 0)
				var target opResult
				mu.Lock()
				win.ops = append(win.ops, op)
				if op.err == nil {
					finished = append(finished, op)
					if len(finished) == w.rssJobs {
						win.rssMB, rssErr = peakRSSMB()
						win.rssJobs = len(finished)
					}
				}
				history := w.historyEvery > 0 && iter%w.historyEvery == 0
				if history {
					// A job at least retain + 2·clients finishes old has
					// been evicted; until one exists, re-read a recovered
					// corpus job, which the journal serves as well.
					if n := len(finished) - 1 - (w.retain + 2*w.clients); n >= 0 {
						target = finished[n]
					} else {
						target = corpus[(iter/w.historyEvery)%len(corpus)]
					}
				}
				mu.Unlock()
				if history {
					hop := c.history(context.Background(), target, 0)
					mu.Lock()
					win.ops = append(win.ops, hop)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	win.end = time.Now()
	win.cpu = cpuSeconds() - cpu0
	win.stolen = stolenSeconds() - stolen0
	rt1 := readRuntime()
	win.rt = runtimeSample{gcCPU: rt1.gcCPU - rt0.gcCPU, totalCPU: rt1.totalCPU - rt0.totalCPU, pauses: rt1.pauses - rt0.pauses}
	if win.rssJobs == 0 {
		win.rssMB, rssErr = peakRSSMB()
		win.rssJobs = len(finished)
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if traced {
		after, err := settled(c.hc, svc.ts.URL)
		if err != nil {
			return nil, err
		}
		win.prom = after.sub(before)
	}
	return win, nil
}

// endToEnd fills the untraced run's metrics and prints the sample
// counts behind them, plus the workload-specific figures that are not
// defined on every workload.
func (b *bench) endToEnd(res *result, win *window, setupTimes []float64) {
	jobs := win.jobs()
	trials := win.trials()
	var totals, firsts, history []float64
	byClass := map[string][]float64{}
	for _, op := range jobs {
		totals = append(totals, op.total.Seconds())
		byClass[op.spec.class()] = append(byClass[op.spec.class()], op.total.Seconds())
		firsts = append(firsts, op.first.Seconds())
	}
	for _, op := range win.ops {
		if op.history && op.err == nil {
			history = append(history, op.total.Seconds())
		}
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: finite(v), Unit: unitOf(endToEnd, name)}
	}
	// Wall times are net of the time the hypervisor took the CPUs away,
	// which on a shared host varies from run to run by more than the
	// bounds; a job is taken to lose its window's share of it.
	net := win.netSeconds() / win.seconds()
	set("trials_per_s", float64(trials)/win.netSeconds())
	set("job_p50_s", medianOfClasses(byClass)*net)
	set("cpu_s_per_trial", win.cpu/float64(trials))
	set("setup_s", median(setupTimes))
	set("peak_rss_mb", win.rssMB)
	b.printf("window: %.3f s, %d jobs, %d trials; %.3f s stolen by the hypervisor, so %.6g trials/s and job p50 %.6f s before netting it out", win.seconds(), len(jobs), trials, win.stolen, float64(trials)/win.seconds(), medianOfClasses(byClass))
	for _, class := range sortedKeys(byClass) {
		b.printf("job p50 of %s jobs: %.6f s over %d jobs (before netting)", class, median(byClass[class]), len(byClass[class]))
	}
	b.printf("samples: job_p50_s over %d jobs; setup_s median of %d set-ups %v (net of stolen time); peak_rss_mb after %d jobs", len(jobs), len(setupTimes), setupTimes, win.rssJobs)
	b.printf("first_result_s: p50 %.6f s over %d jobs", median(firsts), len(firsts))
	if p, v, ok := tailPercentile(totals, 10); ok {
		b.printf("job_tail_s: p%g = %.6f s over %d jobs", p, v, len(totals))
	} else {
		b.printf("job_tail_s: undefined (%d jobs leave no percentile >= p50 with 10 samples beyond it)", len(totals))
	}
	if len(history) > 0 {
		b.printf("replay_p50_s: %.6f s over %d evicted-job re-reads", median(history), len(history))
	}
}

// perLayer fills the traced run's metrics from the traced window, the
// gate's library runs, the engine replay and the store probes, and
// writes the spans file.
func (b *bench) perLayer(res *result, windows []*window, svc *service, g *gate, rp *replay, corpus, work string, tr *tracer) error {
	plain, win := windows[0], windows[1]
	d := win.prom
	jobs := win.jobs()
	trials := float64(win.trials())
	njobs := float64(len(jobs))

	var submit, tax []float64
	var lib []float64
	var journalBytes int64
	var ids []string
	for _, op := range jobs {
		ref := g.lib[string(op.spec.body())]
		submit = append(submit, op.submit.Seconds())
		lib = append(lib, ref.secPerTrial)
		tax = append(tax, op.total.Seconds()/float64(op.spec.trials())-ref.secPerTrial)
		ids = append(ids, op.id)
		if fi, err := os.Stat(filepath.Join(svc.dir, op.id+".ndjson")); err == nil {
			journalBytes += fi.Size()
		}
	}
	reads, err := resultsReadSeconds(svc.st, ids, tr)
	if err != nil {
		return err
	}
	recoverS, err := recoverSeconds(corpus, work, tr)
	if err != nil {
		return err
	}

	led := b.led
	acquires := led.calls("acquire")
	renews := led.calls("renew")
	completes := led.calls("complete")
	cells := d.total("cobrad_fleet_cells_completed_total")
	compiles := d.total("cobrad_graph_cache_misses_total") + float64(len(led.grantGraphs))

	vals := map[string]float64{
		"graph.compile_s":                median(rp.compile),
		"graph.compiles":                 compiles,
		"graph.compile_share":            ratio(median(rp.compile)*compiles, win.cpu),
		"engine.tiled_round_s":           median(rp.tiled),
		"engine.sparse_round_s":          median(rp.sparse),
		"engine.tiled_rounds_per_trial":  ratio(float64(rp.tiledN), float64(rp.trials)),
		"engine.sparse_rounds_per_trial": ratio(float64(rp.sparseN), float64(rp.trials)),
		"engine.sent_per_trial":          ratio(float64(rp.sent), float64(rp.trials)),
		"engine.trial_s":                 median(lib),
		"stats.fold_ns":                  foldNanos(rp.rounds),
		"batch.service_tax_s_per_trial":  median(tax),
		"batch.submit_s":                 median(submit),
		"batch.encode_ns_per_line":       encodeNanos(rp.results),
		"batch.admission_wait_s":         ratio(d.total("cobrad_admission_wait_seconds_sum"), d.total("cobrad_admission_wait_seconds_count")),
		"batch.cell_wall_s":              ratio(d.total("cobrad_cell_wall_seconds_sum"), d.total("cobrad_cell_wall_seconds_count")),
		"batch.backpressure_stalls":      d.total("cobrad_backpressure_stalls_total"),
		"store.fsync_s":                  ratio(d.total("cobrad_journal_fsync_seconds_sum"), d.total("cobrad_journal_fsync_seconds_count")),
		"store.fsyncs_per_job":           ratio(d.total("cobrad_journal_fsync_seconds_count"), njobs),
		"store.appends_per_job":          ratio(d.total("cobrad_journal_appends_total"), njobs),
		"store.bytes_per_trial":          ratio(float64(journalBytes), trials),
		"store.recover_s":                recoverS,
		"store.results_read_s":           median(reads),
		"fleet.acquire_s":                median(acquires),
		"fleet.renew_s":                  median(renews),
		"fleet.complete_s":               median(completes),
		"fleet.calls_per_cell":           ratio(d.total("cobrad_fleet_leases_granted_total")+float64(len(completes)), cells),
		"fleet.renews_per_cell":          ratio(float64(len(renews)), cells),
		"fleet.idle_acquire_frac":        ratio(float64(led.idle), float64(len(acquires))),
		"fleet.upload_bytes_per_trial":   ratio(float64(led.uploadBytes), d.total("cobrad_fleet_trials_remote_total")),
		"fleet.leases_expired":           d.total("cobrad_fleet_leases_expired_total"),
		"runtime.gc_cpu_frac":            ratio(win.rt.gcCPU, win.rt.totalCPU),
		"runtime.gc_pause_s":             win.rt.pauses,
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: finite(vals[m.name]), Unit: m.unit}
	}

	plainSPT := plain.netSeconds() / float64(plain.trials())
	tracedSPT := win.netSeconds() / trials
	overhead := tracedSPT/plainSPT - 1
	b.printf("traced window: %.3f s, %d jobs, %.0f trials; untraced window: %.3f s, %d trials", win.seconds(), len(jobs), trials, plain.seconds(), plain.trials())
	b.printf("tracing overhead: %+.4f (traced %.6g s/trial vs untraced %.6g s/trial)", overhead, tracedSPT, plainSPT)
	b.printf("samples: engine replay %d trials (%d tiled, %d sparse steps), %d graph compiles timed, %d journal reads, %d acquires, %d renews, %d completes",
		rp.trials, len(rp.tiled), len(rp.sparse), len(rp.compile), len(reads), len(acquires), len(renews), len(completes))

	path := filepath.Join(b.root, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	if err := writeTrace(path, b, res.Metrics, overhead, tr.snapshot()); err != nil {
		return err
	}
	b.printf("spans: %s", path)
	return nil
}

// writeTrace writes the traced run's spans with the per-layer summary
// and the measured tracing overhead.
func writeTrace(path string, b *bench, layers map[string]metricValue, overhead float64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Report   []string               `json:"report"`
		Overhead float64                `json:"tracing_overhead_frac"`
		Layers   map[string]metricValue `json:"per_layer"`
		Spans    []span                 `json:"spans"`
	}{b.report, finite(overhead), layers, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func unitOf(defs []metricDef, name string) string {
	for _, m := range defs {
		if m.name == name {
			return m.unit
		}
	}
	panic("undeclared metric " + name)
}

// ratio is a/b, or 0 when the layer saw no work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
