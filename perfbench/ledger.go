package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/store"
	"github.com/repro/cobra/internal/xrand"
)

// replay is the engine layer replayed step by step: the sampled trials
// of the workload's leading jobs, rebuilt through graphspec.Parse and
// engine.NewCobraWith/NewBipsWith, each Step timed on its own.
type replay struct {
	compile  []float64 // graphspec.Parse seconds per distinct graph
	tiled    []float64 // Step seconds of rounds the kernel ran tiled
	sparse   []float64 // ... and sparse
	trials   int
	tiledN   int
	sparseN  int
	sent     int64
	rounds   []float64           // per-trial round counts (stats fold input)
	results  []batch.TrialResult // replayed results (encode input)
	mismatch []string            // replayed trials that differ from the library
}

// sampleSpecs returns the campaign specs the traced run replays — the
// cells of sweep jobs — and, for each, the library result it must match
// and the offset of the spec's results within it.
func sampleSpecs(w *workload, seed uint64, g *gate) (specs []batch.Spec, refs []libResult, offsets []int) {
	seen := map[string]bool{}
	for i := 0; i < w.sample; i++ {
		job := w.job(seed, i)
		key := string(job.body())
		if seen[key] {
			continue
		}
		seen[key] = true
		if job.sweep == nil {
			specs = append(specs, *job.campaign)
			refs = append(refs, g.lib[key])
			offsets = append(offsets, 0)
			continue
		}
		for c, cell := range job.sweep.Cells() {
			specs = append(specs, cell)
			refs = append(refs, g.lib[key])
			offsets = append(offsets, c*job.sweep.Trials)
		}
	}
	return specs, refs, offsets
}

// replayEngine replays the first trials of each sampled spec.
func replayEngine(w *workload, seed uint64, g *gate, tr *tracer) (*replay, error) {
	rp := &replay{}
	specs, refs, offsets := sampleSpecs(w, seed, g)
	graphs := map[string]*graph.Graph{}
	ws := engine.NewWorkspace()
	for i, spec := range specs {
		gkey := fmt.Sprintf("%s#%d", spec.Graph, spec.Seed)
		gr, ok := graphs[gkey]
		if !ok {
			start := time.Now()
			var err error
			gr, err = graphspec.Parse(spec.Graph, spec.Seed)
			if err != nil {
				return nil, err
			}
			end := time.Now()
			tr.record("graph.compile", 0, gkey, start, end)
			rp.compile = append(rp.compile, end.Sub(start).Seconds())
			graphs[gkey] = gr
		}
		n := min(w.sampleTrials, spec.Trials)
		for k := 0; k < n; k++ {
			res, err := rp.trial(ws, gr, spec, k, tr)
			if err != nil {
				return nil, err
			}
			idx := offsets[i] + k
			if idx >= len(refs[i].results) || refs[i].results[idx] != res {
				rp.mismatch = append(rp.mismatch, fmt.Sprintf("%s %s trial %d", gkey, spec.Process, k))
			}
		}
	}
	return rp, nil
}

// trial replays trial k of spec exactly as batch.Campaign does — the
// kernel seed is the first draw of stream (Seed, k) — timing each Step.
func (rp *replay) trial(ws *engine.Workspace, g *graph.Graph, spec batch.Spec, k int, tr *tracer) (batch.TrialResult, error) {
	par := engine.Params{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy, Workers: 1}
	seed := xrand.NewStream(spec.Seed, uint64(k)).Uint64()
	var kern *engine.Kernel
	var err error
	if spec.Process == "cobra" {
		kern, err = engine.NewCobraWith(ws, g, par, []int{spec.Start}, seed)
	} else {
		kern, err = engine.NewBipsWith(ws, g, par, spec.Start, seed)
	}
	if err != nil {
		return batch.TrialResult{}, err
	}
	trialStart := time.Now()
	parent := tr.open("engine.trial", 0, trialStart)
	limit := engine.DefaultMaxRounds(g.N())
	for !kern.Complete() {
		if kern.Round() >= limit {
			return batch.TrialResult{}, fmt.Errorf("replay: round limit on %s", spec.Graph)
		}
		tiled, sparse := kern.TiledRounds(), kern.SparseRounds()
		start := time.Now()
		kern.Step()
		end := time.Now()
		d := end.Sub(start).Seconds()
		switch {
		case kern.TiledRounds() > tiled:
			rp.tiled = append(rp.tiled, d)
			tr.record("engine.step.tiled", parent, "", start, end)
		case kern.SparseRounds() > sparse:
			rp.sparse = append(rp.sparse, d)
			tr.record("engine.step.sparse", parent, "", start, end)
		default:
			tr.record("engine.step.dense", parent, "", start, end)
		}
	}
	tr.finish(parent, fmt.Sprintf("%s#%d/%s/%d", spec.Graph, spec.Seed, spec.Process, k), time.Now())
	res := batch.TrialResult{
		Trial: k, Rounds: kern.Round(), Sent: kern.Sent(), Coalesced: kern.Coalesced(),
		DenseRounds: kern.DenseRounds(), SparseRounds: kern.SparseRounds(), TiledRounds: kern.TiledRounds(),
	}
	rp.trials++
	rp.tiledN += res.TiledRounds
	rp.sparseN += res.SparseRounds
	rp.sent += res.Sent
	rp.rounds = append(rp.rounds, float64(res.Rounds))
	rp.results = append(rp.results, res)
	return res, nil
}

// microReps repeats each micro-measurement; the median is reported.
const microReps = 5

// foldNanos times stats.Online.Add over the replayed round counts.
func foldNanos(rounds []float64) float64 {
	const adds = 200_000
	var per []float64
	for r := 0; r < microReps; r++ {
		o := stats.NewOnline()
		start := time.Now()
		for i := 0; i < adds; i++ {
			o.Add(rounds[i%len(rounds)])
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/adds)
	}
	return median(per)
}

// encodeNanos times json.Marshal of the replayed TrialResults — the
// per-line encoding of results streams and journals.
func encodeNanos(results []batch.TrialResult) float64 {
	const lines = 100_000
	var per []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		for i := 0; i < lines; i++ {
			if _, err := json.Marshal(results[i%len(results)]); err != nil {
				panic(err)
			}
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/lines)
	}
	return median(per)
}

// resultsReadSeconds times Store.Results iteration over the journals of
// up to 64 of the given jobs.
func resultsReadSeconds(st *store.Store, ids []string, tr *tracer) ([]float64, error) {
	if len(ids) > 64 {
		ids = ids[len(ids)-64:]
	}
	var out []float64
	for _, id := range ids {
		start := time.Now()
		it, err := st.Results(id)
		if err != nil {
			return nil, err
		}
		for it.Next() {
		}
		err = it.Err()
		it.Close()
		if err != nil {
			return nil, err
		}
		end := time.Now()
		tr.record("store.results_read", 0, id, start, end)
		out = append(out, end.Sub(start).Seconds())
	}
	return out, nil
}

// recoverSeconds times Store.Recover over fresh copies of the corpus.
func recoverSeconds(corpus, root string, tr *tracer) (float64, error) {
	var times []float64
	for r := 0; r < 3; r++ {
		dir := filepath.Join(root, fmt.Sprintf("recover%d", r))
		if err := copyDir(corpus, dir); err != nil {
			return 0, err
		}
		st, err := store.Open(dir)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		recs, err := st.Recover()
		end := time.Now()
		if err != nil {
			return 0, err
		}
		if len(recs) < corpusJobs {
			return 0, fmt.Errorf("recover: %d journals, want %d", len(recs), corpusJobs)
		}
		tr.record("store.recover", 0, "", start, end)
		times = append(times, end.Sub(start).Seconds())
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// runtimeSample is a reading of the runtime's own GC accounting.
type runtimeSample struct {
	gcCPU, totalCPU, pauses float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		out.pauses = histogramSum(s[2].Value.Float64Histogram())
	}
	return out
}

// histogramSum estimates a runtime histogram's total from bucket
// midpoints (the finite edge of a half-infinite bucket).
func histogramSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		mid := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		}
		sum += float64(n) * mid
	}
	return sum
}
