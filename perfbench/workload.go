package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// jobSpec is one job a client submits: a campaign or a sweep.
type jobSpec struct {
	campaign *batch.Spec
	sweep    *batch.SweepSpec
}

// kind is the job's URL collection: "campaigns" or "sweeps".
func (j jobSpec) kind() string {
	if j.sweep != nil {
		return "sweeps"
	}
	return "campaigns"
}

// class names the kind of job, so latencies of jobs of different kinds
// are summarized apart: the campaign's process, or "sweep".
func (j jobSpec) class() string {
	if j.sweep != nil {
		return "sweep"
	}
	return j.campaign.Process
}

func (j jobSpec) trials() int {
	if j.sweep != nil {
		return j.sweep.CellCount() * j.sweep.Trials
	}
	return j.campaign.Trials
}

// body is the submission's JSON body; it doubles as the key under which
// the digest gate memoizes the library result of identical specs.
func (j jobSpec) body() []byte {
	var v any = j.campaign
	if j.sweep != nil {
		v = j.sweep
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints, strings and floats always marshal
	}
	return b
}

// workload is one traffic mix: its clients, the job sequence they draw
// from, and the service configuration it runs against.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop clients.
	clients int
	// cycle is the number of jobs a client runs between deadline checks,
	// so every window holds whole cycles of the job mix.
	cycle int
	// fleet routes sweep cells through a coordinator and in-process
	// workers instead of computing them in the server.
	fleet bool
	// retain is the server's RetainResults; historyEvery > 0 makes every
	// historyEvery-th client iteration also re-read a job already evicted
	// past it.
	retain       int
	historyEvery int
	// rssJobs is the job count after which peak_rss_mb is read, so the
	// figure covers the same work on every run; 0 reads it at the
	// window's end.
	rssJobs int
	// job returns job i of the workload's sequence for a run seed.
	job func(seed uint64, i int) jobSpec
	// warmup is the set-up job: it compiles the workload's graphs (or, for
	// workloads whose jobs never share a graph, graphs of the same shape).
	warmup func(seed uint64) jobSpec
	// sample is the number of leading jobs whose specs the traced run
	// replays layer by layer, and sampleTrials the trials replayed per
	// campaign or sweep cell.
	sample, sampleTrials int
}

// Fleet timers of the sweep-fleet workload, far below a cell's
// duration so no latency waits on a timer default.
const (
	fleetPoll      = 10 * time.Millisecond
	fleetHeartbeat = 100 * time.Millisecond
	fleetTTL       = 5 * time.Second
	fleetWorkers   = 2
)

// fleetGraphs are the eight graph families of a sweep-fleet sweep: the
// heavy-tailed and small-world families of the paper's m + d_max² ln n
// bound beside r-regular expanders, all at n = 3·10⁴.
var fleetGraphs = []string{
	"ba:30000:3", "ba:30000:4", "ba:30000:5",
	"rreg:30000:3", "rreg:30000:4", "rreg:30000:6",
	"ws:30000:4:0.1", "ws:30000:6:0.2",
}

// warmTag separates set-up seeds from job seeds.
const warmTag = 0x5e70a11

func workloads() []*workload {
	nproc := runtime.NumCPU()
	campaignLarge := &workload{
		name:    "campaign-large",
		why:     "two 32-trial rreg:200000:3 campaigns per cycle on one compiled graph: the engine is over 90% of the time, service layers near zero",
		clients: 1,
		cycle:   2,
		job: func(seed uint64, i int) jobSpec {
			proc := "cobra"
			if i%2 == 1 {
				proc = "bips"
			}
			return jobSpec{campaign: &batch.Spec{Graph: "rreg:200000:3", Process: proc, Branch: 2, Trials: 32, Seed: derive(seed, 0), Workers: nproc}}
		},
		warmup: func(seed uint64) jobSpec {
			return jobSpec{campaign: &batch.Spec{Graph: "rreg:200000:3", Process: "cobra", Branch: 2, Trials: 1, Seed: derive(seed, 0), Workers: nproc}}
		},
		sample:       2,
		sampleTrials: 4,
	}
	jobsSmall := &workload{
		name:         "jobs-small",
		why:          "two clients of 32-trial rreg:1024:3 jobs, one seed each, plus evicted-job re-reads: HTTP, fsyncs, queue and stream encoding dominate",
		clients:      2,
		cycle:        1,
		retain:       32,
		historyEvery: 4,
		rssJobs:      1024,
		job: func(seed uint64, i int) jobSpec {
			return jobSpec{campaign: smallSpec(derive(seed, uint64(i)))}
		},
		warmup: func(seed uint64) jobSpec {
			return jobSpec{campaign: smallSpec(derive(seed^warmTag, 0))}
		},
		sample:       8,
		sampleTrials: 32,
	}
	sweepFleet := &workload{
		name:    "sweep-fleet",
		why:     "sweeps of 8 fresh n=30000 ba/rreg/ws graphs x cobra,bips leased to 2 in-process workers: graph builds and the lease protocol show",
		clients: 1,
		cycle:   1,
		fleet:   true,
		job: func(seed uint64, i int) jobSpec {
			return jobSpec{sweep: fleetSweep(derive(seed, uint64(i)), 16)}
		},
		warmup: func(seed uint64) jobSpec {
			return jobSpec{sweep: fleetSweep(derive(seed^warmTag, 0), 1)}
		},
		sample:       1,
		sampleTrials: 2,
	}
	return []*workload{campaignLarge, jobsSmall, sweepFleet}
}

func smallSpec(seed uint64) *batch.Spec {
	return &batch.Spec{Graph: "rreg:1024:3", Process: "cobra", Branch: 2, Trials: 32, Seed: seed, Workers: 1}
}

func fleetSweep(seed uint64, trials int) *batch.SweepSpec {
	return &batch.SweepSpec{
		Graphs: fleetGraphs, Processes: []string{"cobra", "bips"}, Branches: []int{2},
		Trials: trials, Seed: seed, Workers: 1, CellWorkers: 4,
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// derive maps (seed, i) to an independent 53-bit seed (splitmix64
// finalizer), so job seeds are a pure function of the run seed and stay
// exact in any JSON reader.
func derive(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & (1<<53 - 1)
}
