package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/fleet"
	"github.com/repro/cobra/internal/store"
)

// service is one running cobrad: the job store, the batch server behind
// an httptest listener on loopback and, for fleet workloads, the
// coordinator plus its in-process workers.
type service struct {
	dir string
	st  *store.Store
	svc *batch.Server
	co  *fleet.Coordinator
	ts  *httptest.Server

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// startService opens the store in dir (recovering whatever journals it
// holds), starts the server and, when w.fleet, the coordinator and
// fleetWorkers workers whose HTTP clients report to led.
func startService(w *workload, dir string, led *fleetLedger) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, st: st}
	cfg := batch.ServerConfig{
		CampaignWorkers: cpus(),
		CellWorkers:     4,
		RetainResults:   w.retain,
		Logger:          quiet,
	}
	if w.fleet {
		s.co, err = fleet.NewCoordinator(fleet.CoordinatorConfig{TTL: fleetTTL, Store: st, Logger: quiet})
		if err != nil {
			return nil, err
		}
		cfg.Remote = s.co
	}
	s.svc, err = batch.NewServerWith(cfg, st)
	if err != nil {
		if s.co != nil {
			s.co.Close()
		}
		return nil, err
	}
	var handler http.Handler = s.svc
	if s.co != nil {
		s.co.RegisterMetrics(s.svc.Registry())
		root := http.NewServeMux()
		root.Handle("/v1/leases/", s.co)
		root.Handle("/v1/fleet", s.co)
		root.Handle("/v1/fleet/", s.co)
		root.Handle("/", s.svc)
		handler = root
	}
	s.ts = httptest.NewServer(handler)
	if !w.fleet {
		return s, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := 0; i < fleetWorkers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		wk, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: s.ts.URL,
			ID:          id,
			Poll:        fleetPoll,
			Heartbeat:   fleetHeartbeat,
			Client: &http.Client{Timeout: 30 * time.Second, Transport: &fleetRT{
				base: http.DefaultTransport, worker: id, led: led,
			}},
			Logger: quiet,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			if err := wk.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			}
		}()
	}
	return s, nil
}

// stopFleet stops the fleet workers, if any, and waits for them.
func (s *service) stopFleet() {
	if s.stopWorkers != nil {
		s.stopWorkers()
		s.workers.Wait()
	}
}

// close stops workers, server and coordinator, and waits for them.
func (s *service) close() {
	s.stopFleet()
	if s.co != nil {
		s.co.BeginShutdown()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.co != nil {
		s.co.Close()
	}
	if s.ts != nil {
		s.ts.Close()
	}
}

// Corpus shape: the journals of a prior run that every set-up recovers.
const (
	corpusJobs   = 256
	corpusGraph  = "rreg:64:3"
	corpusTrials = 256
)

// buildCorpus runs a prior service run into dir: corpusJobs finished
// campaigns submitted by cpus() clients, then an orderly shutdown. It
// returns the corpus jobs' ids and specs so history re-reads can target
// them.
func buildCorpus(w *workload, dir string, led *fleetLedger, seed uint64) ([]opResult, error) {
	s, err := startService(&workload{retain: w.retain}, dir, led)
	if err != nil {
		return nil, err
	}
	defer s.close()
	c := newClient(s.ts.URL, nil)
	defer c.close()
	out := make([]opResult, corpusJobs)
	var wg sync.WaitGroup
	errs := make(chan error, cpus())
	for k := 0; k < cpus(); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < corpusJobs; i += cpus() {
				spec := jobSpec{campaign: &batch.Spec{Graph: corpusGraph, Process: "bips", Branch: 2, Trials: corpusTrials, Seed: derive(seed^corpusTag, uint64(i)), Workers: 1}}
				out[i] = c.runJob(context.Background(), spec, 0)
				if out[i].err != nil {
					errs <- fmt.Errorf("corpus job %d: %w", i, out[i].err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	return out, nil
}

// corpusTag separates corpus seeds from job and set-up seeds.
const corpusTag = 0xc0a9005

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setupReps is how many times a run sets the service up; setup_s is the
// median, and the last set-up is the one the run measures against.
const setupReps = 5

// setUp times setupReps full set-ups — store open and recovery of a copy
// of the corpus, server (and coordinator and workers) start, and the
// warm-up job that compiles the workload's graphs — closing all but the
// last. It returns the live service and the set-up times, each net of
// the time the hypervisor took the CPUs away (stolenSeconds).
func setUp(w *workload, corpus, root string, led *fleetLedger, seed uint64) (*service, []float64, error) {
	var times []float64
	for r := 0; r < setupReps; r++ {
		dir := filepath.Join(root, fmt.Sprintf("data%d", r))
		if err := copyDir(corpus, dir); err != nil {
			return nil, nil, err
		}
		start, stolen0 := time.Now(), stolenSeconds()
		s, err := startService(w, dir, led)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		c := newClient(s.ts.URL, nil)
		warm := c.runJob(context.Background(), w.warmup(seed), 0)
		times = append(times, time.Since(start).Seconds()-(stolenSeconds()-stolen0))
		c.close()
		if warm.err != nil {
			s.close()
			return nil, nil, fmt.Errorf("set-up warm-up job: %w", warm.err)
		}
		if r == setupReps-1 {
			return s, times, nil
		}
		s.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}
