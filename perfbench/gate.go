package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// libResult is the library path's output for one spec: the digest of
// the NDJSON a results stream must carry (json.Marshal of each result
// plus a newline, in order), and the wall time per trial it took.
type libResult struct {
	digest      [sha256.Size]byte
	lines       int
	secPerTrial float64
	// results holds the library results, in stream order, of specs the
	// traced run replays (nil otherwise).
	results []batch.TrialResult
}

// digestWriter accumulates NDJSON lines into a sha256 digest.
type digestWriter struct {
	h     hash.Hash
	lines int
}

func (d *digestWriter) add(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // result structs of plain ints always marshal
	}
	d.h.Write(b)
	d.h.Write([]byte{'\n'})
	d.lines++
}

// libraryRun runs spec through batch.Campaign.Run or batch.Sweep.Run —
// no server, store or fleet — keeping the parsed results when keep.
func libraryRun(ctx context.Context, spec jobSpec, keep bool) (libResult, error) {
	var out libResult
	d := digestWriter{h: sha256.New()}
	var start time.Time
	if spec.sweep != nil {
		// A sweep compiles its graphs lazily inside Run, as the fleet's
		// workers do, so the build is part of its time.
		sw, err := batch.CompileSweep(*spec.sweep, nil)
		if err != nil {
			return out, err
		}
		start = time.Now()
		if _, err := sw.Run(ctx, func(r batch.CellResult) {
			d.add(r)
			if keep {
				out.results = append(out.results, r.TrialResult)
			}
		}); err != nil {
			return out, err
		}
	} else {
		// A campaign's graph is built here, outside the timing, so the
		// time is Campaign.Run's alone; graph builds are timed as
		// graph.compile_s.
		c, err := batch.Compile(*spec.campaign, nil)
		if err != nil {
			return out, err
		}
		start = time.Now()
		if _, err := c.Run(ctx, func(r batch.TrialResult) {
			d.add(r)
			if keep {
				out.results = append(out.results, r)
			}
		}); err != nil {
			return out, err
		}
	}
	out.secPerTrial = time.Since(start).Seconds() / float64(spec.trials())
	d.h.Sum(out.digest[:0])
	out.lines = d.lines
	return out, nil
}

// gate is the correctness gate: every job's stream digest must equal the
// library path's for its spec. Identical specs are computed once — the
// determinism contract makes their bytes identical.
type gate struct {
	lib map[string]libResult
}

// compute runs the library path for every distinct spec of ops with par
// concurrent runs; specs whose body is in keep retain their results.
func (g *gate) compute(ops []opResult, par int, keep map[string]bool) error {
	if g.lib == nil {
		g.lib = map[string]libResult{}
	}
	var todo []jobSpec
	for _, op := range ops {
		key := string(op.spec.body())
		if _, seen := g.lib[key]; !seen {
			g.lib[key] = libResult{}
			todo = append(todo, op.spec)
		}
	}
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, spec := range todo {
		wg.Add(1)
		sem <- struct{}{}
		go func(spec jobSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			key := string(spec.body())
			res, err := libraryRun(context.Background(), spec, keep[key])
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("library run: %w", err)
			}
			g.lib[key] = res
		}(spec)
	}
	wg.Wait()
	return firstErr
}

// check reports why op's stream does not match the library bytes for
// its spec, or nil when it does.
func (g *gate) check(op opResult) error {
	if op.err != nil {
		return op.err
	}
	want, ok := g.lib[string(op.spec.body())]
	if !ok {
		return fmt.Errorf("%s: no library result", op.id)
	}
	if op.digest != want.digest || op.lines != want.lines {
		return fmt.Errorf("%s: stream digest %x (%d lines) != library %x (%d lines)",
			op.id, op.digest[:6], op.lines, want.digest[:6], want.lines)
	}
	return nil
}
