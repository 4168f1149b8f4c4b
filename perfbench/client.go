package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// opResult is one client operation: a submitted job followed to its
// stream trailer, or a history re-read of an evicted job's results.
type opResult struct {
	id      string
	spec    jobSpec
	history bool

	start  time.Time
	submit time.Duration // POST → 202 (jobs only)
	first  time.Duration // start → first NDJSON line
	total  time.Duration // start → stream trailer

	digest [sha256.Size]byte
	lines  int
	err    error
}

// client speaks the cobrad HTTP API over loopback.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// opTimeout bounds any single operation so a stuck job fails the run
// instead of hanging it.
const opTimeout = 120 * time.Second

func newClient(base string, tr *tracer) *client {
	if tr == nil {
		tr = newTracer() // disabled
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}}
}

// runJob submits spec and reads its results stream to the trailer.
func (c *client) runJob(ctx context.Context, spec jobSpec, parent int) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	op := opResult{spec: spec, start: time.Now()}
	root := c.tr.open("job", parent, op.start)
	defer func() { c.tr.finish(root, op.id, op.start.Add(op.total)) }()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+spec.kind(), bytes.NewReader(spec.body()))
	if err != nil {
		op.err = err
		return op
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		op.err = fmt.Errorf("submit: %w", err)
		return op
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	op.submit = time.Since(op.start)
	op.id = accepted.ID
	c.tr.record("batch.submit", root, op.id, op.start, op.start.Add(op.submit))
	if resp.StatusCode != http.StatusAccepted || err != nil || op.id == "" {
		op.err = fmt.Errorf("submit: status %d (decode: %v)", resp.StatusCode, err)
		return op
	}
	c.readResults(ctx, &op, root)
	return op
}

// history re-reads the results of a finished job that the server has
// evicted from RAM, so the store serves them from its journal.
func (c *client) history(ctx context.Context, prior opResult, parent int) opResult {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	op := opResult{id: prior.id, spec: prior.spec, history: true, start: time.Now()}
	c.readResults(ctx, &op, parent)
	return op
}

// readResults streams op's results, hashing every byte and noting when
// the first line arrives; the stream must end with the complete trailer.
func (c *client) readResults(ctx context.Context, op *opResult, parent int) {
	name := "batch.stream"
	if op.history {
		name = "store.history_read"
	}
	streamStart := time.Now()
	defer func() {
		op.total = time.Since(op.start)
		c.tr.record(name, parent, op.id, streamStart, op.start.Add(op.total))
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+op.spec.kind()+"/"+op.id+"/results", nil)
	if err != nil {
		op.err = err
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		op.err = fmt.Errorf("results: %w", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		op.err = fmt.Errorf("results: status %d", resp.StatusCode)
		return
	}
	h := sha256.New()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if op.lines == 0 {
				op.first = time.Since(op.start)
			}
			h.Write(line)
			if line[len(line)-1] == '\n' {
				op.lines++
			}
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			op.err = fmt.Errorf("results: %w", err)
			return
		}
	}
	h.Sum(op.digest[:0])
	if trailer := resp.Trailer.Get(batch.StreamTrailer); trailer != batch.StreamComplete {
		op.err = fmt.Errorf("results: stream trailer %q", trailer)
	}
}

// state fetches a job's status and returns its state.
func (c *client) state(ctx context.Context, op opResult) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+op.spec.kind()+"/"+op.id, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("status %s: %w", op.id, err)
	}
	return st.State, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }
