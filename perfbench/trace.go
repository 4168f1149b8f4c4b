package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Times are nanoseconds since the run started;
// spans of one job share its id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while enabled; a disabled tracer records
// nothing and costs one atomic load per call.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t.on.Load() }

// record stores a finished span and returns its id (0 when disabled, so
// children of an unrecorded span carry no parent).
func (t *tracer) record(name string, parent int, job string, start, end time.Time) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span whose children are recorded before it ends; close
// it with finish.
func (t *tracer) open(name string, parent int, start time.Time) int {
	return t.record(name, parent, "", start, start)
}

// finish sets an open span's end and job id.
func (t *tracer) finish(id int, job string, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.spans[id-1].Job = job
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// fleetLedger collects a fleet's lease-protocol calls while tracing is
// on, fed by one fleetRT per worker on the worker's HTTP client.
type fleetLedger struct {
	tr *tracer

	mu          sync.Mutex
	seconds     map[string][]float64 // call name -> durations
	idle        int                  // acquires answered without a cell
	uploadBytes int64                // renew + complete request bodies
	grantGraphs map[string]bool      // worker|graph#seed of every grant
	leaseJob    map[string]string    // lease id -> job id, for span job ids
}

func newFleetLedger(tr *tracer) *fleetLedger {
	return &fleetLedger{tr: tr, seconds: map[string][]float64{}, grantGraphs: map[string]bool{}, leaseJob: map[string]string{}}
}

func (l *fleetLedger) calls(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.seconds[name]...)
}

// fleetRT is a timing RoundTripper on one worker's client. With tracing
// off it only forwards.
type fleetRT struct {
	base   http.RoundTripper
	worker string
	led    *fleetLedger
}

func (f *fleetRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !f.led.tr.enabled() {
		return f.base.RoundTrip(req)
	}
	name := path.Base(req.URL.Path) // register, acquire, renew, complete
	var sent struct {
		Lease string `json:"lease"`
	}
	if req.GetBody != nil && (name == "renew" || name == "complete") {
		if body, err := req.GetBody(); err == nil {
			_ = json.NewDecoder(body).Decode(&sent) // span job id only
			body.Close()
		}
	}
	start := time.Now()
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	// Read the (small JSON) answer inside the timed call so each call is
	// timed to its last byte, then hand the worker an equivalent body.
	raw, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	if rerr != nil {
		return resp, nil // the worker sees the short body and retries
	}
	end := time.Now()

	var grant struct {
		Lease string     `json:"lease"`
		Job   string     `json:"job"`
		Spec  batch.Spec `json:"spec"`
	}
	job := ""
	l := f.led
	l.mu.Lock()
	l.seconds[name] = append(l.seconds[name], end.Sub(start).Seconds())
	switch name {
	case "acquire":
		if resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &grant) == nil {
			l.leaseJob[grant.Lease] = grant.Job
			l.grantGraphs[f.worker+"|"+grant.Spec.Graph+"#"+strconv.FormatUint(grant.Spec.Seed, 10)] = true
			job = grant.Job
		} else {
			l.idle++
		}
	case "renew", "complete":
		l.uploadBytes += req.ContentLength
		job = l.leaseJob[sent.Lease]
	}
	l.mu.Unlock()
	l.tr.record("fleet."+name, 0, job, start, end)
	return resp, nil
}
