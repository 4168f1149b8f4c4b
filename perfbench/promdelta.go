package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promSample is one scrape of a Prometheus text exposition: every series
// ("name" or "name{labels}" as exposed) mapped to its value.
type promSample map[string]float64

// parseProm reads the text exposition format (comments and blank lines
// skipped). Histogram series arrive as their _bucket/_sum/_count
// samples, counters and gauges under their own names, each keyed with
// its label set.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		series, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", lineNo, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", lineNo)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: value %q: %w", lineNo, fields[0], err)
		}
		out[series] = v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its series key and the text
// after it, honouring quoted label values (which may hold spaces or
// escaped quotes).
func splitSeries(line string) (series, rest string, err error) {
	open := strings.IndexAny(line, "{ \t")
	if open < 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	if line[open] != '{' {
		return line[:open], line[open:], nil
	}
	inQuote := false
	for i := open + 1; i < len(line); i++ {
		switch c := line[i]; {
		case inQuote && c == '\\':
			i++
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return line[:i+1], line[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", line)
}

// family returns the metric name of a series key.
func family(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// total sums every series of the named metric across its label sets, so
// a labelled counter reads as its process-wide total. For a histogram
// pass the _sum or _count name.
func (p promSample) total(name string) float64 {
	t := 0.0
	for series, v := range p {
		if family(series) == name {
			t += v
		}
	}
	return t
}

// sub returns p - q series by series: the delta between two scrapes. A
// series absent from q (first exposed after it) counts from zero.
func (p promSample) sub(q promSample) promSample {
	out := make(promSample, len(p))
	for series, v := range p {
		out[series] = v - q[series]
	}
	return out
}

// settled scrapes until the journal has gone quiet: a job's stream can
// end before its terminal record is appended and fsynced, and a delta
// taken in that gap would count the record in the next window. It
// returns the first of two scrapes 10 ms apart whose append and fsync
// counts agree, or the last after 2 s.
func settled(hc *http.Client, base string) (promSample, error) {
	quiet := func(a, b promSample) bool {
		for _, name := range []string{"cobrad_journal_appends_total", "cobrad_journal_fsync_seconds_count"} {
			if a.total(name) != b.total(name) {
				return false
			}
		}
		return true
	}
	prev, err := scrape(hc, base)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		cur, err := scrape(hc, base)
		if err != nil {
			return nil, err
		}
		if quiet(prev, cur) {
			return prev, nil
		}
		prev = cur
	}
	return prev, nil
}

// scrape fetches and parses base/metrics.
func scrape(hc *http.Client, base string) (promSample, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
