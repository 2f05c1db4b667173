package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// A span is one timed call across a layer boundary. Request spans time a
// request through ServeHTTP; layer spans time the benchmark's replay of the
// same inputs into one exported call of a layer, in the handler's order,
// right after the request returned. A layer span's parent is the request
// (or facade call) on whose behalf the handler makes that call, so a span's
// self time is its duration minus its children's durations.
type span struct {
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Parent int                `json:"parent"` // index of the parent span, -1 for a root
	Req    int                `json:"req"`    // request id; -1 for set-up and preparation
	Allocs uint64             `json:"allocs"` // heap allocations during the call
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory; flush writes them out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// call times fn as a span and counts its heap allocations from
// runtime.MemStats deltas taken outside the timed interval.
func (t *tracer) call(name string, parent, req int, fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  float64(start.Sub(t.origin)) / float64(time.Microsecond),
		End:    float64(end.Sub(t.origin)) / float64(time.Microsecond),
		Parent: parent,
		Req:    req,
		Allocs: after.Mallocs - before.Mallocs,
	})
	return len(t.spans) - 1
}

// request sends rq through the handler as a request span.
func (t *tracer) request(h http.Handler, rq *request, req int) (response, int) {
	var resp response
	id := t.call("request."+rq.class, -1, req, func() { resp = send(h, rq) })
	return resp, id
}

// count attaches a counter to a span.
func (t *tracer) count(id int, key string, v float64) {
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = make(map[string]float64)
	}
	t.spans[id].Counts[key] = v
}

func (s *span) dur() float64 { return s.End - s.Start }

// self returns each span's self time (µs) and self allocations: its own
// duration and allocation count minus those of its children.
func (t *tracer) self() (us []float64, allocs []float64) {
	us = make([]float64, len(t.spans))
	allocs = make([]float64, len(t.spans))
	for i := range t.spans {
		us[i] = t.spans[i].dur()
		allocs[i] = float64(t.spans[i].Allocs)
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			us[p] -= t.spans[i].dur()
			allocs[p] -= float64(t.spans[i].Allocs)
		}
	}
	return us, allocs
}

// layerStats aggregates the spans of one name: self times (µs), self
// allocations and counters.
type layerStats struct {
	selfUS []float64
	allocs []float64
	counts map[string][]float64
}

// byName groups the spans by name.
func (t *tracer) byName() map[string]*layerStats {
	us, allocs := t.self()
	out := make(map[string]*layerStats)
	for i := range t.spans {
		s := &t.spans[i]
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{counts: make(map[string][]float64)}
			out[s.Name] = ls
		}
		ls.selfUS = append(ls.selfUS, us[i])
		ls.allocs = append(ls.allocs, allocs[i])
		for k, v := range s.Counts {
			ls.counts[k] = append(ls.counts[k], v)
		}
	}
	return out
}

// flush writes the spans as JSON lines, sorted by start time.
func (t *tracer) flush(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].Start < t.spans[order[b]].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, i := range order {
		rec := struct {
			ID int `json:"id"`
			span
		}{ID: i, span: t.spans[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
