package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Spans of one operation share Req; Parent links a call to the
// span that caused it (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id, attaching tag when non-empty.
func (t *tracer) end(id int, tag string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	if tag != "" {
		s.Tag = tag
	}
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req string, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id, "")
	return err
}

// durations returns the durations of the closed spans named name, in ms,
// optionally restricted to one tag ("" matches any).
func (t *tracer) durations(name, tag string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 && (tag == "" || s.Tag == tag) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) has(name string) bool { return len(t.durations(name, "")) > 0 }

// spansNamed returns a copy of the closed spans named name.
func (t *tracer) spansNamed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// tagOf returns the tag of span id ("" when unknown).
func (t *tracer) tagOf(id int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= 0 || id > len(t.spans) {
		return ""
	}
	return t.spans[id-1].Tag
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
