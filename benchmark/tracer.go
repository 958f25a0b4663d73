package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// trace ID; parent is 0 for the request's root span.
type span struct {
	TraceID int    `json:"trace_id"`
	SpanID  int    `json:"span_id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// layer is the part of the name before the first dot: the module the call
// went into.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory. A nil tracer records nothing, which is
// how the untraced replay runs the very same code. It is used by one
// goroutine at a time.
type tracer struct {
	epoch time.Time
	spans []span
	trace int   // current trace ID
	stack []int // open span IDs, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a request's root span under a fresh trace ID.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	t.trace++
	t.stack = t.stack[:0]
	return t.span(name)
}

// span opens a child of the innermost open span and returns the function
// that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		TraceID: t.trace, SpanID: id, Parent: parent, Name: name,
		StartNS: int64(time.Since(t.epoch)),
	})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id-1].EndNS = int64(time.Since(t.epoch))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int]int64, len(spans)) // span ID -> time covered by children
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += time.Duration(s.EndNS - s.StartNS - children[s.SpanID])
	}
	return out
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
