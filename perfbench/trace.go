package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the id of the span that caused this one (0 for a root).
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
// It is safe for concurrent use: the serve-side handler span is recorded
// on the server's goroutine while the client span is open on another.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(req, parent int, name string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes the span with the given id.
func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// do records f as a span.
func (r *recorder) do(req, parent int, name string, f func() error) error {
	id := r.begin(req, parent, name)
	err := f()
	r.end(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfNs returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfNs(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerTimes groups span times (milliseconds) by span name, per request:
// out[name][req] is the summed duration (or self time) of that request's
// spans of that name.
func layerTimes(spans []span, useSelf bool) map[string]map[int]float64 {
	var self map[int]int64
	if useSelf {
		self = selfNs(spans)
	}
	out := make(map[string]map[int]float64)
	for _, s := range spans {
		d := s.dur()
		if useSelf {
			d = self[s.ID]
		}
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]float64)
		}
		out[s.Name][s.Req] += float64(d) / 1e6
	}
	return out
}

// values returns the map's values in request order.
func values(m map[int]float64) []float64 {
	reqs := make([]int, 0, len(m))
	for r := range m {
		reqs = append(reqs, r)
	}
	sort.Ints(reqs)
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = m[r]
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(cfg config, file string, spans []span) error {
	f, err := os.Create(filepath.Join(cfg.outDir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
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
