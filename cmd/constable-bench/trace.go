package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"constable/internal/service"
	"constable/internal/sim"
)

// span is one timed call into a layer. Key is the content hash of the
// JobSpec the call worked on, when it worked on one; spans of one cell
// share it. Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Key    string `json:"key,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// keyHeader carries a request's JobSpec hash from the benchmark's client to
// the server-side span, so the spans of one interactive request share a key.
const keyHeader = "X-Bench-Key"

// tracer keeps spans in memory until the run ends. The benchmark records
// spans only from its own code, around the calls it makes into each layer;
// a nil *tracer records nothing, so untraced runs take the same paths.
type tracer struct {
	next  atomic.Int64
	cost  atomic.Int64 // nanoseconds spent recording, for the overhead metric
	mu    sync.Mutex
	spans []span
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name, key string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := time.Now()
	o := openSpan{t: t, s: span{ID: t.next.Add(1), Parent: parent, Key: key, Name: name, Start: now.UnixNano()}}
	t.cost.Add(int64(time.Since(now)))
	return o
}

// id returns the span's ID, for use as a parent; 0 when not tracing.
func (o openSpan) id() int64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	now := time.Now()
	o.s.End = now.UnixNano()
	o.t.add(o.s)
	o.t.cost.Add(int64(time.Since(now)))
}

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// adopt merges spans recorded by another process under parent, renumbering
// their IDs so they stay unique in this tracer.
func (t *tracer) adopt(spans []span, parent int64, cost int64) {
	if t == nil {
		return
	}
	first := t.next.Add(int64(len(spans))) - int64(len(spans))
	ids := make(map[int64]int64, len(spans))
	for i, s := range spans {
		ids[s.ID] = first + int64(i) + 1
	}
	out := make([]span, len(spans))
	for i, s := range spans {
		s.ID = ids[s.ID]
		if p, ok := ids[s.Parent]; ok {
			s.Parent = p
		} else {
			s.Parent = parent
		}
		out[i] = s
	}
	t.add(out...)
	t.cost.Add(cost)
}

// wrapRun returns run with a "sim.run" span around each call, keyed by the
// hash of the JobSpec the options came from. Untraced, it returns run.
func (t *tracer) wrapRun(run func(sim.Options) (*sim.RunResult, error)) func(sim.Options) (*sim.RunResult, error) {
	if t == nil {
		return run
	}
	return func(opts sim.Options) (*sim.RunResult, error) {
		now := time.Now()
		key, _ := service.SpecFromOptions(opts).Hash()
		t.cost.Add(int64(time.Since(now)))
		sp := t.begin("sim.run", key, 0)
		defer sp.end()
		return run(opts)
	}
}

// wrapHandler returns h with a span named name around each request, keyed
// by the request's keyHeader. Untraced, it returns h.
func (t *tracer) wrapHandler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := t.begin(name, r.Header.Get(keyHeader), 0)
		defer sp.end()
		h.ServeHTTP(w, r)
	})
}

// finish returns the recorded spans in start order, giving each keyed root
// span the innermost span with the same key that encloses it as parent:
// the benchmark cannot pass span IDs through the layers, but a cell's
// content hash reaches all of them.
func (t *tracer) finish() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	open := map[string][]span{} // per key: the chain of enclosing spans
	for i := range spans {
		s := &spans[i]
		if s.Key == "" {
			continue
		}
		chain := open[s.Key]
		for len(chain) > 0 && chain[len(chain)-1].End < s.End {
			chain = chain[:len(chain)-1]
		}
		if s.Parent == 0 && len(chain) > 0 {
			s.Parent = chain[len(chain)-1].ID
		}
		open[s.Key] = append(chain, *s)
	}
	return spans
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durationsMS returns the durations of the spans named name.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanDiagnostics summarizes every span name: the median duration and, for
// spans with children, the median self time, both in milliseconds.
func spanDiagnostics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	hasKids := map[int64]bool{}
	for _, s := range spans {
		hasKids[s.Parent] = true
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		if hasKids[s.ID] {
			selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
		}
	}
	out := map[string]float64{}
	for name, xs := range durs {
		out["span."+name+".ms_p50"] = median(xs)
		out["span."+name+".count"] = float64(len(xs))
	}
	for name, xs := range selfs {
		out["span."+name+".self_ms_p50"] = median(xs)
	}
	return out
}
