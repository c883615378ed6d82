package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer: the layer is the
// name's prefix before the first dot. Ops counts the calls a batched span
// covers (a loop of 1000 AndSlice calls is one span with Ops 1000), so the
// clock reads do not dominate nanosecond-scale operations.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ops    int    `json:"ops,omitempty"`
}

// tracer keeps spans in memory while it is on; they are written out once,
// when the benchmark ends. Off, every method is a cheap no-op, which is
// what the untraced passes run with.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	next  int64
	spans []span
}

// enable starts recording; spans time from the first enable.
func (t *tracer) enable() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.on = true
}

// disable stops recording and keeps what was recorded.
func (t *tracer) disable() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = false
}

// record stores a finished span when the tracer is on. Callers take both
// timestamps themselves, so a span can start at an intended send time
// rather than when the goroutine got to run.
func (t *tracer) record(name, req string, parent int64, start, end time.Time, ops int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Ops: ops,
	})
}

// reserve allocates an id for a parent span whose end is not known yet;
// children record against it and finish fills it in.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.next++
	return t.next
}

// finish records a span under an id from reserve.
func (t *tracer) finish(id int64, name, req string, start, end time.Time) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// timed runs fn as a span of ops calls under parent and returns its
// duration; the duration is measured whether or not the tracer is on.
func (t *tracer) timed(name string, parent int64, ops int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(name, "", parent, start, end, ops)
	return end.Sub(start)
}

// layerOf is the span name's layer prefix.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeFile writes the host fingerprint and then every span as JSON lines.
func (t *tracer) writeFile(path, host string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"host\":%s}\n", host)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
