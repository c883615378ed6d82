package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Event is one structured trace record, written as a single JSON line.
// Kind is always set; the remaining fields are populated per kind:
//
//	descend    — items, est, depth, subtree: the enumeration entered a node
//	verdict    — items, est, verdict (accepted | uncertain | false_drop |
//	             below_tau), plus exact when a probe settled it
//	checkcount — items, est, count, flag (nonfrequent | uncertain | actual |
//	             est_bound): the dual filter's certificate for a candidate
//	probe      — items, fetched, exact: one Probe refinement
//	reverify   — items, est, verdict (pruned | survivor | accepted |
//	             false_drop): adaptive phase-3 outcome
//	phase      — phase, dur_ns: a timed stage completed
//
// Subtree is the enumeration seq of the level-1 subtree the event belongs
// to (-1 for root-level and non-enumeration events), which is how a merged
// multi-worker trace is re-ordered into the sequential enumeration order.
//
// The serving layer adds three kinds, all carrying the request ID in Req so
// one slow request reconstructs end to end across the trace:
//
//	request — Req, Verdict (hit | miss | shared | applied | ...), DurNs:
//	          one served request completed
//	apply   — Req, Shard, Count: one request's sub-batch applied by one
//	          shard's commit loop
//	commit  — Shard, Count, DurNs: one per-shard commit batch (possibly
//	          covering several requests' sub-batches)
//
// A segmented count over several shards adds one more:
//
//	shardcount — Shard, Items, Est: one shard's share of a summed support
//	             estimate
//
// Shard tags the event's shard via pointer so shard 0 survives omitempty;
// mining events leave it nil.
type Event struct {
	Seq     int64   `json:"seq"`
	Kind    string  `json:"kind"`
	Subtree int     `json:"subtree"`
	Depth   int     `json:"depth,omitempty"`
	Items   []int32 `json:"items,omitempty"`
	Est     int     `json:"est,omitempty"`
	Count   int     `json:"count,omitempty"`
	Exact   int     `json:"exact,omitempty"`
	Fetched int     `json:"fetched,omitempty"`
	Flag    string  `json:"flag,omitempty"`
	Verdict string  `json:"verdict,omitempty"`
	Phase   string  `json:"phase,omitempty"`
	DurNs   int64   `json:"dur_ns,omitempty"`
	Req     string  `json:"req,omitempty"`
	Shard   *int    `json:"shard,omitempty"`
}

// ShardTag boxes a shard index for Event.Shard.
func ShardTag(s int) *int { return &s }

// FlagName converts a dual-filter CheckCount flag (-1/0/1/2) to its trace
// name.
func FlagName(flag int) string {
	switch flag {
	case -1:
		return "nonfrequent"
	case 0:
		return "uncertain"
	case 1:
		return "actual"
	case 2:
		return "est_bound"
	default:
		return "unknown"
	}
}

// Tracer writes sampled events as JSON lines. Emit is safe for concurrent
// use: sampling is an atomic counter and the encoder is mutex-guarded.
// Tracing perturbs only wall-clock time, never results — events are
// observations of work the engine does identically with tracing off.
type Tracer struct {
	every int64        // keep every N-th event; 1 keeps all
	seen  atomic.Int64 // events offered
	kept  atomic.Int64 // events written

	mu  sync.Mutex
	enc *json.Encoder
	err error // first write error; tracing goes quiet after it
}

// NewTracer returns a tracer writing to w, keeping every every-th event
// (values < 1 mean keep all). The caller owns w and closes it after the
// run; Tracer never does.
func NewTracer(w io.Writer, every int) *Tracer {
	if every < 1 {
		every = 1
	}
	return &Tracer{every: int64(every), enc: json.NewEncoder(w)}
}

// SetTracer attaches a tracer to the registry. Call before the run; not
// synchronized with concurrent Emit.
func (r *Registry) SetTracer(t *Tracer) {
	if r == nil {
		return
	}
	r.tracer = t
}

// Tracing reports whether events would be recorded. Hook sites use it to
// skip building an Event at all when tracing is off.
func (r *Registry) Tracing() bool { return r != nil && r.tracer != nil }

// Emit offers an event to the tracer; a nil registry or absent tracer
// drops it for free. The event's Seq is stamped with its global offer
// order, so a sampled trace still shows how far apart kept events were.
func (r *Registry) Emit(e Event) {
	if r == nil || r.tracer == nil {
		return
	}
	r.tracer.emit(e)
}

func (t *Tracer) emit(e Event) {
	n := t.seen.Add(1)
	if n%t.every != 0 {
		return
	}
	e.Seq = n
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err := t.enc.Encode(e); err != nil {
		t.err = err
		return
	}
	t.kept.Add(1)
}

// TraceMetrics summarizes tracer activity inside a Metrics snapshot.
type TraceMetrics struct {
	Seen int64 `json:"seen"`
	Kept int64 `json:"kept"`
}

func (t *Tracer) metrics() TraceMetrics {
	return TraceMetrics{Seen: t.seen.Load(), Kept: t.kept.Load()}
}
