// Causal, per-request tracing on top of the obs registry: a Tracer hands out
// Traces (one per OLFS entry-point request), each a tree of TraceSpans whose
// start/stop times come from the virtual clock, so a cold read decomposes
// into the paper's Fig 6/7 phases — queue wait, arm travel, tray load, drive
// spin-up, read — with exact, reproducible attribution.
//
// Propagation uses the cooperative scheduler itself: the current span rides
// on sim.Proc.TraceContext, so lower layers (sched, rack, optical) attach
// child spans with StartChild without any API plumbing; code running outside
// a traced request gets nil handles and records nothing (the same zero-cost
// opt-out contract as the rest of obs).
//
// Completed traces land in a bounded journal with tail-based capture: the
// keep/drop decision happens at Finish, when the trace's duration and error
// state are known. Error/retry traces and the N slowest per QoS class are
// always retained; clean traces are down-sampled and evicted first.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"ros/internal/sim"
)

// TracerConfig tunes a Tracer. The zero value enables tracing with the
// documented defaults; Capacity < 0 disables tracing entirely.
type TracerConfig struct {
	// Capacity bounds the completed-trace journal. 0 means
	// DefaultTraceCapacity; negative disables tracing (NewTracer returns
	// nil).
	Capacity int
	// SampleEvery keeps 1 of every N error-free traces (<=1 keeps all).
	// Error/retry traces bypass sampling: the decision is made at Finish
	// time, tail-style.
	SampleEvery int
}

// DefaultTraceCapacity is the journal bound a zero Capacity means.
const DefaultTraceCapacity = 256

// keepSlowest is how many of the slowest traces per QoS class are protected
// from journal eviction (tail-based capture).
const keepSlowest = 8

func (c TracerConfig) withDefaults() TracerConfig {
	if c.Capacity == 0 {
		c.Capacity = DefaultTraceCapacity
	}
	if c.SampleEvery < 1 {
		c.SampleEvery = 1
	}
	return c
}

// Annotation is one key=value span attribute (tray address, drive group,
// grant kind, byte counts).
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceSpan is one timed operation inside a Trace. Start/Stop are virtual
// times; Parent links spans into a tree rooted at the trace's entry span.
type TraceSpan struct {
	ID     int64
	Parent int64 // 0 for the root span
	Name   string
	Start  time.Duration
	Stop   time.Duration
	Err    string
	Annots []Annotation

	tr   *Trace
	prev *TraceSpan // span that was current on the proc when this one started
	op   Op         // the handle StartOp returns for an op this span carries
	done bool
}

// Annotate attaches a key=value attribute. Nil-safe. The first makes room
// for two: most annotated spans carry a pair.
func (s *TraceSpan) Annotate(key, value string) {
	if s != nil {
		if s.Annots == nil {
			s.Annots = make([]Annotation, 0, 2)
		}
		s.Annots = append(s.Annots, Annotation{Key: key, Value: value})
	}
}

// AnnotateInt attaches key=v in decimal. Nil-safe, and it formats v only for
// a live span, so an untraced request pays nothing for it.
func (s *TraceSpan) AnnotateInt(key string, v int64) {
	if s != nil {
		s.Annotate(key, strconv.FormatInt(v, 10))
	}
}

// End closes the span at the current virtual time and restores the parent as
// the proc's current span. Nil-safe and idempotent.
func (s *TraceSpan) End(p *sim.Proc) {
	if s == nil || s.done {
		return
	}
	s.done = true
	s.Stop = s.tr.tracer.now()
	s.tr.tracer.openSpans--
	if cur, _ := p.TraceContext().(*TraceSpan); cur == s {
		p.SetTraceContext(s.prev)
	}
}

// Fail records err on the span (marking the owning trace for guaranteed
// capture) and ends it. Nil-safe; a nil err is an ordinary End.
func (s *TraceSpan) Fail(p *sim.Proc, err error) {
	if s == nil {
		return
	}
	if err != nil && s.Err == "" {
		s.Err = err.Error()
		s.tr.errSpans++
	}
	s.End(p)
}

// Trace is one end-to-end request: a tree of spans rooted at the entry-point
// span. Start/Stop are the root span's virtual times.
type Trace struct {
	ID      int64
	Name    string // entry-point name, e.g. "olfs.read"
	Class   string // QoS class ("interactive", "burn", ...)
	Start   time.Duration
	Stop    time.Duration
	Err     string
	Retries int // task requeues (burn interrupt/resume, burn retry)

	tracer   *Tracer
	spans    []*TraceSpan
	root     *TraceSpan
	errSpans int
	done     bool
}

// Duration returns the end-to-end virtual latency of the request.
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	return t.Stop - t.Start
}

// Spans returns the trace's spans in start order (root first).
func (t *Trace) Spans() []*TraceSpan {
	if t == nil {
		return nil
	}
	return t.spans
}

// Root returns the entry-point span.
func (t *Trace) Root() *TraceSpan {
	if t == nil {
		return nil
	}
	return t.root
}

// Faulty reports whether the trace carries an error or a retry — the
// always-capture condition of tail sampling.
func (t *Trace) Faulty() bool {
	return t != nil && (t.Err != "" || t.Retries > 0 || t.errSpans > 0)
}

// newSpan appends a span to the trace and opens it at the current time.
func (t *Trace) newSpan(name string, parent int64) *TraceSpan {
	t.tracer.nextSpan++
	sp := &TraceSpan{
		ID:     t.tracer.nextSpan,
		Parent: parent,
		Name:   name,
		Start:  t.tracer.now(),
		tr:     t,
	}
	t.spans = append(t.spans, sp)
	t.tracer.openSpans++
	return sp
}

// Tracer owns trace identity and the completed-trace journal for one
// simulation environment. Like the Registry it relies on the cooperative
// scheduler for safety: exactly one process runs at a time.
type Tracer struct {
	env *sim.Env
	cfg TracerConfig

	nextTrace int64
	nextSpan  int64
	active    int
	openSpans int

	journal  []*Trace // completed, captured traces in finish order
	cleanSeq int64    // sampling counter over clean traces

	// trace.* counters, set by Registry.AttachTracer (nil, and inert, until
	// then).
	started  *Counter
	finished *Counter
	captured *Counter
	sampled  *Counter // dropped by sampling at Finish
	evicted  *Counter // pushed out of the journal by capacity
}

// NewTracer creates a tracer bound to env, or nil when cfg disables tracing
// (Capacity < 0). All Tracer/Trace/TraceSpan methods are nil-safe.
func NewTracer(env *sim.Env, cfg TracerConfig) *Tracer {
	if cfg.Capacity < 0 {
		return nil
	}
	return &Tracer{env: env, cfg: cfg.withDefaults()}
}

func (t *Tracer) now() time.Duration {
	if t == nil || t.env == nil {
		return 0
	}
	return t.env.Now()
}

// OpenSpans returns the number of trace spans started but not yet ended —
// the span-leak figure folded into Registry.OpenSpans.
func (t *Tracer) OpenSpans() int {
	if t == nil {
		return 0
	}
	return t.openSpans
}

// Active returns the number of traces started but not yet finished.
func (t *Tracer) Active() int {
	if t == nil {
		return 0
	}
	return t.active
}

// Traces returns the journal contents, oldest first.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return nil
	}
	return append([]*Trace(nil), t.journal...)
}

// Trace returns the journaled trace with the given ID, or nil.
func (t *Tracer) Trace(id int64) *Trace {
	if t == nil {
		return nil
	}
	for _, tr := range t.journal {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Op is one instrumented operation: a whole trace when the operation is a
// request entry point, or a child span when the proc already carries a trace
// (a fetch nested under a read). The zero/nil Op is inert.
type Op struct {
	tr *Trace
	sp *TraceSpan
}

// StartOp begins tracing an operation on p. If p already carries an active
// span the op nests as a child span (class is ignored); otherwise a new
// trace is started. Returns nil (inert) when tracing is disabled and no
// trace is active.
func (t *Tracer) StartOp(p *sim.Proc, name, class string) *Op {
	if sp := StartChild(p, name); sp != nil {
		sp.op = Op{sp: sp}
		return &sp.op
	}
	if t == nil {
		return nil
	}
	t.nextTrace++
	t.started.Add(1)
	t.active++
	tr := &Trace{ID: t.nextTrace, Name: name, Class: class, Start: t.now(), tracer: t}
	tr.root = tr.newSpan(name, 0)
	tr.root.prev, _ = p.TraceContext().(*TraceSpan) // nil: entry from untraced proc
	p.SetTraceContext(tr.root)
	tr.root.op = Op{tr: tr, sp: tr.root}
	return &tr.root.op
}

// Annotate attaches a key=value attribute to the op's span. Nil-safe.
func (o *Op) Annotate(key, value string) {
	if o != nil {
		o.sp.Annotate(key, value)
	}
}

// AnnotateInt attaches key=v in decimal to the op's span. Nil-safe; it
// formats v only for a live span.
func (o *Op) AnnotateInt(key string, v int64) {
	if o != nil {
		o.sp.AnnotateInt(key, v)
	}
}

// Retry marks the owning trace as retried (task requeued), which guarantees
// journal capture under tail sampling. Nil-safe.
func (o *Op) Retry() {
	if o != nil && o.sp != nil {
		o.sp.tr.Retries++
	}
}

// Trace returns the trace this op belongs to (nil for an inert op).
func (o *Op) Trace() *Trace {
	if o == nil || o.sp == nil {
		return nil
	}
	return o.sp.tr
}

// Finish ends the op. For an entry-point op this finishes the whole trace
// and commits it to the journal; for a nested op it ends the child span.
// Nil-safe and idempotent.
func (o *Op) Finish(p *sim.Proc, err error) {
	if o == nil {
		return
	}
	if o.tr != nil {
		o.tr.finish(p, err)
		return
	}
	o.sp.Fail(p, err)
}

// finish closes the trace's root span, detaches the trace from p and commits
// it to the journal (or drops it, per the tail-sampling policy).
func (t *Trace) finish(p *sim.Proc, err error) {
	if t == nil || t.done {
		return
	}
	t.done = true
	if err != nil {
		t.Err = err.Error()
	}
	t.root.Fail(p, err)
	t.Stop = t.root.Stop
	// Clear any dangling context: a leaked child span must not keep the
	// finished request attached to the proc (the leak itself stays visible
	// through OpenSpans).
	if _, ok := p.TraceContext().(*TraceSpan); ok {
		p.SetTraceContext(nil)
	}
	tr := t.tracer
	tr.active--
	tr.finished.Add(1)
	tr.commit(t)
}

// commit applies the tail-sampling keep/drop decision and journal eviction.
func (tr *Tracer) commit(t *Trace) {
	if !t.Faulty() {
		tr.cleanSeq++
		if tr.cfg.SampleEvery > 1 && tr.cleanSeq%int64(tr.cfg.SampleEvery) != 1 {
			tr.sampled.Add(1)
			return
		}
	}
	tr.captured.Add(1)
	tr.journal = append(tr.journal, t)
	for len(tr.journal) > tr.cfg.Capacity {
		tr.evictOne()
	}
}

// evictOne removes the oldest journal entry that is neither faulty nor among
// the keepSlowest slowest of its class; if every entry is protected the
// oldest overall goes, keeping the journal bounded.
func (tr *Tracer) evictOne() {
	protected := tr.protectedSet()
	victim := 0
	found := false
	for i, t := range tr.journal {
		if t.Faulty() || protected[t.ID] {
			continue
		}
		victim, found = i, true
		break
	}
	if !found {
		victim = 0
	}
	tr.journal = append(tr.journal[:victim], tr.journal[victim+1:]...)
	tr.evicted.Add(1)
}

// protectedSet returns the IDs of the keepSlowest slowest traces per class.
func (tr *Tracer) protectedSet() map[int64]bool {
	byClass := make(map[string][]*Trace)
	for _, t := range tr.journal {
		byClass[t.Class] = append(byClass[t.Class], t)
	}
	out := make(map[int64]bool)
	for _, ts := range byClass {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].Duration() != ts[j].Duration() {
				return ts[i].Duration() > ts[j].Duration()
			}
			return ts[i].ID < ts[j].ID
		})
		for _, t := range ts[:min(keepSlowest, len(ts))] {
			out[t.ID] = true
		}
	}
	return out
}

// StartChild opens a child of p's current span and makes it current. Returns
// nil (inert) when p carries no active trace, so lower layers can instrument
// unconditionally.
func StartChild(p *sim.Proc, name string) *TraceSpan {
	parent, _ := p.TraceContext().(*TraceSpan)
	if parent == nil || parent.done {
		return nil
	}
	sp := parent.tr.newSpan(name, parent.ID)
	sp.prev = parent
	p.SetTraceContext(sp)
	return sp
}

// ---------------------------------------------------------------------------
// Critical-path analysis

// Phase is one named slice of a trace's end-to-end latency.
type Phase struct {
	Name string
	Dur  time.Duration
}

// CriticalPath attributes every instant of the trace's lifetime to the
// deepest span active at that instant (ties: latest start, then highest ID),
// aggregated by span name in order of first attribution. The phase durations
// sum exactly to Duration(): time covered by no child span is attributed to
// the entry-point span itself, so a Fig 6-style breakdown (queue wait, arm
// travel, tray load, spin-up, read, residual overhead) falls out directly.
func (t *Trace) CriticalPath() []Phase {
	if t == nil || t.root == nil {
		return nil
	}
	rootStart, rootStop := t.Start, t.Stop
	type ival struct {
		sp         *TraceSpan
		start, end time.Duration
		depth      int
	}
	depth := make(map[int64]int)
	byID := make(map[int64]*TraceSpan)
	for _, sp := range t.spans {
		byID[sp.ID] = sp
	}
	var depthOf func(id int64) int
	depthOf = func(id int64) int {
		if d, ok := depth[id]; ok {
			return d
		}
		sp := byID[id]
		d := 0
		if sp != nil && sp.Parent != 0 {
			d = depthOf(sp.Parent) + 1
		}
		depth[id] = d
		return d
	}
	clamp := func(v time.Duration) time.Duration {
		if v < rootStart {
			return rootStart
		}
		if v > rootStop {
			return rootStop
		}
		return v
	}
	var ivals []ival
	bounds := map[time.Duration]bool{rootStart: true, rootStop: true}
	for _, sp := range t.spans {
		stop := sp.Stop
		if !sp.done {
			stop = rootStop // leaked span: attribute through the end
		}
		iv := ival{sp: sp, start: clamp(sp.Start), end: clamp(stop), depth: depthOf(sp.ID)}
		if iv.end < iv.start {
			iv.end = iv.start
		}
		ivals = append(ivals, iv)
		bounds[iv.start] = true
		bounds[iv.end] = true
	}
	cuts := make([]time.Duration, 0, len(bounds))
	for b := range bounds {
		cuts = append(cuts, b)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	sums := make(map[string]time.Duration)
	var order []string
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		var best *ival
		for k := range ivals {
			iv := &ivals[k]
			if iv.start > a || iv.end < b {
				continue
			}
			if best == nil ||
				iv.depth > best.depth ||
				(iv.depth == best.depth && iv.sp.Start > best.sp.Start) ||
				(iv.depth == best.depth && iv.sp.Start == best.sp.Start && iv.sp.ID > best.sp.ID) {
				best = iv
			}
		}
		name := t.Name
		if best != nil {
			name = best.sp.Name
		}
		if _, ok := sums[name]; !ok {
			order = append(order, name)
		}
		sums[name] += b - a
	}
	out := make([]Phase, 0, len(order))
	for _, name := range order {
		out = append(out, Phase{Name: name, Dur: sums[name]})
	}
	return out
}

// ---------------------------------------------------------------------------
// Rendering and export

// Format renders the trace as an indented span tree with a critical-path
// summary — the `rosctl trace show` view.
func (t *Trace) Format() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d %s class=%s start=%s dur=%s spans=%d",
		t.ID, t.Name, t.Class, t.Start, t.Duration(), len(t.spans))
	if t.Err != "" {
		fmt.Fprintf(&b, " err=%q", t.Err)
	}
	if t.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", t.Retries)
	}
	b.WriteString("\n")
	children := make(map[int64][]*TraceSpan)
	for _, sp := range t.spans {
		if sp != t.root {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var walk func(sp *TraceSpan, indent string)
	walk = func(sp *TraceSpan, indent string) {
		fmt.Fprintf(&b, "%s%s +%s %s", indent, sp.Name, sp.Start-t.Start, sp.Stop-sp.Start)
		for _, a := range sp.Annots {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		if sp.Err != "" {
			fmt.Fprintf(&b, " err=%q", sp.Err)
		}
		if !sp.done {
			b.WriteString(" OPEN")
		}
		b.WriteString("\n")
		for _, c := range children[sp.ID] {
			walk(c, indent+"  ")
		}
	}
	walk(t.root, "  ")
	b.WriteString("  critical path:\n")
	for _, ph := range t.CriticalPath() {
		fmt.Fprintf(&b, "    %-24s %s\n", ph.Name, ph.Dur)
	}
	return b.String()
}

// perfettoEvent is one Chrome trace_event entry ("X" complete events plus
// "M" metadata rows naming each trace's lane).
type perfettoEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// PerfettoJSON renders traces as Chrome/Perfetto trace_event JSON: each
// trace is one thread lane (tid = trace ID) and each span a complete ("X")
// event whose ts/dur are virtual-clock microseconds, with span identity,
// parentage and annotations in args. Load the output in ui.perfetto.dev or
// chrome://tracing.
func PerfettoJSON(traces []*Trace) ([]byte, error) {
	var f perfettoFile
	f.DisplayTimeUnit = "ms"
	f.TraceEvents = []perfettoEvent{}
	for _, t := range traces {
		if t == nil {
			continue
		}
		f.TraceEvents = append(f.TraceEvents, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: t.ID,
			Args: map[string]string{
				"name": fmt.Sprintf("%s #%d [%s]", t.Name, t.ID, t.Class),
			},
		})
		for _, sp := range t.spans {
			stop := sp.Stop
			if !sp.done {
				stop = t.Stop
			}
			args := map[string]string{
				"span_id":   fmt.Sprintf("%d", sp.ID),
				"parent_id": fmt.Sprintf("%d", sp.Parent),
			}
			for _, a := range sp.Annots {
				args[a.Key] = a.Value
			}
			if sp.Err != "" {
				args["error"] = sp.Err
			}
			f.TraceEvents = append(f.TraceEvents, perfettoEvent{
				Name: sp.Name,
				Cat:  t.Class,
				Ph:   "X",
				Ts:   float64(sp.Start) / 1e3,
				Dur:  float64(stop-sp.Start) / 1e3,
				Pid:  1,
				Tid:  t.ID,
				Args: args,
			})
		}
	}
	return json.MarshalIndent(f, "", "  ")
}
