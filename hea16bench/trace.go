package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepthermo/internal/infer"
	"deepthermo/internal/lattice"
	"deepthermo/internal/mc"
	"deepthermo/internal/rng"
	"deepthermo/internal/transport"
	"deepthermo/internal/vae"
)

// The tracer records spans around the benchmark's calls into the
// program's layers. Every wrapper below forwards to the wrapped value and
// only reads the clock, so a traced run draws the same random numbers in
// the same order and reproduces the untraced run bit for bit. A nil
// *tracer means tracing is off; the workloads then hand the program the
// unwrapped values.

// maxSpans bounds the spans kept in memory; later spans are counted in
// dropped but still feed the per-layer aggregates.
const maxSpans = 100000

// Span is one timed call: name, start and end in nanoseconds since the
// tracer started, and the ID of the span that caused it (0 for none).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stat aggregates the calls of one kind: count, summed duration and
// outcome counters.
type stat struct {
	n, ns, ok, useful int64
}

type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []Span
	dropped int64
	stats   map[string]*stat
	props   []*tracedProposal // proposal wrappers, folded into stats by collect
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stats: map[string]*stat{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID and start time.
func (t *tracer) begin() (int64, int64) { return t.nextID.Add(1), t.now() }

// end closes a span opened by begin and adds it to the named aggregate.
func (t *tracer) end(name string, id, parent, start int64) time.Duration {
	end := t.now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	} else {
		t.dropped++
	}
	s := t.statLocked(name)
	s.n++
	s.ns += end - start
	t.mu.Unlock()
	return time.Duration(end - start)
}

// span times f as one span named name under parent.
func (t *tracer) span(name string, parent int64, f func(id int64)) time.Duration {
	id, start := t.begin()
	f(id)
	return t.end(name, id, parent, start)
}

// timed runs f and returns its duration; with t set it also records f as
// a span named name under parent.
func (t *tracer) timed(name string, parent int64, f func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
	return t.span(name, parent, func(int64) { f() })
}

func (t *tracer) statLocked(name string) *stat {
	s := t.stats[name]
	if s == nil {
		s = &stat{}
		t.stats[name] = s
	}
	return s
}

// add merges counts into the named aggregate.
func (t *tracer) add(name string, n, ns, ok, useful int64) {
	t.mu.Lock()
	s := t.statLocked(name)
	s.n += n
	s.ns += ns
	s.ok += ok
	s.useful += useful
	t.mu.Unlock()
}

// get returns a copy of the named aggregate.
func (t *tracer) get(name string) stat {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.stats[name]; s != nil {
		return *s
	}
	return stat{}
}

// collect folds the proposal wrappers' counters into the aggregates. Call
// it only after the walkers that own them have finished.
func (t *tracer) collect() {
	t.mu.Lock()
	props := t.props
	t.props = nil
	t.mu.Unlock()
	for _, p := range props {
		t.add(p.name, p.n, p.ns, p.acc, p.useful)
	}
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"dropped": t.dropped, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// mc.Proposal

// tracedProposal times Propose calls of one walker's proposal. A proposal
// belongs to one walker goroutine, so its counters need no lock; the
// tracer reads them after the run (collect). Swap proposals are far too
// many for one span each, so proposals are aggregated only.
type tracedProposal struct {
	inner  mc.Proposal
	name   string
	gp     *mc.GlobalProposal // set for DL proposals: useful = sites changed
	n, ns  int64
	acc    int64
	useful int64
}

func (p *tracedProposal) Name() string { return p.inner.Name() }

func (p *tracedProposal) Propose(cfg lattice.Config, curE float64, src *rng.Source) (float64, float64) {
	t0 := time.Now()
	de, lq := p.inner.Propose(cfg, curE, src)
	p.ns += int64(time.Since(t0))
	p.n++
	return de, lq
}

func (p *tracedProposal) Accept() {
	before := int64(0)
	if p.gp != nil {
		before = p.gp.AcceptedSiteChanges()
	}
	p.inner.Accept()
	p.acc++
	if p.gp != nil && p.gp.AcceptedSiteChanges() > before {
		p.useful++
	}
}

func (p *tracedProposal) Reject(cfg lattice.Config) { p.inner.Reject(cfg) }

// tracedBatchProposal is a tracedProposal over a proposal that takes part
// in the engine's batching quorum; it forwards the quorum calls so the
// sweep loop brackets the walker exactly as without tracing.
type tracedBatchProposal struct{ *tracedProposal }

func (p tracedBatchProposal) BeginBatch() { p.inner.(mc.BatchParticipant).BeginBatch() }
func (p tracedBatchProposal) EndBatch()   { p.inner.(mc.BatchParticipant).EndBatch() }

// proposal wraps p for tracing under name ("mc.swap" or "mc.dl").
func (t *tracer) proposal(name string, p mc.Proposal) mc.Proposal {
	if t == nil {
		return p
	}
	tp := &tracedProposal{inner: p, name: name}
	tp.gp, _ = p.(*mc.GlobalProposal)
	t.mu.Lock()
	t.props = append(t.props, tp)
	t.mu.Unlock()
	if _, ok := p.(mc.BatchParticipant); ok {
		return tracedBatchProposal{tp}
	}
	return tp
}

// ---------------------------------------------------------------------------
// mc.Inferencer

// tracedInferencer times each walker round trip through the batched
// inference engine: the wait for the quorum plus the batched compute.
type tracedInferencer struct {
	c      *infer.Client
	t      *tracer
	parent int64
}

func (i *tracedInferencer) Config() vae.Config { return i.c.Config() }

func (i *tracedInferencer) EncodeInto(cfg lattice.Config, cond float64, mu, logvar []float64) ([]float64, []float64) {
	id, st := i.t.begin()
	mu, logvar = i.c.EncodeInto(cfg, cond, mu, logvar)
	i.t.end("infer.call", id, i.parent, st)
	return mu, logvar
}

func (i *tracedInferencer) DecodeProbsInto(z []float64, cond float64, dst [][]float64) [][]float64 {
	id, st := i.t.begin()
	dst = i.c.DecodeProbsInto(z, cond, dst)
	i.t.end("infer.call", id, i.parent, st)
	return dst
}

func (i *tracedInferencer) EncodeSampleDecode(cfg lattice.Config, cond float64, eps, mu, lv, z []float64, probs [][]float64) {
	id, st := i.t.begin()
	i.c.EncodeSampleDecode(cfg, cond, eps, mu, lv, z, probs)
	i.t.end("infer.call", id, i.parent, st)
}

func (i *tracedInferencer) BeginBatch() { i.c.BeginBatch() }
func (i *tracedInferencer) EndBatch()   { i.c.EndBatch() }

// inferencer wraps an engine client for tracing under parent.
func (t *tracer) inferencer(c *infer.Client, parent int64) mc.Inferencer {
	if t == nil {
		return c
	}
	return &tracedInferencer{c: c, t: t, parent: parent}
}

// ---------------------------------------------------------------------------
// transport.Endpoint

// tracedEndpoint times the fault-aware (Ctx) operations of one rank's
// endpoint, the ones distributed REWL uses; the blocking
// variants pass through untimed. Sends are "transport.send"; receives,
// barriers and collectives, which wait for a peer, are "transport.wait".
type tracedEndpoint struct {
	transport.Endpoint
	t      *tracer
	parent int64
}

func (e *tracedEndpoint) op(name string, f func() error) error {
	id, st := e.t.begin()
	err := f()
	e.t.end(name, id, e.parent, st)
	return err
}

func (e *tracedEndpoint) SendCtx(ctx context.Context, dst int, data []float64) error {
	return e.op("transport.send", func() error { return e.Endpoint.SendCtx(ctx, dst, data) })
}

func (e *tracedEndpoint) RecvCtx(ctx context.Context, src int) (out []float64, err error) {
	err = e.op("transport.wait", func() error {
		out, err = e.Endpoint.RecvCtx(ctx, src)
		return err
	})
	return out, err
}

func (e *tracedEndpoint) BarrierCtx(ctx context.Context) error {
	return e.op("transport.wait", func() error { return e.Endpoint.BarrierCtx(ctx) })
}

func (e *tracedEndpoint) BroadcastCtx(ctx context.Context, root int, buf []float64) error {
	return e.op("transport.wait", func() error { return e.Endpoint.BroadcastCtx(ctx, root, buf) })
}

func (e *tracedEndpoint) AllreduceCtx(ctx context.Context, buf []float64, op transport.Op) error {
	return e.op("transport.wait", func() error { return e.Endpoint.AllreduceCtx(ctx, buf, op) })
}

func (e *tracedEndpoint) AllgatherCtx(ctx context.Context, contrib, dst []float64) error {
	return e.op("transport.wait", func() error { return e.Endpoint.AllgatherCtx(ctx, contrib, dst) })
}

// endpoint wraps ep for tracing under parent.
func (t *tracer) endpoint(ep transport.Endpoint, parent int64) transport.Endpoint {
	if t == nil {
		return ep
	}
	return &tracedEndpoint{Endpoint: ep, t: t, parent: parent}
}
