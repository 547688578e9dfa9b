package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
	"heteroos/internal/workload"
)

// span is one timed call across a layer boundary. Parent is the id of
// the span that made the call, or -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps one traced iteration's spans in memory. It is safe for
// the concurrent sweep cells and fleet hosts; cur is the innermost open
// span of the single-threaded drive loops, which parents the decorators'
// spans there.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	cur    int32
}

func newTracer() *tracer { return &tracer{origin: time.Now(), cur: -1} }

func (t *tracer) start(name string, parent int32) int32 {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call times fn as a span under the current drive-loop span; on a nil
// tracer it just calls fn.
func (t *tracer) call(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.start(name, t.cur)
	outer := t.cur
	t.cur = id
	fn()
	t.cur = outer
	t.end(id)
}

// durations lists the durations of every span named name, in order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes gives every span's duration minus the part its child spans
// cover, indexed by span id. The caller holds t.mu.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfTime sums the self times of every span named name.
func (t *tracer) selfTime(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name {
			sum += self[s.ID]
		}
	}
	return float64(sum)
}

// writeFile writes the spans as JSON lines, each with its self time.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[s.ID]}
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

// tracedWorkload decorates a workload.Workload: Init and Step become
// spans, and the guest's in-flight epoch counters are read right after
// each Step to count the page touches it generated.
type tracedWorkload struct {
	inner   workload.Workload
	tr      *tracer
	touches uint64
}

func (w *tracedWorkload) Profile() workload.Profile { return w.inner.Profile() }

func (w *tracedWorkload) Init(os *guestos.OS) error {
	id := w.tr.start("workload.init", w.tr.cur)
	err := w.inner.Init(os)
	w.tr.end(id)
	return err
}

func (w *tracedWorkload) Step(os *guestos.OS) (uint64, bool) {
	id := w.tr.start("workload.step", w.tr.cur)
	instr, done := w.inner.Step(os)
	w.tr.end(id)
	ep := os.PeekEpoch()
	for t := range ep.UserLoads {
		w.touches += ep.UserLoads[t] + ep.UserStores[t]
	}
	return instr, done
}

// tallyBackend decorates a memsim.Backend. It sums what the backend
// priced — one Charge is one VM-epoch, and a VM's simulated clock
// advances by exactly the Total of each of its charges — and, when
// traced, records EffectiveMPKI and Charge as spans under *parent.
type tallyBackend struct {
	memsim.Backend
	tr     *tracer
	parent *int32

	charges uint64
	simTime sim.Duration
	misses  [memsim.NumTiers]uint64
}

func (b *tallyBackend) EffectiveMPKI(llc memsim.LLC, mpki float64, wss int64) float64 {
	if b.tr == nil {
		return b.Backend.EffectiveMPKI(llc, mpki, wss)
	}
	id := b.tr.start("memsim.mpki", *b.parent)
	v := b.Backend.EffectiveMPKI(llc, mpki, wss)
	b.tr.end(id)
	return v
}

func (b *tallyBackend) Charge(c memsim.EpochCharge) memsim.EpochCost {
	var cost memsim.EpochCost
	if b.tr == nil {
		cost = b.Backend.Charge(c)
	} else {
		id := b.tr.start("memsim.charge", *b.parent)
		cost = b.Backend.Charge(c)
		b.tr.end(id)
	}
	b.charges++
	b.simTime += cost.Total
	for t := range cost.Misses {
		b.misses[t] += cost.Misses[t]
	}
	return cost
}

// tallyBuilder decorates a memsim.Builder: the backend it builds is
// wrapped in a tallyBackend, handed to keep once built.
func tallyBuilder(inner memsim.Builder, tr *tracer, parent *int32, keep func(*tallyBackend)) memsim.Builder {
	return func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
		b := &tallyBackend{Backend: inner(m, opts...), tr: tr, parent: parent}
		keep(b)
		return b
	}
}

// memsimLayers reports the pricing layer's per-layer metrics.
func memsimLayers(it *iteration, charges uint64) {
	chargeNs := it.tr.total("memsim.charge")
	it.layers["memsim.charge_calls"] = float64(charges)
	it.layers["memsim.charge_ns"] = chargeNs
	it.layers["memsim.charge_ns_per_call"] = ratio(chargeNs, float64(charges))
	it.layers["memsim.mpki_ns"] = it.tr.total("memsim.mpki")
}

// phaseLayers reports the epoch phase profiler's host time per phase
// from a snapshot of one or more profiled runs.
func phaseLayers(it *iteration, snap obs.Snapshot) {
	r := snap.Rollup()
	for _, ph := range obs.Phases() {
		name := "phase." + ph.String() + ".wall_ns"
		if v := r.Find(name); v != nil {
			it.layers[name] = v.Sum
		}
	}
}
