// Package flow models bulk data transfers over a network of capacitated
// links using max-min fair bandwidth sharing ("progressive filling").
//
// A Flow occupies a path of Links and is additionally capped by a per-flow
// source rate (modelling, e.g., the PIO output limit of a PCI-SCI adapter).
// Whenever a flow starts or completes, rates are recomputed and the next
// completion event is rescheduled, so contention between overlapping
// transfers is resolved exactly in virtual time.
//
// The work per start or completion is event-local: it is proportional to
// the flows whose rates change plus a logarithmic heap term, never to the
// number of active flows.
//
//   - Rates: a start or finish dirties only the links it touches, and the
//     solver re-runs progressive filling only over the connected component
//     of the flow↔link sharing graph those links belong to — flows that
//     share no link (even transitively) with the change keep their rates.
//     Max-min allocations decompose exactly over these components, and the
//     solver always works one component at a time in a deterministic order,
//     so the incremental rates are bit-identical to a from-scratch solve.
//   - Progress: a flow's remaining bytes are never stored per event; they
//     are derived from the flow's progress anchor in one expression, and
//     only for the flows a decision needs.
//   - Completions: an indexed min-heap keyed by a conservative lower bound
//     on each flow's completion instant brackets the flows that can finish
//     now or schedule the next completion. Only those are evaluated, with
//     the exact expressions a scan of every flow would use, so the
//     schedule is bit-identical to one.
//
// Links can degrade under load: each Link may carry a CongestionModel that
// maps (offered load, multiplexing degree) to an achievable fraction of the
// nominal capacity. The SCI ring calibration lives in congestion.go.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// Link is a unidirectional, capacitated network resource.
type Link struct {
	name     string
	capacity float64       // bytes/second, nominal
	latency  time.Duration // propagation latency (lookahead source; 0 = unset)
	model    CongestionModel

	flows []linkFlow // flows crossing the link, in admission order
	dirty bool       // queued in Network.dirty
	mark  uint64     // component-search epoch

	// Progressive-filling state, valid while solveMark equals the owning
	// network's solve generation.
	solveMark uint64
	residual  float64
	weight    float64 // sum of unfrozen flow weights
}

// linkFlow is one flow on a link with the weight it carries there.
type linkFlow struct {
	f *Flow
	w float64
}

// Hop is one step of a flow's path: a link and the fraction of the flow's
// rate that this link must carry. Data segments have weight 1; SCI
// flow-control echo packets returning around the ring load the remaining
// segments at a small fraction of the data rate.
type Hop struct {
	Link   *Link
	Weight float64
}

// Path converts a plain link list into a weight-1 hop path.
func Path(links ...*Link) []Hop {
	hops := make([]Hop, len(links))
	for i, l := range links {
		hops[i] = Hop{Link: l, Weight: 1}
	}
	return hops
}

// mergeHops returns path with every repeated link folded into its first
// occurrence, weights summed in path order. A path without repeats — every
// path a topology routes — is returned as is, without allocating.
func mergeHops(path []Hop) []Hop {
	for i := 1; i < len(path); i++ {
		for j := 0; j < i; j++ {
			if path[j].Link == path[i].Link {
				return mergeRepeated(path)
			}
		}
	}
	return path
}

func mergeRepeated(path []Hop) []Hop {
	var out []Hop
next:
	for _, h := range path {
		for j := range out {
			if out[j].Link == h.Link {
				out[j].Weight += h.Weight
				continue next
			}
		}
		out = append(out, h)
	}
	return out
}

// NewLink returns a link with the given nominal capacity in bytes/second.
// model may be nil for an ideal (loss-free) link.
func NewLink(name string, capacity float64, model CongestionModel) *Link {
	if capacity <= 0 {
		panic("flow: link capacity must be positive")
	}
	return &Link{name: name, capacity: capacity, model: model}
}

// Name returns the link's name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's nominal capacity in bytes/second.
func (l *Link) Capacity() float64 { return l.capacity }

// SetLatency records the link's propagation latency. The flow solver ignores
// it (transfer time is rate-driven); it exists so topologies can expose the
// minimum cross-partition delay as the conservative lookahead of a sharded
// simulation. It returns the link for chained construction.
func (l *Link) SetLatency(d time.Duration) *Link {
	if d < 0 {
		panic("flow: negative link latency")
	}
	l.latency = d
	return l
}

// Latency returns the link's propagation latency (zero if never set).
func (l *Link) Latency() time.Duration { return l.latency }

// PathLatency sums the propagation latencies along a hop path.
func PathLatency(path []Hop) time.Duration {
	var d time.Duration
	for _, h := range path {
		d += h.Link.Latency()
	}
	return d
}

// MinLatency returns the smallest latency among links, or zero for an empty
// set. A sharded engine partitioned so that every cross-shard interaction
// traverses at least one of links may use this as its lookahead — provided
// it is positive.
func MinLatency(links []*Link) time.Duration {
	var min time.Duration
	for i, l := range links {
		if i == 0 || l.latency < min {
			min = l.latency
		}
	}
	return min
}

// effectiveCapacity computes the usable capacity given the current set of
// flows, using the congestion model if present. demand is the sum of the
// unconstrained source rates of the flows crossing this link, accumulated in
// admission order so the float result is run-independent.
func (l *Link) effectiveCapacity() float64 {
	if l.model == nil || len(l.flows) == 0 {
		return l.capacity
	}
	demand := 0.0
	for _, lf := range l.flows {
		demand += lf.f.srcCap * lf.w
	}
	load := demand / l.capacity
	frac := l.model.AchievedFraction(load, len(l.flows))
	achieved := l.capacity * frac
	if achieved > demand {
		achieved = demand
	}
	return achieved
}

// Flow is one in-flight bulk transfer.
type Flow struct {
	id      uint64 // admission order within the owning network
	hops    []Hop  // path with repeated links merged (mergeHops)
	srcCap  float64
	rate    float64       // current allocated rate
	done    sim.Future    // allocated with the flow
	started time.Duration // virtual start time (for the duration metric)
	bytes   int64         // total transfer size

	// Progress anchor: remaining bytes are always derived as
	// anchorRemaining - rate*(now-anchorAt) in a single expression
	// (remainingAt), so the float result depends only on the last rate
	// change, never on how many intermediate evaluations happened. Without
	// this, two simulations of the same flows that evaluate at different
	// instants (a monolithic network vs. per-shard networks) would
	// accumulate different rounding residues and finish transfers a
	// nanosecond apart. The anchor moves only when the rate may change.
	anchorAt        time.Duration
	anchorRemaining float64

	mark uint64 // component-search epoch
	hidx int32  // index in Network.heap; -1 until the first solve
	// frozen is progressive-filling state.
	frozen bool
}

// Rate returns the currently allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Done returns a future completed when the transfer finishes.
func (f *Flow) Done() *sim.Future { return &f.done }

// remainingAt derives the bytes left at now from the progress anchor,
// clamped at zero. At the anchor instant the expression is exactly
// anchorRemaining, which is never negative, so that case skips it.
func (f *Flow) remainingAt(now time.Duration) float64 {
	if now == f.anchorAt {
		return f.anchorRemaining
	}
	r := f.anchorRemaining - f.rate*(now-f.anchorAt).Seconds()
	if r < 0 {
		return 0
	}
	return r
}

// finished reports whether f has (numerically) delivered its last byte.
func (f *Flow) finished(now time.Duration) bool { return f.remainingAt(now) <= 1e-9 }

// untilDone is the delay from now to f's projected completion: the whole
// bytes still to move at the current rate, rounded up to the nanosecond.
func (f *Flow) untilDone(now time.Duration) time.Duration {
	return sim.RateDuration(int64(math.Ceil(f.remainingAt(now))), f.rate)
}

// boundSlack is the relative margin completionBound keeps below the exact
// completion instant; see there.
const boundSlack = 1e-12

// completionBound returns an instant that is no later than any now at
// which finished(now) holds, and no later than now+untilDone(now) at any
// now at which it does not, for as long as the anchor and the rate stay.
//
// Let A = anchorRemaining, r = rate, dt = now-anchorAt in nanoseconds,
// u = 2^-53 the float64 unit roundoff, and X = ((A-2e-9)/r)·1e9 ns, in exact
// arithmetic. remainingAt computes p = fl(r·dt.Seconds()), where Seconds
// has an exact integer part, one division and one addition, so
// r·dt·1e-9·(1-3u) ≤ p ≤ r·dt·1e-9·(1+4u). An FMA only makes p exact.
//
//   - finished(now): fl(A-p) ≤ 1e-9 forces p > A - 1.0000001e-9, hence
//     dt > ((A-1.0000001e-9)/r)·1e9/(1+4u) ≥ X·(1-4u).
//   - not finished: A-p > 0, so dt < (A/r)·1e9·(1+4u). The whole bytes
//     ceil(fl(A-p)) are ≥ (A-p)·(1-u); RateDuration divides and scales
//     with one rounding each and then rounds up, so
//     dt + untilDone(now) ≥ dt + ((A-p)/r)·1e9·(1-3u)
//     ≥ (A/r)·1e9·(1-3u) - dt·u ≥ (A/r)·1e9·(1-5u) ≥ X·(1-5u).
//
// The value below computes X with four roundings (the subtraction, the
// division and two products, ≤ 5u together), takes boundSlack = 1e-12 off
// it — over a hundred times the 10u ≈ 1.1e-15 these errors sum to — keeps
// one more nanosecond in hand and truncates towards zero, so it is below
// X·(1-5u) and therefore below both quantities.
func (f *Flow) completionBound() time.Duration {
	a := f.anchorRemaining - 2e-9
	if a <= 0 {
		return f.anchorAt
	}
	ns := a/f.rate*1e9*(1-boundSlack) - 1
	if ns <= 0 {
		return f.anchorAt
	}
	if ns >= float64(math.MaxInt64-f.anchorAt) {
		return math.MaxInt64
	}
	return f.anchorAt + time.Duration(ns)
}

// heapEntry is one active flow in Network.heap with its key: the flow's
// completion bound, ties broken by admission id. Keeping the key in the
// entry lets sifting and walking the heap compare without touching flows.
type heapEntry struct {
	bound time.Duration
	id    uint64
	f     *Flow
}

func (e heapEntry) before(o heapEntry) bool {
	return e.bound < o.bound || e.bound == o.bound && e.id < o.id
}

// flowHeap is a 4-ary min-heap of entries — half the levels of a binary
// heap, so a pop moves half as many flows — and Flow.hidx tracks each
// flow's position so a flow can be re-keyed in O(log F).
type flowHeap []heapEntry

func (h flowHeap) put(i int, e heapEntry) {
	h[i] = e
	e.f.hidx = int32(i)
}

// sift places e at the heap position that restores order, starting from
// the hole at i.
func (h flowHeap) sift(i int, e heapEntry) {
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h.put(i, h[p])
		i = p
	}
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		c := first
		for k := first + 1; k < first+4 && k < len(h); k++ {
			if h[k].before(h[c]) {
				c = k
			}
		}
		if !h[c].before(e) {
			break
		}
		h.put(i, h[c])
		i = c
	}
	h.put(i, e)
}

// push adds f under its completion bound.
func (h *flowHeap) push(f *Flow) {
	*h = append(*h, heapEntry{})
	h.sift(len(*h)-1, heapEntry{f.completionBound(), f.id, f})
}

// rekey moves f to the position of its current completion bound.
func (h flowHeap) rekey(f *Flow) {
	h.sift(int(f.hidx), heapEntry{f.completionBound(), f.id, f})
}

// pop removes and returns the flow with the smallest key.
func (h *flowHeap) pop() *Flow {
	old := *h
	f, last := old[0].f, old[len(old)-1]
	old[len(old)-1] = heapEntry{}
	*h = old[:len(old)-1]
	if len(*h) > 0 {
		h.sift(0, last)
	}
	return f
}

// observer watches the solver's decisions. Tests install one to compare the
// heap walks against the reference scans and to certify every solve;
// production networks have none.
type observer interface {
	reallocating(n *Network)               // entry, before the retire pass
	retired(n *Network, fs []*Flow)        // the retire set, in completion order
	solved(n *Network, comp []*Flow)       // after each component solve
	scheduled(n *Network, d time.Duration) // the delay to the next completion
}

// Network tracks active flows and drives their completion in virtual time.
type Network struct {
	s      sim.Scheduler
	nextID uint64
	next   sim.Timer
	fire   func() // the completion-timer callback, bound once

	heap   flowHeap // every solved active flow, keyed by completion bound
	active int      // active flows, solved or not

	// The earliest projected completion at soonAt and the number of flows
	// projected there, over every solved flow (rate > 0). Within one instant
	// a projection changes only when its flow is re-anchored or retired, and
	// admit, solve and detach keep the memo current, so a burst of starts at
	// one instant walks the heap once. A count of zero invalidates it.
	soonAt    time.Duration
	soon      time.Duration
	soonCount int

	dirty []*Link // seed links of the components the next solve re-solves
	epoch uint64  // current component-search generation
	gen   uint64  // current component-solve generation

	// Scratch reused across events so the steady state allocates nothing.
	lstack   []*Link // component traversal
	comp     []*Flow // the component being solved
	links    []*Link // the component's links
	kept     []*Flow // popped by the retire pass but not finished
	finished []*Flow // retire set (nil while its owner completes futures)

	observer observer // test hooks; nil in production

	// metric collectors (nil without SetMetrics; nil collectors are no-ops).
	transferNS *obs.Histogram
	metBytes   *obs.Counter
	activeHW   *obs.Gauge
	solves     *obs.Counter
	compFlows  *obs.Histogram
	highWater  int

	// Solve metrics gather here and reach solves and compFlows when the
	// network drains, so the shard-local networks of a partitioned run do
	// not contend on shared collectors at every solve.
	pendSolves int64
	pendComp   obs.Histogram
}

// NewNetwork returns an empty flow network bound to the sequential engine.
func NewNetwork(e *sim.Engine) *Network { return NewNetworkOn(e) }

// NewNetworkOn returns an empty flow network driven by any scheduler — a
// sequential Engine or one shard of a sharded engine. A network must only
// ever be used from its scheduler's domain; per-shard networks are how a
// partitioned simulation keeps its rate solves small and lock-free.
func NewNetworkOn(s sim.Scheduler) *Network {
	n := &Network{s: s}
	n.fire = n.onTimer
	return n
}

// SetMetrics registers the network's collectors in r: a completed-transfer
// duration histogram (flow.transfer.ns), a delivered-bytes counter
// (flow.bytes), a concurrent-flows high-water gauge (flow.active.max), a
// component-solve counter (flow.solves) and a flows-per-solved-component
// histogram (flow.component.flows). The two solve metrics are published
// whenever the network drains (no active flows). Call it right after
// NewNetwork; a nil registry leaves metrics disabled. The collectors
// themselves are goroutine-safe, so shard-local networks may share one
// registry.
func (n *Network) SetMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	n.transferNS = r.Histogram("flow.transfer.ns")
	n.metBytes = r.Counter("flow.bytes")
	n.activeHW = r.Gauge("flow.active.max")
	n.solves = r.Counter("flow.solves")
	n.compFlows = r.Histogram("flow.component.flows")
}

// ActiveFlows returns the number of in-flight transfers.
func (n *Network) ActiveFlows() int { return n.active }

// noteStarted records a flow's admission for the high-water gauge.
func (n *Network) noteStarted() {
	if n.active > n.highWater {
		n.highWater = n.active
		n.activeHW.Max(int64(n.highWater))
	}
}

// noteFinished feeds completed flows into the duration and byte metrics,
// adding their bytes to the shared counter in one step.
func (n *Network) noteFinished(fin []*Flow) {
	if n.metBytes == nil || len(fin) == 0 {
		return
	}
	var bytes int64
	for _, f := range fin {
		n.transferNS.ObserveDuration(n.s.Now() - f.started)
		bytes += f.bytes
	}
	n.metBytes.Add(bytes)
}

// markDirty queues l for the next incremental solve.
func (n *Network) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// newFlow validates and builds a flow; it is not yet admitted.
func (n *Network) newFlow(path []Hop, bytes int64, srcCap float64) *Flow {
	for _, h := range path {
		if h.Weight <= 0 {
			panic("flow: hop weight must be positive")
		}
	}
	return &Flow{hops: path, srcCap: srcCap, started: n.s.Now(), bytes: bytes}
}

// admit registers a flow on the network and its links. Its first link
// seeds the next solve: the component search reaches the rest from there.
func (n *Network) admit(f *Flow) {
	f.id = n.nextID
	n.nextID++
	f.hops = mergeHops(f.hops)
	f.anchorAt, f.anchorRemaining = n.s.Now(), float64(f.bytes)
	for _, h := range f.hops {
		h.Link.flows = append(h.Link.flows, linkFlow{f: f, w: h.Weight})
	}
	n.active++
	f.hidx = -1
	if len(f.hops) > 0 {
		n.markDirty(f.hops[0].Link)
		return
	}
	// No links: the flow is its own component, bound only by its source.
	f.rate = f.srcCap
	n.heap.push(f)
	n.memoAdd(f)
}

// Start begins a transfer of bytes over path, capped at srcCap bytes/second.
// It returns immediately; the flow's Done future completes when the last
// byte has been delivered. An empty path means the flow is limited only by
// srcCap. A link appearing in several hops accumulates their weights.
func (n *Network) Start(path []Hop, bytes int64, srcCap float64) *Flow {
	if srcCap <= 0 {
		panic("flow: source cap must be positive")
	}
	f := n.newFlow(path, bytes, srcCap)
	if bytes <= 0 {
		f.done.Complete(nil)
		return f
	}
	n.admit(f)
	n.noteStarted()
	n.reallocate()
	return f
}

// StartBatch begins many transfers that share one rate recomputation —
// the moment large symmetric scenarios (a whole machine starting its bulk
// phase) need: starting n flows one by one costs n full max-min passes,
// a batch costs one.
func (n *Network) StartBatch(paths [][]Hop, bytes int64, srcCap float64) []*Flow {
	if srcCap <= 0 {
		panic("flow: source cap must be positive")
	}
	flows := make([]*Flow, len(paths))
	for i, path := range paths {
		f := n.newFlow(path, bytes, srcCap)
		flows[i] = f
		if bytes <= 0 {
			f.done.Complete(nil)
			continue
		}
		n.admit(f)
	}
	n.noteStarted()
	n.reallocate()
	return flows
}

// Transfer runs a flow to completion, blocking the calling process.
func (n *Network) Transfer(p *sim.Proc, path []Hop, bytes int64, srcCap float64) {
	f := n.Start(path, bytes, srcCap)
	p.Await(&f.done)
}

// onTimer is the completion event.
func (n *Network) onTimer() {
	n.next = sim.Timer{}
	n.reallocate()
}

// reallocate retires finished flows, re-solves the dirtied components and
// schedules the next completion event.
func (n *Network) reallocate() {
	n.next.Cancel()
	n.next = sim.Timer{}
	now := n.s.Now()
	if n.observer != nil {
		n.observer.reallocating(n)
	}

	// Retire flows credited to (numerical) completion. Every such flow has
	// its completion bound at or before now, so popping the heap up to now
	// finds them all; the few popped flows not yet finished go back. The
	// set is fixed at entry — no virtual time passes inside reallocate — so
	// one pass suffices. Completion order is by admission id: future
	// callbacks schedule events. Pops come in (bound, id) order, so a set
	// that ties on its bound needs no sort. Completing a future may start
	// flows and re-enter reallocate, so the scratch slice is detached until
	// this call is done with it.
	fin := n.finished[:0]
	n.finished = nil
	keep := n.kept[:0]
	for len(n.heap) > 0 && n.heap[0].bound <= now {
		f := n.heap.pop()
		if f.finished(now) {
			fin = append(fin, f)
		} else {
			keep = append(keep, f)
		}
	}
	for _, f := range keep {
		n.heap.push(f)
	}
	clear(keep)
	n.kept = keep[:0]
	if !slices.IsSortedFunc(fin, byID) {
		slices.SortFunc(fin, byID)
	}
	for _, f := range fin {
		n.detach(f)
	}
	n.active -= len(fin)
	n.noteFinished(fin)
	if n.observer != nil {
		n.observer.retired(n, fin)
	}

	n.solve()

	if len(n.heap) > 0 {
		d := n.soonest(now)
		if n.observer != nil {
			n.observer.scheduled(n, d)
		}
		n.next = n.s.After(d, n.fire)
	} else if n.pendSolves > 0 {
		n.solves.Add(n.pendSolves)
		n.compFlows.Merge(&n.pendComp)
		n.pendSolves, n.pendComp = 0, obs.Histogram{}
	}
	for _, f := range fin {
		f.done.Complete(nil)
	}
	clear(fin)
	n.finished = fin[:0]
}

func byID(a, b *Flow) int { return cmp.Compare(a.id, b.id) }

// soonest returns the delay to the earliest projected completion among the
// active flows. Unless the memo holds it, the heap top's projection is an
// upper bound on the answer, and a flow whose completion bound lies beyond
// now plus the best projection so far cannot undercut it, so only the heap
// nodes bounded within it are evaluated.
func (n *Network) soonest(now time.Duration) time.Duration {
	if n.soonCount > 0 && n.soonAt == now {
		return n.soon
	}
	n.soonAt, n.soon, n.soonCount = now, n.heap[0].f.untilDone(now), 0
	n.walkSoonest(0)
	return n.soon
}

// walkSoonest folds into the memo every flow of the heap subtree at i
// whose completion bound is within the best projection so far.
func (n *Network) walkSoonest(i int) {
	if i >= len(n.heap) || n.heap[i].bound-n.soonAt > n.soon {
		return
	}
	n.fold(n.heap[i].f.untilDone(n.soonAt))
	for c := 4*i + 1; c <= 4*i+4; c++ {
		n.walkSoonest(c)
	}
}

// fold counts projection d into the memo.
func (n *Network) fold(d time.Duration) {
	if d < n.soon {
		n.soon, n.soonCount = d, 1
	} else if d == n.soon {
		n.soonCount++
	}
}

// memoAdd folds the projection of a flow just solved into the memo.
func (n *Network) memoAdd(f *Flow) {
	if now := n.s.Now(); n.soonCount > 0 && n.soonAt == now && f.rate > 0 {
		n.fold(f.untilDone(now))
	}
}

// memoDrop withdraws the projection of a solved flow whose anchor or rate
// is about to change.
func (n *Network) memoDrop(f *Flow) {
	if now := n.s.Now(); n.soonCount > 0 && n.soonAt == now && f.rate > 0 && f.untilDone(now) == n.soon {
		n.soonCount--
	}
}

// detach takes a retired flow off its links and dirties those that still
// carry flows: every flow whose rate the departure can change now shares a
// component with one of them.
func (n *Network) detach(f *Flow) {
	n.memoDrop(f)
	for _, h := range f.hops {
		l := h.Link
		for i, lf := range l.flows {
			if lf.f == f {
				l.flows = slices.Delete(l.flows, i, i+1)
				break
			}
		}
		if len(l.flows) > 0 {
			n.markDirty(l)
		}
	}
	f.rate = 0
}

// solve re-runs progressive filling over every connected component of the
// flow↔link graph that contains a dirtied link. Components are discovered
// and solved one at a time; flows in untouched components keep their rates,
// which a from-scratch solve would reproduce bit-identically because it uses
// the same per-component code on the same admission-ordered flows.
func (n *Network) solve() {
	if len(n.dirty) == 0 {
		return
	}
	now := n.s.Now()
	n.epoch++
	for _, seed := range n.dirty {
		seed.dirty = false
		if seed.mark == n.epoch {
			continue
		}
		comp := n.component(seed)
		if len(comp) == 0 {
			continue
		}
		// The rates are about to change: move each flow's anchor to now
		// under its old rate, so progress is derived from this instant on.
		for _, f := range comp {
			n.memoDrop(f)
			f.anchorAt, f.anchorRemaining = now, f.remainingAt(now)
		}
		n.solveComponent(comp)
		if n.solves != nil {
			n.pendSolves++
			n.pendComp.Observe(int64(len(comp)))
		}
		if n.observer != nil {
			n.observer.solved(n, comp)
		}
		for _, f := range comp {
			if f.hidx < 0 {
				n.heap.push(f)
			} else {
				n.heap.rekey(f)
			}
			n.memoAdd(f)
		}
	}
	n.dirty = n.dirty[:0]
}

// component collects the active flows transitively sharing links with seed,
// sorted by admission id so the solver sees them in a run-independent order.
// The result is scratch, valid until the next call.
func (n *Network) component(seed *Link) []*Flow {
	seed.mark = n.epoch
	n.lstack = append(n.lstack[:0], seed)
	flows := n.comp[:0]
	for len(n.lstack) > 0 {
		l := n.lstack[len(n.lstack)-1]
		n.lstack = n.lstack[:len(n.lstack)-1]
		for _, lf := range l.flows {
			f := lf.f
			if f.mark == n.epoch {
				continue
			}
			f.mark = n.epoch
			flows = append(flows, f)
			for _, h := range f.hops {
				if l := h.Link; l.mark != n.epoch {
					l.mark = n.epoch
					if len(l.flows) > 1 { // a link carrying only f leads nowhere new
						n.lstack = append(n.lstack, l)
					}
				}
			}
		}
	}
	if len(flows) > 1 {
		slices.SortFunc(flows, byID)
	}
	n.comp = flows
	return flows
}

// solveComponent performs weighted progressive filling over one connected
// component: repeatedly find the tightest constraint (a link's fair share or
// a flow's source cap), freeze the flows it binds, and continue with the
// residual capacities. A flow with weight w on a link consumes w times its
// rate there; unfrozen flows on a link all receive the same rate, so the
// link's fair share is residual / sum-of-unfrozen-weights. All iteration is
// over admission-ordered slices, so every float sum has a run-independent
// order.
func (n *Network) solveComponent(flows []*Flow) {
	n.gen++
	links := n.links[:0]
	for _, f := range flows {
		f.frozen = false
		f.rate = 0
		for _, h := range f.hops {
			l := h.Link
			if l.solveMark != n.gen {
				l.solveMark = n.gen
				l.residual, l.weight = l.effectiveCapacity(), 0
				links = append(links, l)
			}
			l.weight += h.Weight
		}
	}
	n.links = links
	unfrozen := len(flows)
	for unfrozen > 0 {
		// Tightest link fair share.
		share := math.MaxFloat64
		for _, l := range links {
			if l.weight <= 1e-12 {
				continue
			}
			if s := l.residual / l.weight; s < share {
				share = s
			}
		}
		// Tightest source cap.
		minCap := math.MaxFloat64
		for _, f := range flows {
			if !f.frozen && f.srcCap < minCap {
				minCap = f.srcCap
			}
		}
		r := share
		if minCap < r {
			r = minCap
		}
		if r == math.MaxFloat64 || r < 0 {
			panic(fmt.Sprintf("flow: rate computation failed (share=%g cap=%g)", share, minCap))
		}
		froze := false
		for _, f := range flows {
			if f.frozen {
				continue
			}
			bound := f.srcCap <= r+1e-12
			if !bound {
				for _, h := range f.hops {
					if h.Link.residual/h.Link.weight <= r+1e-12 {
						bound = true
						break
					}
				}
			}
			if bound {
				f.frozen = true
				f.rate = math.Min(r, f.srcCap)
				froze = true
				unfrozen--
				for _, h := range f.hops {
					l := h.Link
					l.residual -= f.rate * h.Weight
					if l.residual < 0 {
						l.residual = 0
					}
					l.weight -= h.Weight
					if l.weight < 0 {
						l.weight = 0
					}
				}
			}
		}
		if !froze {
			panic("flow: progressive filling made no progress")
		}
	}
}
