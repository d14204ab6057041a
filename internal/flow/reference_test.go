package flow

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// The reference solver: the O(F) passes the event-local network replaced,
// kept as oracles the incremental bookkeeping is tested against.

// solveAll dirties every link carrying an active flow and re-solves. It is
// the from-scratch oracle of the incremental component solve.
func (n *Network) solveAll() {
	for _, e := range n.heap {
		for _, h := range e.f.hops {
			n.markDirty(h.Link)
		}
	}
	n.solve()
}

// refSettle derives every solved active flow's remaining bytes at now from
// its progress anchor — the settle pass that once ran on every event. (A
// flow admitted since the last solve has moved no bytes yet.)
func refSettle(n *Network, now time.Duration) map[*Flow]float64 {
	rem := make(map[*Flow]float64, len(n.heap))
	for _, e := range n.heap {
		f := e.f
		r := f.anchorRemaining - f.rate*(now-f.anchorAt).Seconds()
		if r < 0 {
			r = 0
		}
		rem[f] = r
	}
	return rem
}

// refRetire is the finished scan: every settled flow at or below the
// completion threshold, in admission order.
func refRetire(n *Network, now time.Duration) []*Flow {
	var finished []*Flow
	for f, r := range refSettle(n, now) {
		if r <= 1e-9 {
			finished = append(finished, f)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].id < finished[j].id })
	return finished
}

// refSoonest is the soonest scan: the earliest projected completion among
// all settled flows.
func refSoonest(n *Network, now time.Duration) time.Duration {
	soonest := time.Duration(math.MaxInt64)
	for f, r := range refSettle(n, now) {
		if d := sim.RateDuration(int64(math.Ceil(r)), f.rate); d < soonest {
			soonest = d
		}
	}
	return soonest
}

// certifyMaxMin checks that a solved component is a max-min fair
// allocation: every rate is positive and within its source cap, no link
// carries more than its effective capacity, and every flow is either at its
// source cap or crosses a saturated link on which no other flow has a larger
// rate.
func certifyMaxMin(comp []*Flow) error {
	const tol = 1e-9
	load := make(map[*Link]float64)
	for _, f := range comp {
		if !(f.rate > 0) || f.rate > f.srcCap*(1+tol) {
			return fmt.Errorf("flow %d: rate %g outside (0, srcCap %g]", f.id, f.rate, f.srcCap)
		}
		for _, h := range f.hops {
			load[h.Link] += f.rate * h.Weight
		}
	}
	for l, sum := range load {
		if c := l.effectiveCapacity(); sum > c*(1+tol) {
			return fmt.Errorf("link %s: load %g exceeds effective capacity %g", l.name, sum, c)
		}
	}
	for _, f := range comp {
		if f.rate >= f.srcCap*(1-tol) {
			continue
		}
		bottlenecked := false
		for _, h := range f.hops {
			l := h.Link
			if load[l] < l.effectiveCapacity()*(1-tol) {
				continue
			}
			largest := true
			for _, lf := range l.flows {
				if lf.f.rate > f.rate*(1+tol) {
					largest = false
					break
				}
			}
			if largest {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d: rate %g below its cap %g and no saturated link where it is largest",
				f.id, f.rate, f.srcCap)
		}
	}
	return nil
}

// refObserver checks the network against the reference scans at every
// reallocate and certifies every component solve. It reports with Errorf
// (solver calls may run on a simulated process's goroutine) and only the
// first failure, after which the state it compares is already off.
type refObserver struct {
	t        *testing.T
	want     []*Flow
	retires  int // reallocations compared
	ties     int // retire sets of several flows finishing together
	instants int // next-completion instants compared
	solves   int // components certified
}

// watch installs a reference observer on n.
func watch(t *testing.T, n *Network) *refObserver {
	o := &refObserver{t: t}
	n.observer = o
	return o
}

func (o *refObserver) reallocating(n *Network) {
	o.want = refRetire(n, n.s.Now())
}

func (o *refObserver) retired(n *Network, fs []*Flow) {
	o.retires++
	if len(fs) > 1 {
		o.ties++
	}
	if o.t.Failed() {
		return
	}
	if len(fs) != len(o.want) {
		o.t.Errorf("at %v: retired %d flows, reference scan %d", n.s.Now(), len(fs), len(o.want))
		return
	}
	for i := range fs {
		if fs[i] != o.want[i] {
			o.t.Errorf("at %v: retire order differs at %d: flow %d, reference flow %d",
				n.s.Now(), i, fs[i].id, o.want[i].id)
			return
		}
	}
}

func (o *refObserver) solved(n *Network, comp []*Flow) {
	o.solves++
	if o.t.Failed() {
		return
	}
	if err := certifyMaxMin(comp); err != nil {
		o.t.Errorf("at %v: max-min certificate: %v", n.s.Now(), err)
	}
}

func (o *refObserver) scheduled(n *Network, d time.Duration) {
	o.instants++
	if o.t.Failed() {
		return
	}
	if want := refSoonest(n, n.s.Now()); d != want {
		o.t.Errorf("at %v: next completion in %v, reference scan %v", n.s.Now(), d, want)
	}
}

// TestHeapWalkMatchesReferenceScans drives randomized traffic through a
// network and, at every reallocate, compares the heap-bracketed retire set
// (membership and order) and next completion instant with the reference
// scans over every active flow. The traffic mixes many disjoint components
// (where a flow's projected completion is re-rounded at every unrelated
// event), shared links with fractional hop weights, a congested bus, links
// repeated within one path, zero-hop flows, batches of symmetric flows
// whose completions tie to the nanosecond, and flows started from a
// completion callback at the completion instant.
func TestHeapWalkMatchesReferenceScans(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		n := NewNetwork(e)
		o := watch(t, n)
		private := make([]*Link, 32)
		for i := range private {
			private[i] = NewLink("p", float64(rng.Intn(300)+50)*mib+rng.Float64()*1e5, nil)
		}
		shared := make([]*Link, 4)
		for i := range shared {
			shared[i] = NewLink("s", float64(rng.Intn(300)+100)*mib, nil)
		}
		shared[0] = NewLink("bus", 250*mib, BusCongestion{PerFlowPenalty: 0.05, Floor: 0.4})

		randCap := func() float64 { return float64(rng.Intn(200)+20)*mib + rng.Float64()*1e4 }
		randBytes := func() int64 { return int64(rng.Intn(8<<20) + 1) }
		var start func()
		chain := func(f *Flow) {
			if rng.Intn(3) == 0 {
				f.Done().OnComplete(func(any) { start() })
			}
		}
		start = func() {
			switch k := rng.Intn(10); {
			case k < 4: // its own component
				chain(n.Start(Path(private[rng.Intn(len(private))]), randBytes(), randCap()))
			case k < 7: // shared links, fractional weights, repeats
				var hops []Hop
				for j := rng.Intn(3) + 1; j > 0; j-- {
					w := 1.0
					if rng.Intn(4) == 0 {
						w = 0.25
					}
					hops = append(hops, Hop{Link: shared[rng.Intn(len(shared))], Weight: w})
				}
				chain(n.Start(hops, randBytes(), randCap()))
			case k < 8: // source-capped only
				chain(n.Start(nil, randBytes(), randCap()))
			default: // symmetric batch: identical flows on private links tie exactly
				m := rng.Intn(6) + 2
				paths := make([][]Hop, m)
				base := rng.Intn(len(private) - m)
				for j := range paths {
					paths[j] = Path(private[base+j])
					if rng.Intn(2) == 0 {
						paths[j] = Path(shared[1]) // ties on a shared link too
					}
				}
				for _, f := range n.StartBatch(paths, randBytes(), 40*mib) {
					chain(f)
				}
			}
		}
		for i := 0; i < 150; i++ {
			e.At(time.Duration(rng.Intn(400))*time.Millisecond, start)
		}
		e.Run()
		if n.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows never finished", seed, n.ActiveFlows())
		}
		if o.retires < 300 || o.instants < 300 || o.solves < 300 || o.ties == 0 {
			t.Fatalf("seed %d: only %d retire sets (%d tied), %d instants, %d solves compared",
				seed, o.retires, o.ties, o.instants, o.solves)
		}
	}
}

// TestCompletionBoundIsConservative probes the heap key directly: over
// random anchors, rates and instants, a flow that the retire test calls
// finished is never keyed after now, and a flow it does not is never keyed
// after its projected completion.
func TestCompletionBoundIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		f := &Flow{
			anchorAt:        time.Duration(rng.Int63n(int64(time.Hour))),
			anchorRemaining: math.Ldexp(rng.Float64()+0.5, rng.Intn(60)-20),
			rate:            math.Ldexp(rng.Float64()+0.5, rng.Intn(40)),
		}
		b := f.completionBound()
		// Probe instants around the exact completion, where the bound is
		// tightest.
		exact := float64(f.anchorAt) + f.anchorRemaining/f.rate*1e9
		for _, off := range []float64{-3, -2, -1, 0, 1, 2, 3} {
			now := time.Duration(math.Floor(exact + off))
			if now < f.anchorAt || exact > math.MaxInt64/2 {
				continue
			}
			if f.finished(now) {
				if b > now {
					t.Fatalf("A=%g r=%g at %v: finished but bound %v", f.anchorRemaining, f.rate, now-f.anchorAt, b-f.anchorAt)
				}
			} else if c := now + f.untilDone(now); b > c {
				t.Fatalf("A=%g r=%g at %v: completes at %v but bound %v", f.anchorRemaining, f.rate,
					now-f.anchorAt, c-f.anchorAt, b-f.anchorAt)
			}
		}
	}
}

// TestAllocsFlowSteadyState pins the solver's steady state: once scratch
// slices, the heap and the engine freelist are warm, a Start→completion
// cycle allocates only the Flow, which carries its Future.
func TestAllocsFlowSteadyState(t *testing.T) {
	e := sim.NewEngine()
	n := NewNetwork(e)
	n.SetMetrics(obs.NewRegistry())
	a, b := NewLink("a", 300*mib, nil), NewLink("b", 200*mib, nil)
	bus := NewLink("bus", 250*mib, BusCongestion{PerFlowPenalty: 0.05, Floor: 0.4})
	paths := [][]Hop{Path(a, b), Path(b, bus), Path(bus), Path(a), nil}
	cycle := func() {
		for i, p := range paths {
			n.Start(p, int64(i+1)*64<<10, 150*mib)
		}
		e.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != float64(len(paths)) {
		t.Errorf("Start→completion cycle of %d flows: %v allocs, want %d", len(paths), got, len(paths))
	}
}
