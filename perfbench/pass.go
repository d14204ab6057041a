package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// pass is one complete execution of a workload: every simulation of the
// workload, run back to back. It accumulates the host clock (set-up and
// run, kept apart), the allocation count, the virtual time of the timed
// communication, and the output checks. A traced pass also collects the
// registry counters and the driver's spans.
type pass struct {
	seed  uint64 // input seed of this pass
	short bool   // one point per sweep, a 2x2x2 torus

	setup  time.Duration // process CPU time of fabric, world and datatype construction
	wall   time.Duration // wall time of the fabric runs
	runCPU time.Duration // process CPU time of the fabric runs
	alloc  uint64        // heap bytes allocated during the runs
	virt   time.Duration // virtual time of the timed communication

	checked, bad int64
	firstBad     string

	events, windows uint64
	imbalance       float64 // max over runs of max/mean shard events

	commits    int
	commitHost time.Duration

	regret []float64          // chooser regret per collectives row
	model  map[string]float64 // measured values of the paper reference rows

	acc   *regAccum       // nil unless traced
	spans *spanLog        // nil unless traced
	prep  context.Context // profiler labels of the driver's own work, when traced
}

func newPass(seed uint64, short, traced bool) *pass {
	p := &pass{seed: seed, short: short, model: map[string]float64{}}
	if traced {
		p.acc = newRegAccum()
		p.spans = &spanLog{}
		p.prep = pprof.WithLabels(context.Background(), pprof.Labels(phaseLabel, phasePrep))
	}
	return p
}

func (p *pass) traced() bool { return p.acc != nil }

// check counts one verified output; a mismatch is recorded with its label.
func (p *pass) check(ok bool, format string, args ...any) {
	p.checked++
	if !ok {
		p.bad++
		if p.firstBad == "" {
			p.firstBad = fmt.Sprintf(format, args...)
		}
	}
}

// checkBytes compares a produced buffer with the driver's reference.
func (p *pass) checkBytes(got, want []byte, label string) {
	if bytes.Equal(got, want) {
		p.check(true, "")
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	p.check(false, "%s: first difference at byte %d of %d", label, i, len(want))
}

// measured runs fn under the profiler label that marks the measured part
// of a traced pass; goroutines fn starts inherit the label. Samples
// outside it (input generation, references, checks) are left out of the
// host shares.
func (p *pass) measured(fn func()) {
	if !p.traced() {
		fn()
		return
	}
	pprof.Do(p.prep, pprof.Labels(phaseLabel, phaseMeasured), func(context.Context) { fn() })
}

// timeSetup runs fn as set-up work. Set-up is counted in process CPU
// time, which, unlike the wall clock, does not advance while the host's
// hypervisor runs other guests.
func (p *pass) timeSetup(fn func()) {
	c0 := processCPU()
	p.measured(fn)
	p.setup += processCPU() - c0
}

// commit runs fn, which builds and commits datatypes, as set-up work.
func (p *pass) commit(fn func()) {
	t0 := time.Now()
	p.timeSetup(fn)
	d := time.Since(t0)
	p.commits++
	p.commitHost += d
	p.spans.add(span{name: "Commit", parent: "setup", host0: t0, host1: t0.Add(d)})
}

// run times one fabric run: host wall, allocation, events and shard
// balance. It returns the final virtual time.
func (p *pass) run(label string, f sim.Fabric, body func() time.Duration) time.Duration {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), processCPU()
	var end time.Duration
	p.measured(func() { end = body() })
	d := time.Since(t0)
	p.runCPU += processCPU() - c0
	runtime.ReadMemStats(&m1)
	p.wall += d
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.events += f.Events()
	if se, ok := f.(*sim.ShardedEngine); ok {
		p.windows += se.Windows()
		var max, sum uint64
		for i := 0; i < se.Shards(); i++ {
			n := se.Shard(i).Events()
			sum += n
			if n > max {
				max = n
			}
		}
		if sum > 0 {
			if r := float64(max) * float64(se.Shards()) / float64(sum); r > p.imbalance {
				p.imbalance = r
			}
		}
	} else if p.imbalance < 1 {
		p.imbalance = 1
	}
	p.spans.add(span{name: "Run", parent: label, host0: t0, host1: t0.Add(d), virt1: end})
	return end
}

// world builds an MPI world for cfg (set-up), runs body on every rank and
// returns the final virtual time. A traced pass attaches a fresh registry
// and folds it into the pass's accumulator afterwards.
func (p *pass) world(label string, cfg mpi.Config, body func(c *mpi.Comm, t *tracer)) time.Duration {
	var reg *obs.Registry
	if p.traced() {
		reg = obs.NewRegistry()
		cfg.Metrics = reg
	}
	var f sim.Fabric
	var w *mpi.World
	p.timeSetup(func() {
		f = mpi.NewFabric(cfg)
		w = mpi.NewWorldOn(f, cfg)
	})
	tr := p.tracer(label)
	end := p.run(label, f, func() time.Duration {
		return w.Run(func(c *mpi.Comm) { body(c, tr) })
	})
	p.acc.add(reg)
	return end
}

// processCPU returns the user and system CPU time of all the process's
// threads.
func processCPU() time.Duration {
	var r syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &r) // cannot fail for RUSAGE_SELF
	return time.Duration(r.Utime.Nano() + r.Stime.Nano())
}

// bw converts bytes moved in a virtual interval to MiB/s.
func bw(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 20)
}

// ---- seeded inputs ----

// mix derives a sub-seed from a seed and a path of integers (splitmix64
// over the sequence), so every buffer of every point has its own stream.
func mix(seed uint64, path ...uint64) uint64 {
	z := seed
	for _, v := range path {
		z = splitmix(z ^ splitmix(v+0x632be59bd9b4e019))
	}
	return z
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes a deterministic pseudo-random stream into b.
func fill(b []byte, seed uint64) {
	s := seed
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		s = splitmix(s)
		binary.LittleEndian.PutUint64(w[:], s)
		copy(b[i:], w[:])
	}
}

// seeded returns n seeded bytes.
func seeded(n int64, seed uint64) []byte {
	b := make([]byte, n)
	fill(b, seed)
	return b
}

// ---- spans ----

// span is one call into a layer, recorded from the driver: host and
// virtual start and end, with the workload point as parent.
type span struct {
	name, parent string
	host0, host1 time.Time
	virt0, virt1 time.Duration
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// tracer records spans around the driver's calls into mpi and osc for one
// workload point. The nil tracer (untraced passes) only makes the call.
type tracer struct {
	parent string
	log    *spanLog
}

func (p *pass) tracer(parent string) *tracer {
	if p.spans == nil {
		return nil
	}
	return &tracer{parent: parent, log: p.spans}
}

// call runs fn as the named call of rank c, recording a span when traced.
func (t *tracer) call(c *mpi.Comm, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	v0, h0 := c.WtimeDuration(), time.Now()
	fn()
	t.log.add(span{name: name, parent: t.parent, host0: h0, host1: time.Now(), virt0: v0, virt1: c.WtimeDuration()})
}

// spanLayer maps a recorded call to the layer it enters.
func spanLayer(name string) string {
	switch name {
	case "Put", "Get", "Fence":
		return "osc"
	case "Commit":
		return "datatype"
	case "Run":
		return "sim"
	}
	return "mpi"
}

// quantiles returns the q-quantiles (nearest rank) of the host and
// virtual durations, in microseconds, of the spans entering layer.
func (l *spanLog) quantiles(layer string, qs ...float64) (host, virt []float64) {
	var hs, vs []float64
	for _, s := range l.spans {
		if spanLayer(s.name) == layer {
			hs = append(hs, float64(s.host1.Sub(s.host0))/1e3)
			vs = append(vs, float64(s.virt1-s.virt0)/1e3)
		}
	}
	return pick(hs, qs), pick(vs, qs)
}

func pick(v []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(v) == 0 {
		return out
	}
	sort.Float64s(v)
	for i, q := range qs {
		k := int(q*float64(len(v))+0.5) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(v) {
			k = len(v) - 1
		}
		out[i] = v[k]
	}
	return out
}

// ---- registry accumulation ----

// regAccum folds the registries of every simulation of a pass together:
// counters and gauges are summed per full name (high-water gauges take the
// maximum), histograms are merged.
type regAccum struct {
	vals  map[string]int64
	hists map[string]*obs.Histogram
}

func newRegAccum() *regAccum {
	return &regAccum{vals: map[string]int64{}, hists: map[string]*obs.Histogram{}}
}

func (a *regAccum) add(r *obs.Registry) {
	if a == nil || r == nil {
		return
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		name := f[1]
		switch f[0] {
		case "counter", "gauge":
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: unreadable metric line %q\n", line)
				continue
			}
			if strings.Contains(baseName(name), "max") {
				if v > a.vals[name] {
					a.vals[name] = v
				}
			} else {
				a.vals[name] += v
			}
		case "hist":
			h := a.hists[name]
			if h == nil {
				h = &obs.Histogram{}
				a.hists[name] = h
			}
			h.Merge(r.Histogram(name))
		}
	}
}

func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// sum adds every counter or gauge whose base name is base and whose labels
// contain all of the given key=value fragments.
func (a *regAccum) sum(base string, labels ...string) int64 {
	var n int64
	for name, v := range a.vals {
		if baseName(name) == base && hasLabels(name, labels) {
			n += v
		}
	}
	return n
}

func (a *regAccum) max(base string) int64 {
	var n int64
	for name, v := range a.vals {
		if baseName(name) == base && v > n {
			n = v
		}
	}
	return n
}

// hist merges every histogram with the given base name.
func (a *regAccum) hist(base string) *obs.Histogram {
	h := &obs.Histogram{}
	for name, o := range a.hists {
		if baseName(name) == base {
			h.Merge(o)
		}
	}
	return h
}

func hasLabels(name string, labels []string) bool {
	for _, l := range labels {
		if !strings.Contains(name, l) {
			return false
		}
	}
	return true
}
