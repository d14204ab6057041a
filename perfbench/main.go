// Command perfbench is the repository's benchmark. It runs one named
// workload of the simulator in closed loop (every simulated rank waits for
// its own calls; the workload's simulations run back to back, pass after
// pass, until the requested seconds are spent), checks every output
// against references it computes itself, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host CPU time of
// the runs and of set-up, allocation, virtual time). With --trace 1 a
// separate run attaches a metrics registry, records spans around the
// driver's calls into each layer and takes a CPU profile, and the metrics
// are the per-layer ones.
//
// Every pass runs in a fresh child process of the benchmark (--pass), so
// passes start from the same heap state and memory a pass's worlds keep
// is returned when the pass ends.
//
// Run it through run.sh, which builds it from the repository's sources:
//
//	bash perfbench/run.sh --workload onesided --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// workloads maps each workload name to one pass of it.
var workloads = map[string]func(*pass){
	"torus-allreduce": runTorus,
	"collectives":     runCollectives,
	"noncontig":       runNoncontig,
	"onesided":        runOnesided,
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: torus-allreduce, collectives, noncontig or onesided")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	short := flag.Bool("short", false, "self-test size: a 2x2x2 torus and one point per sweep")
	onePass := flag.Bool("pass", false, "run one pass with input seed --seed and print its result (used by the benchmark itself)")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	var out any
	var err error
	if *onePass {
		out, err = runPass(run, *seed, *short, *trace == 1)
	} else {
		out, err = bench(childPasses(*workload, *short), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	}
	if err == nil {
		var b []byte
		if b, err = json.Marshal(out); err == nil {
			fmt.Println(string(b))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// passResult is one pass's outcome as its process reports it.
type passResult struct {
	Wall, RunCPU, Setup, Virt time.Duration
	Ref                       time.Duration // CPU time of the reference workload
	Alloc                     uint64
	Checked, Bad              int64
	FirstBad                  string
	Events                    uint64
	Model                     map[string]float64
	Regret                    []float64

	// Traced passes only: the pass's per-layer values, its profiled CPU
	// nanoseconds per bucket, and the garbage collections it ran.
	Layer    map[string]float64 `json:",omitempty"`
	Shares   layerShares        `json:",omitempty"`
	GCCycles uint32             `json:",omitempty"`
}

// runPass runs one pass of a workload in this process.
func runPass(run func(*pass), seed uint64, short, traced bool) (*passResult, error) {
	p := newPass(seed, short, traced)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start profile: %w", err)
		}
		pprof.SetGoroutineLabels(p.prep)
	}
	ref := refCPU()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(p)
	runtime.ReadMemStats(&m1)
	ref = (ref + refCPU()) / 2
	res := &passResult{
		Wall: p.wall, RunCPU: p.runCPU, Setup: p.setup, Virt: p.virt, Ref: ref,
		Alloc: p.alloc, Checked: p.checked, Bad: p.bad, FirstBad: p.firstBad,
		Events: p.events, Model: p.model, Regret: p.regret,
	}
	if traced {
		pprof.StopCPUProfile()
		shares, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		res.Layer, res.Shares, res.GCCycles = p.layerValues(), shares, m1.NumGC-m0.NumGC
	}
	return res, nil
}

// passRunner runs one pass with the given input seed, traced or not.
type passRunner func(seed uint64, traced bool) (*passResult, error)

// childPasses runs every pass in a fresh child process of this program.
func childPasses(workload string, short bool) passRunner {
	return func(seed uint64, traced bool) (*passResult, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("locate benchmark binary: %w", err)
		}
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "--pass", "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
			"--trace", trace, "--short="+strconv.FormatBool(short))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("pass with seed %d: %w", seed, err)
		}
		var res passResult
		if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
			return nil, fmt.Errorf("pass with seed %d: %w", seed, err)
		}
		return &res, nil
	}
}

// bench runs passes for d and derives the run's result. Pass k gets its
// own input seed derived from seed, so every run compares two or more
// seeds.
func bench(pass passRunner, seed uint64, d time.Duration, traced bool) (*result, error) {
	if !traced {
		plain, err := loop(pass, seed, 0, false, d)
		if err != nil {
			return nil, err
		}
		res := verdict(plain)
		res.Metrics = endToEnd(plain)
		return res, nil
	}
	// The traced run: untraced passes for half the time give the baseline
	// for the tracing overhead and the host rates, then traced passes (at
	// least two, on two more seeds) for the other half give the per-layer
	// numbers: the values of the first traced pass, which the second must
	// repeat exactly on every virtual number, and the CPU profiles of all.
	plain, err := loop(pass, seed, 0, false, d/2)
	if err != nil {
		return nil, err
	}
	tr, err := loop(pass, seed, 1<<32, true, d/2)
	if err != nil {
		return nil, err
	}
	res := verdict(append(plain, tr...))
	for _, def := range catalogue {
		if !def.virtual {
			continue
		}
		res.Attempted++
		if a, b := tr[0].Layer[def.name], tr[1].Layer[def.name]; a != b {
			res.fail(fmt.Sprintf("%s differs across seeds: %v vs %v", def.name, a, b))
		}
	}
	res.Metrics = perLayer(plain, tr, float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// loop runs passes back to back until d has elapsed, and at least two.
func loop(pass passRunner, seed, base uint64, traced bool, d time.Duration) ([]*passResult, error) {
	var out []*passResult
	start := time.Now()
	for k := base; len(out) < 2 || time.Since(start) < d; k++ {
		p, err := pass(mix(seed, k), traced)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "pass %d: wall %.4fs cpu %.4fs setup %.4fs ref %.4fs alloc %.1fMB\n",
			k-base, p.Wall.Seconds(), p.RunCPU.Seconds(), p.Setup.Seconds(), p.Ref.Seconds(), float64(p.Alloc)/1e6)
		out = append(out, p)
	}
	return out, nil
}

// verdict sums the output checks of every pass and adds the determinism
// checks: virtual time, the event count and every model value must be
// identical on every pass, whatever its input seed and whether it was
// traced.
func verdict(passes []*passResult) *result {
	res := &result{Correct: true}
	for _, p := range passes {
		res.Attempted += p.Checked
		res.Failed += p.Bad
		if p.Bad > 0 {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d checks failed; first: %s\n", p.Bad, p.Checked, p.FirstBad)
		}
	}
	ref := passes[0]
	for _, p := range passes[1:] {
		res.Attempted++
		switch {
		case p.Virt != ref.Virt:
			res.fail(fmt.Sprintf("virtual time differs across passes: %v vs %v", p.Virt, ref.Virt))
		case p.Events != ref.Events:
			res.fail(fmt.Sprintf("event count differs across passes: %d vs %d", p.Events, ref.Events))
		case fmt.Sprint(p.Model, p.Regret) != fmt.Sprint(ref.Model, ref.Regret):
			res.fail("model values differ across passes")
		}
	}
	return res
}

func (r *result) fail(msg string) {
	r.Correct = false
	r.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
}

// scaled converts a CPU time of the pass to seconds of the nominal host,
// by the pass's reference time.
func (p *passResult) scaled(d time.Duration) float64 {
	return d.Seconds() * float64(refNominal) / float64(p.Ref)
}

// endToEnd reports the medians over the passes of an untraced run.
func endToEnd(passes []*passResult) map[string]metric {
	return map[string]metric{
		"cpu_s":    {medianOf(passes, func(p *passResult) float64 { return p.scaled(p.RunCPU) }), "s"},
		"setup_s":  {medianOf(passes, func(p *passResult) float64 { return p.scaled(p.Setup) }), "s"},
		"alloc_mb": {medianOf(passes, func(p *passResult) float64 { return float64(p.Alloc) / 1e6 }), "MB"},
		"virt_s":   {passes[0].Virt.Seconds(), "vsec"},
	}
}

// perLayer completes the first traced pass's per-layer values with the
// host numbers that need every pass: shares from the profiles of all
// traced passes, host rates from the untraced ones.
func perLayer(plain, traced []*passResult, errFrac float64) map[string]metric {
	v := map[string]float64{}
	for k, x := range traced[0].Layer {
		v[k] = x
	}
	shares := layerShares{}
	var gc, trWall float64
	for _, p := range traced {
		for k, ns := range p.Shares {
			shares[k] += ns
		}
		gc += float64(p.GCCycles)
		trWall += p.Wall.Seconds()
	}
	n := float64(len(traced))
	wall := medianOf(plain, func(p *passResult) float64 { return p.Wall.Seconds() })
	var cpu, wallSum float64
	for _, p := range plain {
		cpu += p.RunCPU.Seconds()
		wallSum += p.Wall.Seconds()
	}
	for _, l := range layers {
		v[l+".host_share"] = shares.share(l)
	}
	v["internal_other.host_share"] = shares.share("internal_other")
	v["driver.host_share"] = shares.share("driver")
	v["runtime.gc_share"] = shares.share("runtime.gc")
	v["runtime.sched_share"] = shares.share("runtime.sched")
	v["runtime.other_share"] = shares.share("runtime.other")
	v["runtime.gc_cycles"] = gc / n
	if ev := traced[0].Events; ev > 0 {
		v["sim.host_ns_per_event"] = wall * 1e9 / float64(ev)
	}
	v["sim.cpu_per_wall"] = cpu / wallSum
	if b := v["pack.bytes"]; b > 0 {
		v["pack.host_ns_per_byte"] = float64(shares["pack"]) / n / b
	}
	v["wall_s"] = wall
	v["ref_cpu_ms"] = medianOf(plain, func(p *passResult) float64 { return p.Ref.Seconds() * 1e3 })
	v["trace_overhead_pct"] = 100 * (trWall/n - wall) / wall
	v["err_frac"] = errFrac

	out := map[string]metric{}
	for _, d := range catalogue {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

func medianOf(passes []*passResult, f func(*passResult) float64) float64 {
	v := make([]float64, len(passes))
	for i, p := range passes {
		v[i] = f(p)
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
