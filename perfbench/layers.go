package main

import "math"

// def describes one per-layer metric; virtual ones are deterministic and
// must repeat exactly across seeds.
type def struct {
	name, unit string
	virtual    bool
}

// catalogue lists every per-layer metric the traced run prints, with its
// unit. Units starting with "v" are virtual time of the modelled machine
// (vsec, vus). Metrics marked virtual (virtual times and the counts of
// simulated work) are deterministic and must repeat exactly on a second
// input seed.
var catalogue = []def{
	{"wall_s", "s", false},
	{"ref_cpu_ms", "ms", false},
	{"sim.events", "count", true},
	{"sim.host_ns_per_event", "ns", false},
	{"sim.host_share", "%", false},
	{"sim.windows", "count", true},
	{"sim.shard_event_imbalance", "ratio", true},
	{"sim.cpu_per_wall", "ratio", false},

	{"flow.host_share", "%", false},
	{"flow.transfers", "count", true},
	{"flow.active_max", "count", true},
	{"flow.bytes", "bytes", true},

	{"pack.host_share", "%", false},
	{"datatype.host_share", "%", false},
	{"pack.ops", "count", true},
	{"pack.bytes", "bytes", true},
	{"pack.blocks", "count", true},
	{"pack.host_ns_per_byte", "ns/B", false},
	{"pack.virt_s", "vsec", true},
	{"datatype.commit_host_us", "us", false},

	{"sci.host_share", "%", false},
	{"sci.bytes_written", "bytes", true},
	{"sci.bytes_read", "bytes", true},
	{"sci.write_ops", "count", true},
	{"sci.read_ops", "count", true},
	{"sci.store_barriers", "count", true},
	{"sci.pio_virt_s", "vsec", true},
	{"sci.dma_virt_s", "vsec", true},

	{"mpi.host_share", "%", false},
	{"mpi.sends", "count", true},
	{"mpi.proto_short", "count", true},
	{"mpi.proto_eager", "count", true},
	{"mpi.proto_rdv", "count", true},
	{"mpi.path.pio-ff", "count", true},
	{"mpi.path.staged", "count", true},
	{"mpi.path.dma-sg", "count", true},
	{"mpi.path.generic", "count", true},
	{"mpi.path.pio-stream", "count", true},
	{"mpi.path.dma", "count", true},
	{"mpi.coll.p2p", "count", true},
	{"mpi.coll.recdbl", "count", true},
	{"mpi.coll.ring", "count", true},
	{"mpi.coll.onesided", "count", true},
	{"mpi.transfer_virt_s", "vsec", true},
	{"mpi.coll_virt_s", "vsec", true},
	{"mpi.call_host_us_p50", "us", false},
	{"mpi.call_host_us_p90", "us", false},
	{"mpi.call_virt_us_p50", "vus", true},
	{"mpi.call_virt_us_p90", "vus", true},

	{"osc.host_share", "%", false},
	{"osc.puts", "count", true},
	{"osc.gets", "count", true},
	{"osc.put_virt_us_p50", "vus", true},
	{"osc.get_virt_us_p50", "vus", true},
	{"osc.epoch_virt_us_p50", "vus", true},
	{"osc.stage_dma", "count", true},
	{"osc.degradations", "count", true},
	{"osc.call_host_us_p50", "us", false},

	{"runtime.gc_share", "%", false},
	{"runtime.sched_share", "%", false},
	{"runtime.other_share", "%", false},
	{"runtime.gc_cycles", "count", false},
	{"internal_other.host_share", "%", false},
	{"driver.host_share", "%", false},

	{"trace_overhead_pct", "%", false},
	{"err_frac", "ratio", false},
	{"chooser_regret_pct", "%", true},
	{"paper_err_pct", "%", true},
	{"model.calib_err_pct", "%", true},
}

// layerValues derives the per-layer values one traced pass measures by
// itself: registry counters, the driver's spans, engine counts and the
// model comparisons. Host shares and rates are added from all passes.
func (p *pass) layerValues() map[string]float64 {
	a := p.acc
	sec := func(base string) float64 { return float64(a.hist(base).Snapshot().Sum) / 1e9 }
	usQ := func(base string, q float64) float64 { return float64(a.hist(base).Quantile(q)) / 1e3 }
	hostQ, virtQ := p.spans.quantiles("mpi", 0.5, 0.9)
	oscHost, _ := p.spans.quantiles("osc", 0.5)
	v := map[string]float64{
		"sim.events":                float64(p.events),
		"sim.windows":               float64(p.windows),
		"sim.shard_event_imbalance": p.imbalance,

		"flow.transfers":  float64(a.hist("flow.transfer.ns").Count()),
		"flow.active_max": float64(a.max("flow.active.max")),
		"flow.bytes":      float64(a.sum("flow.bytes")),

		"pack.ops":                float64(a.sum("pack.ops")),
		"pack.bytes":              float64(a.sum("pack.bytes")),
		"pack.blocks":             float64(a.sum("pack.blocks")),
		"pack.virt_s":             sec("mpi.pack.ns"),
		"datatype.commit_host_us": float64(p.commitHost.Microseconds()) / math.Max(1, float64(p.commits)),

		"sci.bytes_written":  float64(a.sum("sci.node.bytes_written")),
		"sci.bytes_read":     float64(a.sum("sci.node.bytes_read")),
		"sci.write_ops":      float64(a.sum("sci.node.write_ops")),
		"sci.read_ops":       float64(a.sum("sci.node.read_ops")),
		"sci.store_barriers": float64(a.sum("sci.node.store_barriers")),
		"sci.pio_virt_s":     sec("sci.pio.write_stream.ns") + sec("sci.pio.put.ns") + sec("sci.pio.read.ns") + sec("sci.blockwrite.flush.ns"),
		"sci.dma_virt_s":     sec("sci.dma.ns") + sec("sci.dma.sg.ns"),

		"mpi.sends":            float64(a.sum("mpi.sends")),
		"mpi.proto_short":      float64(a.sum("mpi.sends", "path=short")),
		"mpi.proto_eager":      float64(a.sum("mpi.sends", "path=eager")),
		"mpi.proto_rdv":        float64(a.sum("mpi.sends", "path=rdv")),
		"mpi.transfer_virt_s":  sec("mpi.send.ns") + sec("mpi.transfer.ns"),
		"mpi.coll_virt_s":      sec("mpi.coll.ns"),
		"mpi.call_host_us_p50": hostQ[0],
		"mpi.call_host_us_p90": hostQ[1],
		"mpi.call_virt_us_p50": virtQ[0],
		"mpi.call_virt_us_p90": virtQ[1],

		"osc.puts":              float64(a.sum("osc.puts")),
		"osc.gets":              float64(a.sum("osc.gets")),
		"osc.put_virt_us_p50":   usQ("osc.put.ns", 0.5),
		"osc.get_virt_us_p50":   usQ("osc.get.ns", 0.5),
		"osc.epoch_virt_us_p50": usQ("osc.epoch.ns", 0.5),
		"osc.stage_dma":         float64(a.sum("osc.stage", "path=dma}")),
		"osc.degradations":      float64(a.sum("osc.degradations")),
		"osc.call_host_us_p50":  oscHost[0],

		"chooser_regret_pct": 100 * mean(p.regret),
	}
	for _, path := range []string{"pio-ff", "staged", "dma-sg", "generic", "pio-stream", "dma"} {
		v["mpi.path."+path] = float64(a.sum("mpi.path.chosen", "path="+path+"}"))
	}
	for _, alg := range []string{"p2p", "recdbl", "ring", "onesided"} {
		v["mpi.coll."+alg] = float64(a.sum("mpi.coll.alg.chosen", "alg="+alg+"}"))
	}
	v["paper_err_pct"], v["model.calib_err_pct"] = paperError(p.model)
	return v
}
