package bench

// The sharded-engine benchmark behind BENCH_engine.json. Two workloads run
// per engine/shard-count cell, both built through the public fabric-first
// constructors in internal/mpi:
//
//   - "torus-allreduce": the §6-scale 512-node (8x8x8 torus) chunked ring
//     allreduce (mpi.TorusWorld) on two sequential baselines and on the
//     conservative-parallel ShardedEngine at each shard count. The
//     "sequential" row runs the whole machine on one locale, one flow
//     network; the "sequential-partitioned" row runs the sequential engine
//     over as many locales — one flow network each — as the widest sharded
//     row. Each row differs from the next in one thing: the solve's
//     partitioning, then parallel shards. Every other row must reproduce
//     the monolithic row's final virtual time, checksum and flight-dump
//     hash exactly (byte-identical schedule per seed); every sharded row
//     records its speedup against both baselines; and the widest
//     configuration must finish at least twice as fast as the monolithic
//     row in wall-clock terms. The flow solver's per-event work is local
//     to the flows whose rates change, so partitioning buys little on its
//     own and the gate measures mostly parallel execution; the envelope
//     records ncpu, which bounds that parallelism.
//
//   - "mpi-allreduce": the full MPI protocol stack (short/eager/rendezvous
//     device, forced ring Allreduce) as a confined world hosted on one
//     locale of the same engines, via mpi.NewFabric + mpi.RunOn. These
//     rows gate that the whole stack — not just the torus projection —
//     is schedule-deterministic on the sharded engine: virtual time,
//     reduction checksum and flight-dump hash must match the sequential
//     oracle at every shard count. No wall-clock claim is made (a
//     confined world occupies a single shard, so sharding adds window
//     overhead rather than parallelism).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// EngineResult is one workload/engine/shard-count row of the sharded-engine
// suite.
type EngineResult struct {
	Workload string `json:"workload"` // "torus-allreduce" or "mpi-allreduce"
	Engine   string `json:"engine"`   // "sequential", "sequential-partitioned" or "sharded"
	Shards   int    `json:"shards"`
	Nodes    int    `json:"nodes"`
	Steps    int    `json:"steps"`
	Events   uint64 `json:"events"`
	Windows  uint64 `json:"windows"`

	VirtualNS    int64   `json:"virtual_ns"`
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	Speedup      float64 `json:"speedup"` // monolithic sequential wall / this wall
	// SpeedupPartitioned is the sequential-partitioned wall / this wall, on
	// sharded torus rows.
	SpeedupPartitioned float64 `json:"speedup_partitioned,omitempty"`

	Checksum string `json:"checksum"` // reduced-vector wrapping sum, hex
	DumpFNV  string `json:"dump_fnv"` // FNV-1a of the merged flight dump

	// Gates: schedule determinism on every row checked against a baseline,
	// the wall-clock bound on the widest torus row.
	GateDeterministic bool `json:"gate_deterministic,omitempty"`
	GateSpeedup2x     bool `json:"gate_speedup_2x,omitempty"`
}

// EngineDims and EngineShardCounts pin the benchmark scenario.
var (
	EngineDims        = [3]int{8, 8, 8}
	EngineShardCounts = []int{2, 4, 8}
)

// MPIStackRanks and MPIStackElems pin the full-stack workload: ranks
// int64 elements reduced with the forced ring algorithm, large enough that
// every block moves through the rendezvous protocol.
const (
	MPIStackRanks = 8
	MPIStackElems = 32 << 10 // 256 KiB vectors
	mpiStackIters = 2
)

// engineRow runs the torus allreduce once: on the sharded engine when
// engine is "sharded", otherwise on the sequential oracle over cfg.Shards
// locales.
func engineRow(cfg mpi.TorusConfig, engine string) (EngineResult, error) {
	cfg.Registry = obs.NewRegistry()
	fab := mpi.NewTorusOracle(cfg)
	if engine == "sharded" {
		fab = mpi.NewTorusFabric(cfg)
	}
	m := mpi.NewTorusWorldOn(fab, cfg)
	start := time.Now()
	res, err := m.Run()
	wall := time.Since(start)
	if err != nil {
		return EngineResult{}, err
	}
	h := fnv.New64a()
	h.Write(m.FlightDump())
	r := EngineResult{
		Workload: "torus-allreduce",
		Engine:   engine, Shards: res.Shards, Nodes: res.Nodes, Steps: res.Steps,
		Events: res.Events, Windows: res.Windows,
		VirtualNS: int64(res.End), WallNS: int64(wall),
		Checksum: fmt.Sprintf("%016x", res.Checksum),
		DumpFNV:  fmt.Sprintf("%016x", h.Sum64()),
	}
	if wall > 0 {
		r.EventsPerSec = float64(res.Events) / wall.Seconds()
	}
	return r, nil
}

// mpiStackRow runs the full-stack workload: MPIStackRanks ranks on one
// SMP node each, forced ring Allreduce over MPIStackElems int64 elements,
// the whole world confined to one locale of the fabric Run would build
// for cfg.Shards.
func mpiStackRow(shards int) EngineResult {
	cfg := mpi.DefaultConfig(MPIStackRanks, 1)
	cfg.Shards = shards
	cfg.Protocol.Coll = mpi.CollRing
	rec := flight.New(256)
	cfg.Flight = rec
	f := mpi.NewFabric(cfg)

	sums := make([]uint64, MPIStackRanks)
	main := func(c *mpi.Comm) {
		me := c.Rank()
		send := make([]byte, MPIStackElems*8)
		recv := make([]byte, MPIStackElems*8)
		// splitmix64-seeded per-rank vector, identical on every engine.
		x := uint64(me)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
		for i := 0; i < MPIStackElems; i++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			putU64(send[i*8:], z)
		}
		for it := 0; it < mpiStackIters; it++ {
			c.Allreduce(send, recv, MPIStackElems, datatype.Int64, mpi.OpSum)
			copy(send, recv)
		}
		var sum uint64
		for i := 0; i < MPIStackElems; i++ {
			sum += getU64(recv[i*8:])*0x100000001b3 + uint64(i)
		}
		sums[me] = sum
	}

	start := time.Now()
	end := mpi.RunOn(f, cfg, main)
	wall := time.Since(start)

	var checksum uint64
	for r, s := range sums {
		checksum += s * (uint64(r)*2 + 1)
	}
	var buf bytes.Buffer
	if d := rec.Snapshot("bench"); d != nil {
		d.WriteJSON(&buf)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())

	engine := "sequential"
	var windows uint64
	if se, ok := f.(*sim.ShardedEngine); ok {
		engine = "sharded"
		windows = se.Windows()
	}
	r := EngineResult{
		Workload: "mpi-allreduce",
		Engine:   engine, Shards: shards, Nodes: MPIStackRanks,
		Steps:  mpiStackIters * 2 * (MPIStackRanks - 1),
		Events: f.Events(), Windows: windows,
		VirtualNS: int64(end), WallNS: int64(wall),
		Checksum: fmt.Sprintf("%016x", checksum),
		DumpFNV:  fmt.Sprintf("%016x", h.Sum64()),
	}
	if wall > 0 {
		r.EventsPerSec = float64(r.Events) / wall.Seconds()
	}
	return r
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// RunEngineBench executes the pinned 512-node torus scenario plus the
// full-stack MPI rows and evaluates the determinism and speedup gates. ok
// reports whether every gate holds.
func RunEngineBench() ([]EngineResult, bool) {
	return RunEngineBenchAt(EngineDims[0], EngineDims[1], EngineDims[2], EngineShardCounts, true)
}

// RunEngineBenchAt runs the torus allreduce on a dx*dy*dz torus on the
// monolithic and the partitioned sequential baselines and at each sharded
// configuration, then the full-stack MPI allreduce across the same shard
// counts. Determinism against the respective monolithic oracle is gated on
// every other row; the 2x wall-clock gate applies to the last (widest)
// torus shard count when gateSpeedup is set — small test machines can
// check determinism without pinning a timing claim.
func RunEngineBenchAt(dx, dy, dz int, shardCounts []int, gateSpeedup bool) ([]EngineResult, bool) {
	seq, err := engineRow(mpi.DefaultTorusConfig(dx, dy, dz, 1), "sequential")
	if err != nil {
		return nil, false
	}
	seq.Speedup = 1
	widest := shardCounts[len(shardCounts)-1]
	part, err := engineRow(mpi.DefaultTorusConfig(dx, dy, dz, widest), "sequential-partitioned")
	if err != nil {
		return []EngineResult{seq}, false
	}
	rows := []EngineResult{seq, part}
	ok := true
	gate := func(r *EngineResult) {
		if r.WallNS > 0 {
			r.Speedup = float64(seq.WallNS) / float64(r.WallNS)
			if r.Engine == "sharded" {
				r.SpeedupPartitioned = float64(part.WallNS) / float64(r.WallNS)
			}
		}
		r.GateDeterministic = r.VirtualNS == seq.VirtualNS &&
			r.Checksum == seq.Checksum && r.DumpFNV == seq.DumpFNV
		ok = ok && r.GateDeterministic
	}
	gate(&rows[1])
	for i, shards := range shardCounts {
		r, err := engineRow(mpi.DefaultTorusConfig(dx, dy, dz, shards), "sharded")
		if err != nil {
			return rows, false
		}
		gate(&r)
		if gateSpeedup && i == len(shardCounts)-1 {
			r.GateSpeedup2x = r.Speedup >= 2
			ok = ok && r.GateSpeedup2x
		}
		rows = append(rows, r)
	}
	mpiSeq := mpiStackRow(1)
	mpiSeq.Speedup = 1
	rows = append(rows, mpiSeq)
	for _, shards := range shardCounts {
		r := mpiStackRow(shards)
		if r.WallNS > 0 {
			r.Speedup = float64(mpiSeq.WallNS) / float64(r.WallNS)
		}
		r.GateDeterministic = r.VirtualNS == mpiSeq.VirtualNS &&
			r.Checksum == mpiSeq.Checksum && r.DumpFNV == mpiSeq.DumpFNV
		ok = ok && r.GateDeterministic
		rows = append(rows, r)
	}
	return rows, ok
}

// RunEngine512 executes one 512-node torus allreduce on the sharded engine
// at the given shard count and returns its row (no baseline, no gates) —
// the measured §6 run behind cmd/scaling's torus report.
func RunEngine512(shards int) (EngineResult, error) {
	return engineRow(mpi.DefaultTorusConfig(EngineDims[0], EngineDims[1], EngineDims[2], shards), "sharded")
}

// engineFile is the envelope of the BENCH_engine.json artifact.
type engineFile struct {
	Suite   string         `json:"suite"`
	Go      string         `json:"go"`
	GOOS    string         `json:"goos"`
	GOARCH  string         `json:"goarch"`
	NumCPU  int            `json:"ncpu"`
	Results []EngineResult `json:"results"`
}

// WriteEngineJSON writes the sharded-engine suite as an indented JSON
// artifact (the BENCH_engine.json determinism and speedup gate).
func WriteEngineJSON(path string, results []EngineResult) error {
	data, err := json.MarshalIndent(engineFile{
		Suite:   "engine",
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		NumCPU:  runtime.NumCPU(),
		Results: results,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatEngine renders the sharded-engine suite as an aligned text table.
// "speedup" is against the monolithic sequential row, "vs part" against
// the sequential-partitioned one.
func FormatEngine(results []EngineResult) string {
	out := fmt.Sprintf("engine (512-node torus + full-stack MPI ring allreduce, ncpu=%d):\n", runtime.NumCPU())
	out += fmt.Sprintf("  %-15s %-22s %6s %8s %8s %12s %10s %10s %8s %8s  %s\n",
		"workload", "engine", "shards", "events", "windows", "virtual", "wall", "ev/s", "speedup", "vs part", "gates")
	for _, r := range results {
		gates := "-"
		if r.Engine != "sequential" {
			gates = fmt.Sprintf("det=%v", r.GateDeterministic)
			if r.Workload == "torus-allreduce" && r.Engine == "sharded" &&
				(r.GateSpeedup2x || r.Shards == EngineShardCounts[len(EngineShardCounts)-1]) {
				gates += fmt.Sprintf(" 2x=%v", r.GateSpeedup2x)
			}
		}
		vsPart := "-"
		if r.SpeedupPartitioned > 0 {
			vsPart = fmt.Sprintf("%.2fx", r.SpeedupPartitioned)
		}
		out += fmt.Sprintf("  %-15s %-22s %6d %8d %8d %12v %10v %10.0f %7.2fx %8s  %s\n",
			r.Workload, r.Engine, r.Shards, r.Events, r.Windows,
			time.Duration(r.VirtualNS), time.Duration(r.WallNS).Round(time.Millisecond),
			r.EventsPerSec, r.Speedup, vsPart, gates)
	}
	return out
}
