package main

import (
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/sim"
)

// The torus-allreduce workload: the 512-node (8x8x8) chunked ring
// allreduce of the paper's section 6 scaling outlook on the sharded engine
// with two shards. Its inputs are fixed by the machine (every node's
// initial chunk digests), so the seed does not change them; the checks are
// the pinned virtual end time and checksum, plus a checksum the driver
// recomputes from the input digests.

const (
	torusPinnedEnd      = 519391502 * time.Nanosecond
	torusPinnedChecksum = 0x687027a0f9687c5f
)

func runTorus(p *pass) {
	if !p.short {
		torusRun(p, mpi.DefaultTorusConfig(8, 8, 8, 2))
		return
	}
	// The self-test machine runs in about a millisecond; repeat it so a
	// traced pass collects profile samples.
	for i := 0; i < 100; i++ {
		torusRun(p, mpi.DefaultTorusConfig(2, 2, 2, 2))
	}
}

// torusRun builds, runs and checks one torus machine.
func torusRun(p *pass, cfg mpi.TorusConfig) {
	var reg *obs.Registry
	if p.traced() {
		reg = obs.NewRegistry()
		cfg.Registry = reg
	}
	var f sim.Fabric
	var m *mpi.TorusWorld
	p.timeSetup(func() {
		f = mpi.NewTorusFabric(cfg)
		m = mpi.NewTorusWorldOn(f, cfg)
	})
	var res mpi.TorusResult
	var err error
	p.run("torus", f, func() time.Duration {
		res, err = m.Run()
		return res.End
	})
	p.acc.add(reg)
	p.virt += res.End

	nodes := cfg.DX * cfg.DY * cfg.DZ
	p.check(err == nil, "torus: %v", err)
	p.check(res.Checksum == torusChecksum(nodes), "torus: checksum %x, want %x", res.Checksum, torusChecksum(nodes))
	if !p.short {
		p.check(res.End == torusPinnedEnd, "torus: end %v, want %v", res.End, torusPinnedEnd)
		p.check(res.Checksum == torusPinnedChecksum, "torus: checksum %x, want pinned %x", res.Checksum, uint64(torusPinnedChecksum))
	}
}

// torusChecksum is the wrapping sum over all chunks of the fully reduced
// vector: every node's initial digest of every chunk, summed. The torus
// machine defines the digest of (node, chunk) as splitmix64 over the pair.
func torusChecksum(nodes int) uint64 {
	var sum uint64
	for n := 0; n < nodes; n++ {
		for c := 0; c < nodes; c++ {
			sum += splitmix(uint64(n)<<32 ^ uint64(c))
		}
	}
	return sum
}
