package main

import (
	"fmt"
	"math"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// The collectives workload: bcast, allreduce, allgather and alltoall on 4
// and 8 nodes, swept over payload sizes, with every algorithm family
// forced in turn and then chosen by the adaptive chooser. Every rank's
// contribution is seeded; every received buffer and reduction result is
// checked against the driver's own reference. Reduction inputs are small
// integers held in float64, so every summation order is exact and all
// algorithms must agree bit for bit.

type collCase struct {
	coll  string
	algs  []mpi.CollAlg
	sizes []int64
}

func collCases(short bool) ([]collCase, []int) {
	if short {
		return []collCase{
			{"bcast", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided}, []int64{4 << 10}},
			{"allreduce", []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided}, []int64{4 << 10}},
			{"allgather", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided}, []int64{4 << 10}},
			{"alltoall", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided}, []int64{4 << 10}},
		}, []int{4}
	}
	return []collCase{
		{"bcast", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 64 << 10, 256 << 10, 2 << 20}},
		{"allreduce", []mpi.CollAlg{mpi.CollP2P, mpi.CollRecDbl, mpi.CollRing, mpi.CollOneSided},
			[]int64{4 << 10, 64 << 10, 256 << 10, 2 << 20}},
		{"allgather", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 32 << 10, 128 << 10}},
		{"alltoall", []mpi.CollAlg{mpi.CollP2P, mpi.CollOneSided},
			[]int64{4 << 10, 32 << 10, 128 << 10}},
	}, []int{4, 8}
}

// collEligible mirrors the engine's eligibility rules so forced runs
// measure the algorithm itself, never its fallback.
func collEligible(coll string, alg mpi.CollAlg, nodes int, size int64) bool {
	proto := mpi.DefaultProtocol()
	switch {
	case alg != mpi.CollOneSided:
		return true
	case coll == "allreduce":
		return size/int64(nodes) <= proto.CollSlot/2
	case coll == "allgather" || coll == "alltoall":
		return size/int64(nodes) <= proto.CollSlot
	}
	return true
}

const collReps = 4

func runCollectives(p *pass) {
	cases, nodeCounts := collCases(p.short)
	for ci, cs := range cases {
		for _, n := range nodeCounts {
			for si, size := range cs.sizes {
				best := 0.0
				for _, alg := range cs.algs {
					if collEligible(cs.coll, alg, n, size) {
						best = math.Max(best, collPoint(p, cs.coll, n, size, alg, mix(p.seed, 1, uint64(ci), uint64(n), uint64(si))))
					}
				}
				auto := collPoint(p, cs.coll, n, size, mpi.CollAuto, mix(p.seed, 1, uint64(ci), uint64(n), uint64(si)))
				if best > 0 {
					p.regret = append(p.regret, math.Max(0, best-auto)/best)
				}
			}
		}
	}
}

// collInputs builds the seeded per-rank contributions of one point and
// the driver's reference result for every rank.
func collInputs(coll string, nodes int, size int64, seed uint64) (send, want [][]byte) {
	send = make([][]byte, nodes)
	want = make([][]byte, nodes)
	blk := size / int64(nodes)
	for r := range send {
		send[r] = seeded(size, mix(seed, uint64(r)))
	}
	switch coll {
	case "bcast":
		for r := range want {
			want[r] = send[0]
		}
	case "allreduce":
		sum := make([]float64, size/8)
		for r := range send {
			v := mpi.BytesFloat64(send[r])
			for i := range v {
				// Small integers: every summation order is exact.
				v[i] = float64(int64(math.Float64bits(v[i])%2001) - 1000)
				sum[i] += v[i]
			}
			send[r] = mpi.Float64Bytes(v)
		}
		for r := range want {
			want[r] = mpi.Float64Bytes(sum)
		}
	case "allgather":
		all := make([]byte, 0, size)
		for r := range send {
			all = append(all, send[r][:blk]...)
		}
		for r := range want {
			want[r] = all
		}
	case "alltoall":
		for dst := range want {
			want[dst] = make([]byte, 0, size)
			for src := range send {
				want[dst] = append(want[dst], send[src][int64(dst)*blk:int64(dst+1)*blk]...)
			}
		}
	}
	return send, want
}

// collPoint runs one collective collReps times on a fresh world with the
// algorithm family pinned (or CollAuto), checks every rank's result and
// returns the payload bandwidth in virtual MiB/s.
func collPoint(p *pass, coll string, nodes int, size int64, alg mpi.CollAlg, seed uint64) float64 {
	send, want := collInputs(coll, nodes, size, seed)
	recv := make([][]byte, nodes)
	for r := range recv {
		recv[r] = make([]byte, size)
	}
	cfg := mpi.DefaultConfig(nodes, 1)
	cfg.Protocol.Coll = alg
	blk := size / int64(nodes)
	label := fmt.Sprintf("%s/n%d/%d/%s", coll, nodes, size, alg)
	var elapsed time.Duration
	p.world(label, cfg, func(c *mpi.Comm, t *tracer) {
		me := c.Rank()
		buf, out := send[me], recv[me]
		t.call(c, "Barrier", c.Barrier)
		start := c.WtimeDuration()
		for i := 0; i < collReps; i++ {
			switch coll {
			case "bcast":
				if me != 0 {
					clear(out)
				} else {
					copy(out, buf)
				}
				t.call(c, "Bcast", func() { c.Bcast(out, int(size), datatype.Byte, 0) })
			case "allreduce":
				clear(out)
				t.call(c, "Allreduce", func() { c.Allreduce(buf, out, int(size)/8, datatype.Float64, mpi.OpSum) })
			case "allgather":
				clear(out)
				t.call(c, "Allgather", func() { c.Allgather(buf[:blk], int(blk), datatype.Byte, out) })
			case "alltoall":
				clear(out)
				t.call(c, "Alltoall", func() { c.Alltoall(buf, int(blk), datatype.Byte, out) })
			}
		}
		t.call(c, "Barrier", c.Barrier)
		if me == 0 {
			elapsed = c.WtimeDuration() - start
		}
	})
	p.virt += elapsed
	for r := range recv {
		p.checkBytes(recv[r], want[r], fmt.Sprintf("%s rank %d", label, r))
	}
	return bw(size*collReps, elapsed)
}
