package mpi

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
)

// The adaptive choosers' decisions are part of the modelled machine: a
// refactor of the chooser must reproduce every deposit-path and collective
// algorithm decision, and the virtual end time, exactly. These tests run a
// fixed adaptive workload and compare the decision counters against the
// values pinned from the reference implementation.

// registryValues returns every counter or gauge (kind "counter" or
// "gauge") of a registry by name.
func registryValues(reg *obs.Registry, kind string) map[string]int64 {
	var buf bytes.Buffer
	reg.WriteText(&buf)
	vals := make(map[string]int64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 3 || f[0] != kind {
			continue
		}
		if v, err := strconv.ParseInt(f[2], 10, 64); err == nil {
			vals[f[1]] = v
		}
	}
	return vals
}

// chooserCounters returns the nonzero counters of a registry whose names
// start with prefix.
func chooserCounters(reg *obs.Registry, prefix string) map[string]int64 {
	got := make(map[string]int64)
	for name, v := range registryValues(reg, "counter") {
		if v != 0 && strings.HasPrefix(name, prefix) {
			got[name] = v
		}
	}
	return got
}

// checkPinned compares observed counters and end time with the pins and
// prints the observed values in pin syntax on mismatch.
func checkPinned(t *testing.T, got, want map[string]int64, end, wantEnd time.Duration) {
	t.Helper()
	same := len(got) == len(want)
	for k, v := range want {
		if got[k] != v {
			same = false
		}
	}
	if !same {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %d,\n", k, got[k])
		}
		t.Errorf("decision counters differ from the pins; observed:\n%s", sb.String())
	}
	if end != wantEnd {
		t.Errorf("end = %d ns, pinned %d ns", int64(end), int64(wantEnd))
	}
}

// TestDepositPathDecisionsPinned streams rendezvous messages of several
// non-contiguous datatypes between two nodes with PathAdaptive, so the
// per-peer bandwidth estimates carry over from one datatype to the next
// and the chosen path flips with the block size.
func TestDepositPathDecisionsPinned(t *testing.T) {
	const total = 256 << 10
	types := []*datatype.Type{
		datatype.Vector(total/8, 1, 2, datatype.Float64).Commit(),
		datatype.Vector(total/64, 8, 16, datatype.Float64).Commit(),
		datatype.Vector(total/256, 32, 64, datatype.Float64).Commit(),
		datatype.Vector(total/1024, 128, 256, datatype.Float64).Commit(),
		datatype.Vector(total/8192, 1024, 2048, datatype.Float64).Commit(),
		datatype.Hvector(total/40, 5, 104, datatype.Float64).Commit(),
		datatype.Vector(total/64, 8, 16, datatype.Float64).Commit(),
	}
	reg := obs.NewRegistry()
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.Path = PathAdaptive
	cfg.Metrics = reg
	end := Run(cfg, func(c *Comm) {
		for _, ty := range types {
			buf := make([]byte, ty.Extent())
			for rep := 0; rep < 3; rep++ {
				if c.Rank() == 0 {
					c.Send(buf, 1, ty, 1, rep)
				} else {
					c.Recv(buf, 1, ty, 0, rep)
				}
			}
		}
	})
	checkPinned(t, chooserCounters(reg, "mpi.path.chosen"), map[string]int64{
		"mpi.path.chosen{path=dma-sg}": 12,
		"mpi.path.chosen{path=pio-ff}": 60,
		"mpi.path.chosen{path=staged}": 12,
	}, end, 36852114*time.Nanosecond)
}

// TestCollAlgDecisionsPinned runs adaptive bcast, allreduce, allgather and
// alltoall on 4 and 8 nodes across the payload sizes where the chosen
// algorithm flips, in one world per node count so the feedback of earlier
// calls steers later decisions.
func TestCollAlgDecisionsPinned(t *testing.T) {
	pins := map[int]struct {
		counters map[string]int64
		end      time.Duration
	}{
		4: {map[string]int64{
			"mpi.coll.alg.chosen{coll=allgather,alg=onesided}": 24,
			"mpi.coll.alg.chosen{coll=allgather,alg=p2p}":      8,
			"mpi.coll.alg.chosen{coll=allreduce,alg=recdbl}":   8,
			"mpi.coll.alg.chosen{coll=allreduce,alg=ring}":     24,
			"mpi.coll.alg.chosen{coll=alltoall,alg=onesided}":  24,
			"mpi.coll.alg.chosen{coll=alltoall,alg=p2p}":       8,
			"mpi.coll.alg.chosen{coll=bcast,alg=onesided}":     8,
			"mpi.coll.alg.chosen{coll=bcast,alg=p2p}":          24,
		}, 63845075 * time.Nanosecond},
		8: {map[string]int64{
			"mpi.coll.alg.chosen{coll=allgather,alg=onesided}": 48,
			"mpi.coll.alg.chosen{coll=allgather,alg=p2p}":      16,
			"mpi.coll.alg.chosen{coll=allreduce,alg=onesided}": 48,
			"mpi.coll.alg.chosen{coll=allreduce,alg=recdbl}":   8,
			"mpi.coll.alg.chosen{coll=allreduce,alg=ring}":     8,
			"mpi.coll.alg.chosen{coll=alltoall,alg=onesided}":  48,
			"mpi.coll.alg.chosen{coll=alltoall,alg=p2p}":       16,
			"mpi.coll.alg.chosen{coll=bcast,alg=onesided}":     16,
			"mpi.coll.alg.chosen{coll=bcast,alg=p2p}":          48,
		}, 111698299 * time.Nanosecond},
	}
	for _, nodes := range []int{4, 8} {
		reg := obs.NewRegistry()
		cfg := DefaultConfig(nodes, 1)
		cfg.Protocol.Coll = CollAuto
		cfg.Metrics = reg
		end := Run(cfg, func(c *Comm) {
			for _, size := range []int{4 << 10, 64 << 10, 256 << 10, 1 << 20} {
				send, recv := make([]byte, size), make([]byte, size)
				for rep := 0; rep < 2; rep++ {
					c.Bcast(recv, size, datatype.Byte, rep%nodes)
					c.Allreduce(send, recv, size/8, datatype.Float64, OpSum)
				}
			}
			for _, size := range []int{4 << 10, 32 << 10, 128 << 10, 512 << 10} {
				send, recv := make([]byte, size), make([]byte, size)
				blk := size / nodes
				for rep := 0; rep < 2; rep++ {
					c.Allgather(send[:blk], blk, datatype.Byte, recv)
					c.Alltoall(send, blk, datatype.Byte, recv)
				}
			}
		})
		pin := pins[nodes]
		t.Run(fmt.Sprintf("n%d", nodes), func(t *testing.T) {
			checkPinned(t, chooserCounters(reg, "mpi.coll.alg.chosen"), pin.counters, end, pin.end)
		})
	}
}
