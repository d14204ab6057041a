package main

import (
	"fmt"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

// The onesided workload: the paper's Figure 9 sparse sweep. Two processes
// on distinct nodes iterate through each other's window with access-byte
// MPI_Put or MPI_Get calls at a stride of twice the access size, then
// synchronize with MPI_Win_fence; windows live in shared SCI memory
// (direct remote stores, remote reads, remote-put conversion for large
// gets) or in private memory (emulated by handler messages). Every window
// starts with seeded contents and every origin buffer is seeded; the
// driver checks every Get result and every final window.

const sparseWin = 256 << 10

func runOnesided(p *pass) {
	sizes := []int64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	if p.short {
		sizes = []int64{256}
	}
	for i, a := range sizes {
		for _, shared := range []bool{true, false} {
			for _, put := range []bool{true, false} {
				sparsePoint(p, a, put, shared, mix(p.seed, 4, uint64(i), boolBit(put), boolBit(shared)))
			}
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sparsePoint runs one Figure 9 point and checks its outputs: after a put
// sweep each window holds the partner's origin bytes at the accessed
// offsets and its initial bytes elsewhere; after a get sweep each origin
// holds the partner's initial window bytes at the accessed offsets and the
// windows are unchanged.
func sparsePoint(p *pass, access int64, put, shared bool, seed uint64) {
	op, kind := "get", "private"
	if put {
		op = "put"
	}
	if shared {
		kind = "shared"
	}
	label := fmt.Sprintf("sparse/%s-%s/%d", op, kind, access)
	stride := 2 * access
	var offs []int64
	for off := int64(0); off+access < sparseWin; off += stride {
		offs = append(offs, off)
	}
	init := [2][]byte{seeded(sparseWin, mix(seed, 0)), seeded(sparseWin, mix(seed, 1))}
	origin := [2][]byte{seeded(sparseWin, mix(seed, 2)), seeded(sparseWin, mix(seed, 3))}
	var wantWin, wantOrigin [2][]byte
	for r := 0; r < 2; r++ {
		wantWin[r] = append([]byte(nil), init[r]...)
		wantOrigin[r] = append([]byte(nil), origin[r]...)
	}
	for r := 0; r < 2; r++ {
		partner := 1 - r
		for _, off := range offs {
			if put {
				copy(wantWin[partner][off:off+access], origin[r][off:off+access])
			} else {
				copy(wantOrigin[r][off:off+access], init[partner][off:off+access])
			}
		}
	}
	var final [2][]byte
	var elapsed time.Duration
	p.world(label, mpi.DefaultConfig(2, 1), func(c *mpi.Comm, t *tracer) {
		me := c.Rank()
		s := osc.NewSystem(c)
		var w *osc.Win
		if shared {
			w = s.CreateShared(c.AllocShared(sparseWin), osc.DefaultConfig())
		} else {
			w = s.CreatePrivate(make([]byte, sparseWin), osc.DefaultConfig())
		}
		copy(w.LocalBytes(), init[me])
		partner := 1 - me
		buf := origin[me]
		t.call(c, "Fence", w.Fence)
		start := c.WtimeDuration()
		for _, off := range offs {
			if put {
				t.call(c, "Put", func() { w.Put(buf[off:off+access], int(access), datatype.Byte, partner, off) })
			} else {
				t.call(c, "Get", func() { w.Get(buf[off:off+access], int(access), datatype.Byte, partner, off) })
			}
		}
		t.call(c, "Fence", w.Fence)
		if me == 0 {
			elapsed = c.WtimeDuration() - start
		}
		final[me] = append([]byte(nil), w.LocalBytes()...)
	})
	p.virt += elapsed
	for r := 0; r < 2; r++ {
		p.checkBytes(final[r], wantWin[r], fmt.Sprintf("%s window %d", label, r))
		p.checkBytes(origin[r], wantOrigin[r], fmt.Sprintf("%s origin %d", label, r))
	}
}
