package main

import (
	"fmt"
	"math"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

// The noncontig workload: the paper's Figure 7 strided-vector sweep
// (generic vs direct_pack_ff vs contiguous, inter-node over SCI and
// intra-node over shared memory), the derived-datatype pattern zoo, the
// rendezvous deposit-path matrix, and the section 4.3 strided remote-write
// points. Every send buffer is seeded, every receive buffer is pre-filled
// with a seeded sentinel, and every delivery is checked against the
// driver's own expansion of the datatype's type map: the data blocks must
// hold the sent bytes and the gaps must keep the sentinel.

const ncTotal = 256 << 10 // data bytes per transfer

func runNoncontig(p *pass) {
	blocks := []int64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
	if p.short {
		blocks = []int64{128}
	}
	// Figure 7: inter-node (2 nodes) and intra-node (1 node, 2 procs).
	fig := map[string]float64{}
	for _, shape := range []struct {
		name         string
		nodes, procs int
	}{{"sci", 2, 1}, {"shm", 1, 2}} {
		cfg := mpi.DefaultConfig(shape.nodes, shape.procs)
		fig[shape.name+"/contig"] = ncPoint(p, shape.name+"/contig", cfg, contigType)
		for _, bs := range blocks {
			for _, ff := range []bool{false, true} {
				cfg.Protocol.UseFF = ff
				cfg.Protocol.Path = mpi.PathStatic // the engine ablation of Figure 7
				key := fmt.Sprintf("%s/%d/%s", shape.name, bs, engineName(ff))
				fig[key] = ncPoint(p, key, cfg, vectorType(bs))
			}
		}
	}
	ratio := func(a, b string) (float64, bool) {
		x, ok1 := fig[a]
		y, ok2 := fig[b]
		return x / y, ok1 && ok2 && y > 0
	}
	if r, ok := ratio("sci/128/ff", "sci/contig"); ok {
		p.model["fig7.ff_over_contig_128B"] = r
	}
	if r, ok := ratio("sci/16/ff", "sci/16/generic"); ok {
		p.model["fig7.ff_over_generic_16B"] = r
	}
	if r, ok := ratio("sci/8/generic", "sci/8/ff"); ok {
		p.model["fig7.generic_over_ff_8B"] = r
	}
	best := 0.0
	for _, bs := range blocks {
		if bs >= 128 && bs <= 16384 {
			if r, ok := ratio(fmt.Sprintf("shm/%d/ff", bs), "shm/contig"); ok {
				best = math.Max(best, r)
			}
		}
	}
	if best > 0 {
		p.model["fig7.shm_ff_over_contig_max"] = best
	}

	// The datatype pattern zoo: generic, direct_pack_ff and the adaptive
	// path chooser per pattern, between two nodes.
	patterns := dtPatterns()
	if p.short {
		patterns = patterns[:2]
	}
	for _, pat := range patterns {
		for _, mode := range []struct {
			name string
			ff   bool
			path mpi.PathPolicy
		}{{"generic", false, mpi.PathStatic}, {"ff", true, mpi.PathStatic}, {"adaptive", true, mpi.PathAdaptive}} {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.Protocol.UseFF, cfg.Protocol.Path = mode.ff, mode.path
			ncPoint(p, "dt/"+pat.name+"/"+mode.name, cfg, pat.build)
		}
	}

	// The rendezvous deposit-path matrix: each engine forced, then chosen.
	dmaBlocks := []int64{8, 16, 32, 64, 128, 256, 1024, 8192}
	if p.short {
		dmaBlocks = []int64{256}
	}
	for _, bs := range dmaBlocks {
		for _, mode := range []struct {
			name string
			ff   bool
			path mpi.PathPolicy
		}{{"pio-ff", true, mpi.PathPIO}, {"staged", true, mpi.PathStaged}, {"dma-sg", true, mpi.PathDMA},
			{"generic", false, mpi.PathStatic}, {"adaptive", true, mpi.PathAdaptive}} {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.Protocol.UseFF, cfg.Protocol.Path = mode.ff, mode.path
			ncPoint(p, fmt.Sprintf("dma/%d/%s", bs, mode.name), cfg, vectorType(bs))
		}
	}

	// Section 4.3: strided remote writes through a loop of MPI_Put calls
	// on a shared window, at the worst and best strides of each access
	// size.
	strided := []struct {
		key            string
		access, stride int64
	}{
		{"s4.3.w8_min", 8, 24}, {"s4.3.w8_max", 8, 32},
		{"s4.3.w256_min", 256, 264}, {"s4.3.w256_max", 256, 288},
	}
	if p.short {
		strided = strided[1:2]
	}
	for i, s := range strided {
		p.model[s.key] = stridedPut(p, s.access, s.stride, mix(p.seed, 3, uint64(i)))
	}
}

func engineName(ff bool) string {
	if ff {
		return "ff"
	}
	return "generic"
}

func contigType() *datatype.Type {
	return datatype.Contiguous(ncTotal, datatype.Byte).Commit()
}

// vectorType is Figure 7's strided vector: blocks of bs bytes of doubles
// with gaps of the same size, ncTotal data bytes in all.
func vectorType(bs int64) func() *datatype.Type {
	return func() *datatype.Type {
		elems := int(bs / 8)
		return datatype.Vector(int(ncTotal/bs), elems, 2*elems, datatype.Float64).Commit()
	}
}

type dtPattern struct {
	name  string
	build func() *datatype.Type
}

// dtPatterns is the derived-datatype zoo: regular, misaligned, irregular,
// struct and nested layouts of about ncTotal data bytes.
func dtPatterns() []dtPattern {
	return []dtPattern{
		{"vector-small-blocks", func() *datatype.Type {
			return datatype.Vector(ncTotal/64, 8, 16, datatype.Float64).Commit()
		}},
		{"vector-large-blocks", func() *datatype.Type {
			return datatype.Vector(ncTotal/8192, 1024, 2048, datatype.Float64).Commit()
		}},
		{"hvector-misaligned", func() *datatype.Type {
			return datatype.Hvector(ncTotal/40, 5, 104, datatype.Float64).Commit()
		}},
		{"indexed-irregular", func() *datatype.Type {
			var lens, displs []int
			next, total := 0, 0
			for i := 0; total < ncTotal/8; i++ {
				l := 1 + (i*7)%16
				lens = append(lens, l)
				displs = append(displs, next)
				next += l + 1 + i%5
				total += l
			}
			return datatype.Indexed(lens, displs, datatype.Float64).Commit()
		}},
		{"struct-vector", func() *datatype.Type {
			st := datatype.StructOf(
				datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
				datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
			)
			return datatype.Vector(ncTotal/7, 1, 1, datatype.Resized(st, 0, 12)).Commit()
		}},
		{"nested-double-strided", func() *datatype.Type {
			inner := datatype.Vector(8, 32, 64, datatype.Float64)
			return datatype.Vector(ncTotal/(8*256), 1, 1, datatype.Resized(inner, 0, inner.Extent()+64)).Commit()
		}},
		{"subarray-2d-face", func() *datatype.Type {
			return datatype.Subarray([]int{256, 512}, []int{256, 128}, []int{0, 192}, datatype.Float64).Commit()
		}},
	}
}

const ncReps = 4

// ncPoint streams ncReps messages of one instance of the datatype from
// rank 0 to rank 1 and checks every delivery. It returns the bandwidth in
// virtual MiB/s, from the first barrier to the receiver's acknowledgement.
func ncPoint(p *pass, label string, cfg mpi.Config, build func() *datatype.Type) float64 {
	var ty *datatype.Type
	p.commit(func() { ty = build() })
	span := ty.UB()
	seed := mix(p.seed, 2, hashLabel(label))
	src := make([][]byte, ncReps)
	dst := make([][]byte, ncReps)
	want := make([][]byte, ncReps)
	blocks := ty.TypeMap()
	for i := range src {
		src[i] = seeded(span, mix(seed, uint64(i), 0))
		dst[i] = seeded(span, mix(seed, uint64(i), 1)) // sentinel for the gaps
		want[i] = append([]byte(nil), dst[i]...)
		for _, b := range blocks {
			copy(want[i][b.Off:b.Off+b.Len], src[i][b.Off:])
		}
	}
	var elapsed time.Duration
	p.world(label, cfg, func(c *mpi.Comm, t *tracer) {
		t.call(c, "Barrier", c.Barrier)
		switch c.Rank() {
		case 0:
			start := c.WtimeDuration()
			for i := 0; i < ncReps; i++ {
				t.call(c, "Send", func() { c.Send(src[i], 1, ty, 1, i) })
			}
			t.call(c, "Recv", func() { c.Recv(nil, 0, datatype.Byte, 1, 999) })
			elapsed = c.WtimeDuration() - start
		case 1:
			for i := 0; i < ncReps; i++ {
				t.call(c, "Recv", func() { c.Recv(dst[i], 1, ty, 0, i) })
			}
			t.call(c, "Send", func() { c.Send(nil, 0, datatype.Byte, 0, 999) })
		}
	})
	p.virt += elapsed
	for i := range dst {
		p.checkBytes(dst[i], want[i], fmt.Sprintf("%s rep %d", label, i))
	}
	return bw(ty.Size()*ncReps, elapsed)
}

// stridedPut writes ncTotal bytes from rank 0 into rank 1's shared window
// as a loop of access-byte puts at the given stride, checks the final
// window, and returns the bandwidth in virtual MiB/s.
func stridedPut(p *pass, access, stride int64, seed uint64) float64 {
	n := int64(ncTotal) / access
	size := n*stride + stride
	src := seeded(n*access, mix(seed, 0))
	init := seeded(size, mix(seed, 1))
	want := append([]byte(nil), init...)
	for k := int64(0); k < n; k++ {
		copy(want[k*stride:k*stride+access], src[k*access:(k+1)*access])
	}
	final := make([]byte, size)
	label := fmt.Sprintf("strided/%d/%d", access, stride)
	var elapsed time.Duration
	p.world(label, mpi.DefaultConfig(2, 1), func(c *mpi.Comm, t *tracer) {
		s := osc.NewSystem(c)
		w := s.CreateShared(c.AllocShared(size), osc.DefaultConfig())
		if c.Rank() == 1 {
			copy(w.LocalBytes(), init)
		}
		t.call(c, "Fence", w.Fence)
		start := c.WtimeDuration()
		if c.Rank() == 0 {
			for k := int64(0); k < n; k++ {
				t.call(c, "Put", func() { w.Put(src[k*access:(k+1)*access], int(access), datatype.Byte, 1, k*stride) })
			}
		}
		t.call(c, "Fence", w.Fence)
		if c.Rank() == 0 {
			elapsed = c.WtimeDuration() - start
		} else {
			copy(final, w.LocalBytes())
		}
	})
	p.virt += elapsed
	p.checkBytes(final, want, label)
	return bw(n*access, elapsed)
}

// hashLabel folds a point label into a seed component.
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
