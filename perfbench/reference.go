package main

import (
	"container/heap"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens of
// percent within minutes as other guests load it. To compare host times
// taken at different moments, every pass also times a fixed reference
// workload that uses no repository code, and scales its own CPU times by
// refNominal / (reference CPU time). The reference mixes the kinds of
// host work the simulator does: a priority queue of timed closures,
// map updates, small allocations, goroutine hand-offs over unbuffered
// channels, and bulk copies.

// refNominal is about the reference workload's CPU time on the 2-CPU
// Xeon host the benchmark's bounds were set on; scaled times are seconds
// of that host.
const refNominal = 80 * time.Millisecond

// refRounds sets the reference workload's size (about refNominal).
const refRounds = 3

var refSink uint64

// refCPU runs the reference workload and returns its process CPU time.
func refCPU() time.Duration {
	c0 := processCPU()
	for r := 0; r < refRounds; r++ {
		refSink += refHeap() + refMap() + refChan() + refCopy()
	}
	return processCPU() - c0
}

type refEvent struct {
	at uint64
	fn func() uint64
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// refHeap schedules and dispatches timed closures, each scheduling a
// successor, as an event engine does.
func refHeap() uint64 {
	q := &refQueue{}
	z := uint64(1)
	for i := 0; i < 256; i++ {
		z = splitmix(z)
		v := z
		heap.Push(q, refEvent{at: z % 4096, fn: func() uint64 { return v }})
	}
	var sum uint64
	for n := 0; n < 60000; n++ {
		e := heap.Pop(q).(refEvent)
		sum += e.fn()
		z = splitmix(z)
		v := z
		heap.Push(q, refEvent{at: e.at + 1 + z%4096, fn: func() uint64 { return v + sum }})
	}
	return sum
}

// refMap updates and scans a map of small records, as the flow solver
// does with its active transfers.
func refMap() uint64 {
	type rec struct{ a, b uint64 }
	m := map[uint64]*rec{}
	z := uint64(7)
	var sum uint64
	for n := 0; n < 40000; n++ {
		z = splitmix(z)
		k := z % 2048
		if r, ok := m[k]; ok {
			r.b += z
			if z%3 == 0 {
				delete(m, k)
			}
		} else {
			m[k] = &rec{a: z}
		}
		if n%1000 == 0 {
			for _, r := range m {
				sum += r.a ^ r.b
			}
		}
	}
	return sum
}

// refChan hands a token back and forth between two goroutines, as the
// engine hands control between cooperative processes.
func refChan() uint64 {
	ping, pong := make(chan uint64), make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	var v uint64
	for n := 0; n < 4000; n++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-done
	return v
}

// refCopy moves bytes between buffers in blocks, as the pack engines do.
func refCopy() uint64 {
	src := make([]byte, 1<<20)
	fill(src, 3)
	dst := make([]byte, 1<<20)
	for n := 0; n < 8; n++ {
		for off := 0; off < len(src); off += 4096 {
			copy(dst[off:off+2048], src[off+2048:off+4096])
			copy(dst[off+2048:off+4096], src[off:off+2048])
		}
	}
	return uint64(dst[12345])
}
