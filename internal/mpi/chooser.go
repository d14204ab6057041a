package mpi

import (
	"time"

	"scimpich/internal/sim"
)

// chooserEWMA is the blend factor of the adaptive chooser's bandwidth
// estimator.
const chooserEWMA = 0.25

// chooser is the adaptive selector behind both per-transfer decisions of
// the runtime: the rendezvous deposit path (one chooser per sender/receiver
// pair, see pathsel.go) and the collective algorithm (one per collective
// kind, see collalg.go). It keeps one EWMA of achieved bandwidth per
// candidate, bytes/sec (0 = never exercised), indexed by the candidate's
// value; the array has room for the larger candidate set, CollAlg. A
// candidate is predicted from its cost-model prior until it has been
// exercised, and from its measured bandwidth after that.
type chooser[T ~int] [collAlgCount]float64

// pick returns the eligible candidate with the least predicted duration
// for n bytes. A nil eligible admits every candidate; prior is the
// cost-model prediction of a candidate not yet exercised. The earlier
// candidate wins ties, and cands[0] is returned when none is eligible.
func (ch *chooser[T]) pick(cands []T, n int64, eligible func(T) bool, prior func(T) time.Duration) T {
	best, bestCost, found := cands[0], time.Duration(0), false
	for _, c := range cands {
		if eligible != nil && !eligible(c) {
			continue
		}
		var cost time.Duration
		if bw := ch[c]; bw > 0 {
			cost = sim.RateDuration(n, bw)
		} else {
			cost = prior(c)
		}
		if !found || cost < bestCost {
			best, bestCost, found = c, cost, true
		}
	}
	return best
}

// observe folds one completed operation of n bytes that took elapsed into
// the bandwidth estimate of candidate c.
func (ch *chooser[T]) observe(c T, n int64, elapsed time.Duration) {
	if n <= 0 || elapsed <= 0 {
		return
	}
	bw := float64(n) / elapsed.Seconds()
	if prev := ch[c]; prev > 0 {
		bw = chooserEWMA*bw + (1-chooserEWMA)*prev
	}
	ch[c] = bw
}
