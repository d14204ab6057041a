package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// paper_ref.json holds the numbers the paper prints that the noncontig
// workload measures, each with its source and whether the model was
// calibrated to it. An "eq" row is a value; a "min" row is a lower bound
// the paper states, missed only by falling short of it.
//
//go:embed paper_ref.json
var paperRefJSON []byte

type paperRef struct {
	ID          string  `json:"id"`
	Paper       float64 `json:"paper"`
	Kind        string  `json:"kind"`
	Calibration bool    `json:"calibration"`
	Source      string  `json:"source"`
}

var paperRefs = func() []paperRef {
	var refs []paperRef
	if err := json.Unmarshal(paperRefJSON, &refs); err != nil {
		panic(fmt.Sprintf("perfbench: paper_ref.json: %v", err))
	}
	return refs
}()

// paperError returns the mean absolute relative error, in percent, of the
// measured values against the held-out and the calibration rows. Rows the
// pass did not measure are skipped.
func paperError(measured map[string]float64) (heldOut, calib float64) {
	var h, c []float64
	for _, r := range paperRefs {
		m, ok := measured[r.ID]
		if !ok {
			continue
		}
		e := math.Abs(m-r.Paper) / r.Paper
		if r.Kind == "min" {
			e = math.Max(0, r.Paper-m) / r.Paper
		}
		if r.Calibration {
			c = append(c, 100*e)
		} else {
			h = append(h, 100*e)
		}
	}
	return mean(h), mean(c)
}
