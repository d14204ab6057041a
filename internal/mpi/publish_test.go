package mpi

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
	"scimpich/internal/sci"
)

// TestPublishMetricsCoversEveryStatsField: every field of DeviceStats and
// sci.Stats has a published gauge after Run, so the publish list cannot
// drift from the statistics it mirrors. A gauge matches a field when its
// base name, without underscores, equals the lower-cased field name
// (sci.node.dma_sg_transfers for DMASGTransfers).
func TestPublishMetricsCoversEveryStatsField(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig(2, 1)
	cfg.Metrics = reg
	Run(cfg, func(c *Comm) {
		buf := make([]byte, 64<<10)
		if c.Rank() == 0 {
			c.Send(buf, len(buf), datatype.Byte, 1, 0)
		} else {
			c.Recv(buf, len(buf), datatype.Byte, 0, 0)
		}
	})
	published := make(map[string]bool)
	for name := range registryValues(reg, "gauge") {
		published[strings.ReplaceAll(name, "_", "")] = true
	}
	for _, c := range []struct {
		stats  any
		prefix string
		label  string
	}{
		{DeviceStats{}, "mpi.device.", "{rank=0}"},
		{sci.Stats{}, "sci.node.", "{node=0}"},
	} {
		ty := reflect.TypeOf(c.stats)
		for i := 0; i < ty.NumField(); i++ {
			f := ty.Field(i)
			if want := c.prefix + strings.ToLower(f.Name) + c.label; !published[want] {
				t.Errorf("%s.%s has no published gauge %s*%s", ty, f.Name, c.prefix, c.label)
			}
		}
	}
}

// TestSCIBytesWrittenCounterMatchesNodes: the sci.bytes.written registry
// counter equals the sum of the per-node sci.node.bytes_written gauges,
// across control-word writes and ordinary sends.
func TestSCIBytesWrittenCounterMatchesNodes(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := DefaultConfig(2, 1)
	cfg.Metrics = reg
	w := NewWorldOn(NewFabric(cfg), cfg)
	seg := w.ic.Node(1).Export(64)
	w.Run(func(c *Comm) {
		buf := make([]byte, 100<<10)
		if c.Rank() == 0 {
			m := w.ic.Node(0).MustImport(1, seg.ID())
			for off := int64(0); off < 64; off += 8 {
				m.WriteWord(c.p, off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			}
			c.Send(buf[:64], 64, datatype.Byte, 1, 0)
			c.Send(buf, len(buf), datatype.Byte, 1, 1)
		} else {
			c.Recv(buf[:64], 64, datatype.Byte, 0, 0)
			c.Recv(buf, len(buf), datatype.Byte, 0, 1)
		}
	})
	vals := registryValues(reg, "gauge")
	var nodes int64
	for node := 0; node < cfg.Nodes; node++ {
		nodes += vals[obs.Name("sci.node.bytes_written", "node", strconv.Itoa(node))]
	}
	if got := reg.Counter("sci.bytes.written").Value(); got != nodes || nodes == 0 {
		t.Fatalf("sci.bytes.written = %d, sum of sci.node.bytes_written = %d", got, nodes)
	}
}
