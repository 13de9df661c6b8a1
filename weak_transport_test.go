package treeclock_test

// Differential pinning of the WCP weak-clock transports through the
// public streaming API: the registry's sparse transport must reproduce
// the flat-vector oracle (runPreSized's "wcp-flat") — race reports,
// timestamps and retained-state counters — on the sequential,
// pipelined and sharded paths.

import (
	"bytes"
	"testing"

	"treeclock"
	"treeclock/internal/core"
	"treeclock/internal/vc"
)

func TestWCPFlatWeakTransportByteIdentical(t *testing.T) {
	const workers = 3
	paths := []struct {
		name     string
		replicas int // MemStats sums the counters over sharded replicas
		opts     []treeclock.StreamOption
	}{
		{"batch", 1, []treeclock.StreamOption{treeclock.WithPipeline(0)}},
		{"pipeline", 1, []treeclock.StreamOption{treeclock.WithPipeline(3)}},
		{"workers", workers, []treeclock.StreamOption{treeclock.WithWorkers(workers)}},
	}
	for _, tr := range generatorSuite() {
		var text bytes.Buffer
		if err := treeclock.WriteTraceText(&text, tr); err != nil {
			t.Fatal(err)
		}
		// The text format renames identifiers in order of first
		// appearance; the flat reference runs the re-parsed trace.
		reparsed, err := treeclock.ParseTrace(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		k := reparsed.Meta.Threads
		for _, engineName := range []string{"wcp-tree", "wcp-vc"} {
			var flat reference
			if engineName == "wcp-tree" {
				flat = runPreSized(t, "wcp-flat", reparsed, presized(core.Factory(nil), k))
			} else {
				flat = runPreSized(t, "wcp-flat", reparsed, presized(vc.Factory(nil), k))
			}
			for _, p := range paths {
				t.Run(tr.Meta.Name+"/"+engineName+"/"+p.name, func(t *testing.T) {
					sparse, err := treeclock.RunStream(engineName, bytes.NewReader(text.Bytes()), p.opts...)
					if err != nil {
						t.Fatal(err)
					}
					matchReference(t, sparse, flat, k)
					if sparse.Mem == nil {
						t.Fatal("wcp engines must report retained-state accounting")
					}
					// The history/compaction counters are transport-
					// independent; byte and pool counts are not.
					n := p.replicas
					if sparse.Mem.HistEntries != n*flat.mem.HistEntries ||
						sparse.Mem.PeakLockHist != flat.mem.PeakLockHist ||
						sparse.Mem.DroppedEntries != uint64(n)*flat.mem.DroppedEntries ||
						sparse.Mem.SummaryVectors != n*flat.mem.SummaryVectors {
						t.Errorf("retained-state counters diverge over %d replica(s):\nsparse %+v\nflat   %+v", n, sparse.Mem, flat.mem)
					}
				})
			}
		}
	}
}
