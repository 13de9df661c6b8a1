package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzTextScanner fuzzes the text scanner, tcrace's default input path.
// No input may panic it. Every input is decoded two ways — per event
// (Next) and in batches (NextBatch) — without and with an intern cap
// small enough to evict on every few names. The two decodes must agree
// on whether the input is accepted, and on an accepted input event for
// event; those events must also survive a WriteBinary/ReadBinary round
// trip.
func FuzzTextScanner(f *testing.F) {
	f.Add([]byte("# seed\nt0 fork t1\nt0 acq l0\nt0 w x0\nt0 rel l0\nt1 r x0\nt0 join t1\n"))
	f.Add([]byte("main acq mu\nmain w counter\nmain rel mu\nworker-1 r counter\nworker-2 w counter\nworker-1 r other\n"))
	f.Add([]byte("t0 w x0\r\n\n  t1\tw  x0  \n# comment\nt2 r x00\nt3 w y7\n"))
	f.Add([]byte("t0 frobnicate x0\n"))
	f.Add([]byte("t0 w\n"))
	f.Add([]byte("t0 w x0 extra\n"))
	f.Add([]byte("t99999999999 w x0\n"))
	f.Add([]byte("t0 w x0")) // no final newline
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, internCap := range []int{0, 2} {
			newScanner := func() *Scanner {
				s := NewScanner(bytes.NewReader(data))
				if internCap > 0 {
					s.SetInternCap(internCap)
				}
				return s
			}
			s := newScanner()
			evs, err := drainSource(s)
			// A small odd buffer puts batch boundaries everywhere.
			bs := newScanner()
			batched := drainBatches(bs, 7)
			batchErr := bs.Err()
			if (err == nil) != (batchErr == nil) {
				t.Fatalf("cap %d: decodes disagree on acceptance: next %v, batch %v", internCap, err, batchErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(evs, batched) {
				t.Fatalf("cap %d: decodes disagree:\nnext  %v\nbatch %v", internCap, evs, batched)
			}
			var bin bytes.Buffer
			if err := WriteBinary(&bin, &Trace{Meta: s.Meta(), Events: evs}); err != nil {
				t.Fatal(err)
			}
			back, err := ReadBinary(&bin)
			if err != nil {
				t.Fatalf("cap %d: binary re-encoding rejected: %v", internCap, err)
			}
			if back.Meta != s.Meta() || !slices.Equal(back.Events, evs) {
				t.Fatalf("cap %d: binary round trip changed the trace:\ntext   %v %v\nbinary %v %v", internCap, s.Meta(), evs, back.Meta, back.Events)
			}
		}
	})
}
