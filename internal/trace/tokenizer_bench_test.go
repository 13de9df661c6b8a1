package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"treeclock/internal/vt"
)

// benchText synthesizes a canonical-format text trace with a bounded
// identifier universe, so after one warm-up pass every name is interned
// and the tokenizer runs its steady state.
func benchText(events int) []byte {
	r := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	for i := 0; i < events; i++ {
		t := r.Intn(32)
		switch r.Intn(6) {
		case 0:
			fmt.Fprintf(&buf, "t%d r x%d\n", t, r.Intn(4096))
		case 1:
			fmt.Fprintf(&buf, "t%d w x%d\n", t, r.Intn(4096))
		case 2:
			fmt.Fprintf(&buf, "t%d acq l%d\n", t, r.Intn(24))
		case 3:
			fmt.Fprintf(&buf, "t%d rel l%d\n", t, r.Intn(24))
		default:
			fmt.Fprintf(&buf, "t%d w x%d\n", t, r.Intn(4096))
		}
	}
	return buf.Bytes()
}

// repeatReader replays its data forever, so a single Scanner can be
// driven for b.N events with every identifier already interned —
// allocs/op then reports the tokenizer's steady-state allocation count
// per event, which must be 0.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkTokenizerNext measures the per-event scalar path of the text
// tokenizer: one op is one event. Steady state must run at 0 allocs/op.
func BenchmarkTokenizerNext(b *testing.B) {
	data := benchText(50_000)
	s := NewScanner(&repeatReader{data: data})
	for i := 0; i < 50_000; i++ { // warm up: intern the whole universe
		if _, ok := s.Next(); !ok {
			b.Fatal(s.Err())
		}
	}
	b.SetBytes(int64(len(data)) / 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal(s.Err())
		}
	}
}

// BenchmarkTokenizerNextBatch measures the batched path; one op is one
// event, delivered through DefaultBatchSize-event batches. Steady state
// must run at 0 allocs/op.
func BenchmarkTokenizerNextBatch(b *testing.B) {
	data := benchText(50_000)
	s := NewScanner(&repeatReader{data: data})
	buf := make([]Event, DefaultBatchSize)
	for warmed := 0; warmed < 50_000; {
		n, ok := s.NextBatch(buf)
		if !ok {
			b.Fatal(s.Err())
		}
		warmed += n
	}
	b.SetBytes(int64(len(data)) / 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n, ok := s.NextBatch(buf)
		if !ok {
			b.Fatal(s.Err())
		}
		done += n
	}
}

// BenchmarkBinaryNextBatch is the binary-format counterpart, the
// decode floor the text tokenizer is chasing. It times both event
// shapes: 4,096 variables, where most operands take two uvarint bytes,
// and every identifier below 128, one byte each.
func BenchmarkBinaryNextBatch(b *testing.B) {
	for _, vars := range []int{4096, 128} {
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			var evs []Event
			r := rand.New(rand.NewSource(42))
			for i := 0; i < 50_000; i++ {
				evs = append(evs, Event{T: vt.TID(r.Intn(32)), Obj: int32(r.Intn(vars)), Kind: Write})
			}
			tr := &Trace{Meta: Meta{Threads: 32, Vars: vars}, Events: evs}
			var data bytes.Buffer
			if err := WriteBinary(&data, tr); err != nil {
				b.Fatal(err)
			}
			buf := make([]Event, DefaultBatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			done := 0
			for done < b.N {
				s := NewBinaryScanner(bytes.NewReader(data.Bytes()))
				for {
					n, ok := s.NextBatch(buf)
					if !ok {
						break
					}
					done += n
				}
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
