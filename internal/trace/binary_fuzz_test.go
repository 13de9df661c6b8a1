package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/iotest"

	"treeclock/internal/vt"
)

// fuzzSeedBinary serializes a small trace exercising every event kind
// and both identifier widths (single- and multi-byte varints).
func fuzzSeedBinary(tb testing.TB) []byte {
	tr := &Trace{
		Meta: Meta{Name: "fuzz-seed", Threads: 300, Locks: 2, Vars: 200},
		Events: []Event{
			{T: 0, Kind: Fork, Obj: 299},
			{T: 0, Kind: Acquire, Obj: 1},
			{T: 0, Kind: Write, Obj: 150}, // operand needs two varint bytes
			{T: 0, Kind: Release, Obj: 1},
			{T: 299, Kind: Read, Obj: 3}, // thread needs two varint bytes
			{T: 0, Kind: Join, Obj: 299},
		},
	}
	var b bytes.Buffer
	if err := WriteBinary(&b, tr); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// drainSource collects every event src yields via Next, plus its
// final error.
func drainSource(src EventSource) ([]Event, error) {
	var evs []Event
	for {
		ev, ok := src.Next()
		if !ok {
			return evs, src.Err()
		}
		evs = append(evs, ev)
	}
}

// FuzzBinaryScanner feeds arbitrary bytes through the binary scanner
// two ways — whole, so events decode straight from the 64KB window, and
// through a one-byte-at-a-time reader that ends the window inside
// every event — and requires that neither panics and both agree on the
// decoded events and the failure. An accepted stream has one spelling:
// WriteBinary of what it decoded to is a prefix of it (bytes after the
// declared events are never read).
func FuzzBinaryScanner(f *testing.F) {
	seed := fuzzSeedBinary(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated mid-stream
	f.Add(seed[:3])           // truncated magic
	f.Add([]byte{})           // empty input
	f.Add([]byte("TCT1"))     // header ends after magic
	f.Add([]byte("TCT0junk")) // wrong magic
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0x80 // bit flip in the event stream
	f.Add(flipped)
	huge := []byte("TCT1")
	huge = binary.AppendUvarint(huge, 1<<30) // absurd name length
	f.Add(huge)
	// Hostile near-MaxInt identifier: fits in int32 (so it once decoded
	// cleanly) but indexes a dense grow path downstream — must now be
	// rejected at decode against the global id bound.
	hostile := []byte("TCT1")
	hostile = binary.AppendUvarint(hostile, 0)
	for _, v := range []uint64{1, 1, 1, 1} {
		hostile = binary.AppendUvarint(hostile, v)
	}
	hostile = append(hostile, byte(Write))
	hostile = binary.AppendUvarint(hostile, 1<<30) // thread id
	hostile = binary.AppendUvarint(hostile, 0)
	f.Add(hostile)
	// The same header, then an event whose operand 0 is spelled in two
	// bytes: the only spelling of 0 is one zero byte.
	overlong := append(bytes.Clone(hostile[:9]), byte(Write), 0, 0x80, 0x00)
	f.Add(overlong)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewBinaryScanner(bytes.NewReader(data))
		fast, fastErr := drainSource(s)
		slow, slowErr := drainSource(NewBinaryScanner(iotest.OneByteReader(bytes.NewReader(data))))
		if (fastErr == nil) != (slowErr == nil) {
			t.Fatalf("decode paths disagree on failure: window=%v one-byte=%v", fastErr, slowErr)
		}
		if fastErr != nil && fastErr.Error() != slowErr.Error() {
			t.Fatalf("decode paths disagree on error text:\nwindow:   %v\none-byte: %v", fastErr, slowErr)
		}
		if len(fast) != len(slow) {
			t.Fatalf("decode paths disagree on event count: window=%d one-byte=%d", len(fast), len(slow))
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("event %d differs: window=%v one-byte=%v", i, fast[i], slow[i])
			}
		}
		if fastErr == nil {
			var out bytes.Buffer
			if err := WriteBinary(&out, &Trace{Meta: s.Meta(), Events: fast}); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("accepted stream re-encodes to %x, read from %x", out.Bytes(), data)
			}
		}
	})
}

// TestBinaryScannerErrors pins the scanner's diagnostics: corrupt and
// truncated streams fail with specific messages and event positions,
// never panics.
func TestBinaryScannerErrors(t *testing.T) {
	seed := fuzzSeedBinary(t)
	header := func() []byte { // valid header declaring 4 events
		b := []byte("TCT1")
		b = binary.AppendUvarint(b, 0) // empty name
		for _, v := range []uint64{2, 1, 1, 4} {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	cases := []struct {
		name  string
		input []byte
		want  string
	}{
		{"empty", nil, `trace: reading binary header: unexpected EOF`},
		{"bad magic", []byte("TCT0junk"), `trace: bad binary magic "TCT0" (want "TCT1")`},
		{"truncated magic", []byte("TC"), `trace: reading binary header: unexpected EOF`},
		{"name too large", binary.AppendUvarint([]byte("TCT1"), 1<<21),
			`trace: binary trace name length 2097152 too large`},
		{"header field overflow", append(binary.AppendUvarint([]byte("TCT1"), 0),
			binary.AppendUvarint(nil, 1<<40)...),
			`trace: binary header field 0 out of range (1099511627776)`},
		{"uvarint overflow", append([]byte("TCT1"),
			0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
			`trace: uvarint overflows 64 bits`},
		{"invalid kind", append(header(), 200, 0, 0),
			`trace: event 0: invalid kind 200`},
		{"identifier out of range", append(header(), append(
			append([]byte{byte(Write)}, binary.AppendUvarint(nil, 1<<33)...), 0)...),
			`trace: event 0: identifier out of range (thread 8589934592, operand 0)`},
		{"truncated event stream", seed[:len(seed)-3],
			`trace: event 5: EOF`},
		{"non-minimal operand", append(header(), byte(Write), 0, 0x80, 0x00),
			`trace: event 0: trace: uvarint is not minimally encoded`},
		{"non-minimal header field", append(binary.AppendUvarint([]byte("TCT1"), 0), 0x81, 0x00),
			`trace: reading binary header: trace: uvarint is not minimally encoded`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := drainSource(NewBinaryScanner(bytes.NewReader(tc.input)))
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestBinaryScannerRoundTrip pins that a clean stream decodes to the
// events and metadata it was written from, through both decode paths.
func TestBinaryScannerRoundTrip(t *testing.T) {
	seed := fuzzSeedBinary(t)
	for _, tc := range []struct {
		name string
		scan *BinaryScanner
	}{
		{"window", NewBinaryScanner(bytes.NewReader(seed))},
		{"one-byte", NewBinaryScanner(iotest.OneByteReader(bytes.NewReader(seed)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.scan.Meta(); got.Name != "fuzz-seed" || got.Threads != 300 {
				t.Fatalf("meta = %+v", got)
			}
			evs, err := drainSource(tc.scan)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != 6 || evs[2] != (Event{T: 0, Kind: Write, Obj: 150}) ||
				evs[4] != (Event{T: vt.TID(299), Kind: Read, Obj: 3}) {
				t.Fatalf("decoded events = %v", evs)
			}
		})
	}
}
