package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"treeclock/internal/vt"
)

// binarySample builds a small trace covering every event kind.
func binarySample(t *testing.T) *Trace {
	t.Helper()
	tr, err := ParseTextString(sampleText)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBinaryScannerMatchesTextScanner round-trips a trace through both
// serializations and checks the two streaming scanners agree event for
// event (the satellite requirement of the streaming refactor).
func TestBinaryScannerMatchesTextScanner(t *testing.T) {
	tr := binarySample(t)
	var text, bin bytes.Buffer
	if err := WriteText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	ts := NewScanner(&text)
	bs := NewBinaryScanner(&bin)
	if got := bs.Len(); got != tr.Len() {
		t.Errorf("BinaryScanner.Len() = %d, want %d", got, tr.Len())
	}
	for i := 0; ; i++ {
		tev, tok := ts.Next()
		bev, bok := bs.Next()
		if tok != bok {
			t.Fatalf("scanners diverge at event %d: text ok=%v, binary ok=%v", i, tok, bok)
		}
		if !tok {
			break
		}
		if tev != bev {
			t.Fatalf("event %d: text %v, binary %v", i, tev, bev)
		}
	}
	if ts.Err() != nil || bs.Err() != nil {
		t.Fatalf("scanner errors: text %v, binary %v", ts.Err(), bs.Err())
	}
	if bs.Meta() != tr.Meta {
		t.Errorf("binary meta = %+v, want %+v", bs.Meta(), tr.Meta)
	}
}

func TestBinaryScannerStreamsIncrementally(t *testing.T) {
	tr := binarySample(t)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	s := NewBinaryScanner(&bin)
	ev, ok := s.Next()
	if !ok {
		t.Fatal("first Next failed")
	}
	if ev != tr.Events[0] {
		t.Errorf("first event %v, want %v", ev, tr.Events[0])
	}
}

func TestBinaryBadMagic(t *testing.T) {
	s := NewBinaryScanner(strings.NewReader("not a binary trace"))
	if _, ok := s.Next(); ok {
		t.Fatal("Next succeeded on garbage")
	}
	if s.Err() == nil {
		t.Fatal("Err() = nil on garbage input")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := binarySample(t)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	b := bin.Bytes()
	_, err := ReadBinary(bytes.NewReader(b[:len(b)-2]))
	if err == nil {
		t.Fatal("ReadBinary succeeded on truncated input")
	}
}

func TestBinaryPreservesSparseIDs(t *testing.T) {
	// Binary serialization must keep numeric ids verbatim (no
	// interning), including ids with gaps.
	tr := &Trace{
		Meta:   Meta{Threads: 41, Locks: 1, Vars: 100},
		Events: []Event{{T: 40, Obj: 99, Kind: Write}, {T: 0, Obj: 0, Kind: Acquire}},
	}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events[0] != tr.Events[0] || back.Events[1] != tr.Events[1] {
		t.Errorf("sparse ids not preserved: %+v", back.Events)
	}
}

// TestBinaryEventBytes pins the encoding of single events. TCT1 files
// and tcraced's events frame share it, so these bytes may not move.
func TestBinaryEventBytes(t *testing.T) {
	const top = vt.MaxID - 1 // the largest identifier: four uvarint bytes
	for _, tc := range []struct {
		ev   Event
		want []byte
	}{
		{Event{T: 0, Obj: 0, Kind: Read}, []byte{0, 0, 0}},
		{Event{T: 3, Obj: 7, Kind: Join}, []byte{5, 3, 7}},
		{Event{T: 127, Obj: 127, Kind: Acquire}, []byte{2, 0x7f, 0x7f}},
		{Event{T: 0, Obj: 150, Kind: Write}, []byte{1, 0, 0x96, 0x01}},
		{Event{T: 299, Obj: 3, Kind: Read}, []byte{0, 0xab, 0x02, 3}},
		{Event{T: top, Obj: top, Kind: Fork}, []byte{4, 0xff, 0xff, 0xff, 0x1f, 0xff, 0xff, 0xff, 0x1f}},
	} {
		var b bytes.Buffer
		if err := WriteBinary(&b, &Trace{Events: []Event{tc.ev}}); err != nil {
			t.Fatal(err)
		}
		// Magic, an empty name, three zero sizes and a count of one.
		want := append([]byte("TCT1\x00\x00\x00\x00\x01"), tc.want...)
		if !bytes.Equal(b.Bytes(), want) {
			t.Errorf("%v encodes to % x, want % x", tc.ev, b.Bytes(), want)
		}
		back, err := ReadBinary(&b)
		if err != nil || len(back.Events) != 1 || back.Events[0] != tc.ev {
			t.Errorf("%v decodes to %v (err %v)", tc.ev, back, err)
		}
	}
}

// stallReader returns (0, nil) until it has been called 1,000 times,
// then io.ErrUnexpectedEOF: a scanner that fails with anything else
// has not given up on it in time.
type stallReader struct{ calls int }

func (r *stallReader) Read([]byte) (int, error) {
	if r.calls++; r.calls > 1000 {
		return 0, io.ErrUnexpectedEOF
	}
	return 0, nil
}

// TestBinaryScannerNoProgress pins that a reader stuck returning
// (0, nil) fails the scan with io.ErrNoProgress, in the header and
// between events, as it does for the text Scanner.
func TestBinaryScannerNoProgress(t *testing.T) {
	tr := binarySample(t)
	var bin bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []int{0, bin.Len() / 2} {
		r := io.MultiReader(bytes.NewReader(bin.Bytes()[:prefix]), &stallReader{})
		if _, err := drainSource(NewBinaryScanner(r)); !errors.Is(err, io.ErrNoProgress) {
			t.Errorf("stall after %d bytes: err = %v, want io.ErrNoProgress", prefix, err)
		}
	}
}
