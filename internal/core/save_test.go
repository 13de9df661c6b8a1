package core

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"treeclock/internal/ckpt"
	"treeclock/internal/vt"
)

// saveSection encodes c as the only content of one checkpoint section.
func saveSection(c *TreeClock) []byte {
	var buf bytes.Buffer
	e := ckpt.NewEnc(&buf)
	e.Begin("clock")
	c.Save(e)
	e.End()
	return buf.Bytes()
}

// loadSection decodes the clock of a section written by saveSection.
func loadSection(b []byte) (*TreeClock, error) {
	d := ckpt.NewDec(bytes.NewReader(b))
	d.Begin("clock")
	c := New(0, nil)
	c.Load(d)
	d.End()
	return c, d.Err()
}

// joinedClock returns thread 0's clock after it joined threads 1 and 2,
// each one event in: root 0 with the two leaves 2 and 1.
func joinedClock() *TreeClock {
	th := make([]*TreeClock, 3)
	for i := range th {
		th[i] = New(3, nil)
		th[i].Init(vt.TID(i))
		th[i].Inc(vt.TID(i), 1)
	}
	th[0].Join(th[1])
	th[0].Join(th[2])
	return th[0]
}

// TestLoadRejectsSelfLoop feeds Load a clock whose every link is in
// range but whose last child names itself as its next sibling. Loaded
// unchecked, the clock fails Validate and a join from it never ends.
func TestLoadRejectsSelfLoop(t *testing.T) {
	c := joinedClock()
	c.sh[1].nxt = 1
	if _, err := loadSection(saveSection(c)); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("self-looping sibling link: Load error %v, want ErrCorrupt", err)
	}
}

// TestLoadBoundsCapacityByPayload feeds Load a section that claims
// 2^20 threads but holds no entry. Load must fail before it allocates
// the arrays such a capacity asks for.
func TestLoadBoundsCapacityByPayload(t *testing.T) {
	var buf bytes.Buffer
	e := ckpt.NewEnc(&buf)
	e.Begin("clock")
	e.Int32(1 << 20) // k
	e.Int32(-1)      // root
	e.U8(0)          // mode
	e.Int32(0)       // nodes
	e.U64(0)         // rev
	e.End()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := loadSection(buf.Bytes())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("capacity beyond the payload: Load error %v, want ErrCorrupt", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("a %d-byte section made Load allocate %d bytes", buf.Len(), n)
	}
}

// choicesOf returns the fuzz input from which FuzzTreeClockLoad encodes
// exactly c (whose times and attachment times must be below 8).
func choicesOf(c *TreeClock) []byte {
	b := []byte{byte(c.k), byte(c.root + 1), byte(c.mode), byte(c.nodes), byte(c.rev)}
	for _, t := range c.clk {
		b = append(b, byte(t))
	}
	for _, s := range c.sh {
		b = append(b, byte(s.aclk), byte(s.par+2), byte(s.head+2), byte(s.nxt+2), byte(s.prv+2))
	}
	return b
}

// FuzzTreeClockLoad encodes fuzz-chosen fields into a CRC-valid
// section: a capacity up to 16, the root, mode, node count and
// revision, and every entry's times and links, each link anywhere in
// [-2, k). A mutated checkpoint fails its CRC before it reaches Load's
// own checks; this input reaches them. Load must not panic, and a
// clock it accepts must pass Validate, save back to the same bytes and
// join into a fresh thread clock in a pass that ends.
func FuzzTreeClockLoad(f *testing.F) {
	deep := New(4, nil)
	deep.Init(3)
	deep.Inc(3, 2)
	deep.Join(joinedClock())
	for _, c := range []*TreeClock{New(0, nil), New(2, nil), joinedClock(), deep} {
		f.Add(choicesOf(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzChoices{data: data}
		k := in.Intn(maxFuzzCap + 1)
		var buf bytes.Buffer
		e := ckpt.NewEnc(&buf)
		e.Begin("clock")
		e.Int32(int32(k))
		e.Int32(int32(in.Intn(k+1)) - 1) // root
		e.U8(uint8(in.Intn(4)))          // mode, one past the last
		e.Int32(int32(in.Intn(k + 1)))   // nodes
		e.U64(uint64(in.Intn(256)))      // rev
		for i := 0; i < k; i++ {
			e.Svarint(int64(in.Intn(8))) // clk
		}
		for i := 0; i < k; i++ {
			e.Svarint(int64(in.Intn(8))) // aclk
			for j := 0; j < 4; j++ {
				e.Int32(int32(in.Intn(k+2)) - 2) // par, head, nxt, prv
			}
		}
		e.End()
		c, err := loadSection(buf.Bytes())
		if err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("Load failed without ErrCorrupt: %v", err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid clock: %v\n%s", err, c)
		}
		if got := saveSection(c); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("accepted clock saves as %x, loaded from %x", got, buf.Bytes())
		}
		r := New(0, nil)
		r.Init(vt.TID(k)) // a thread the loaded clock cannot name
		r.Join(c)
		if err := r.Validate(); err != nil {
			t.Fatalf("join from the accepted clock: %v\n%s\nfrom\n%s", err, r, c)
		}
	})
}
