package treeclock

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treeclock/internal/ckpt"
	"treeclock/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestCheckpointGolden pins the checkpoint wire format: the bytes a
// fixed trace prefix checkpoints to must never change without a
// version bump (run with -update to regenerate after an intentional
// format change), and the committed golden must keep restoring into a
// run whose final report matches an uninterrupted one.
func TestCheckpointGolden(t *testing.T) {
	newSrc := goldenSource(t)

	// Checkpoint after every 512-event batch; keep the one at 1024.
	sink := newArchiveSink()
	if _, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate(), WithCheckpoint(512, sink)); err != nil {
		t.Fatal(err)
	}
	got, ok := sink.all[1024]
	if !ok {
		t.Fatalf("no checkpoint at event 1024 (have %v)", keysOf(sink.all))
	}

	path := goldenPath
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint bytes changed: %d bytes, golden %d bytes — format drift needs a version bump (or -update for an intentional change)",
			len(got), len(want))
	}

	// The committed bytes must still restore and finish identically.
	ref, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate(), ResumeFrom(bytes.NewReader(want)))
	if err != nil {
		t.Fatalf("restoring golden checkpoint: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Fatalf("golden resume diverged:\ngot  %+v\nwant %+v", res, ref)
	}
}

// goldenPath is the committed v2 checkpoint.
var goldenPath = filepath.Join("testdata", "checkpoint_v2.golden")

// goldenSource returns a source factory over the golden trace.
func goldenSource(t *testing.T) func() EventSource {
	t.Helper()
	tr := GenerateMixed(GenConfig{
		Name: "golden", Threads: 4, Locks: 3, Vars: 16,
		Events: 1500, SyncFrac: 0.3, Seed: 42,
	})
	var text bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	return func() EventSource { return trace.NewScanner(bytes.NewReader(text.Bytes())) }
}

// TestFlatWeakCheckpointRejected pins what happens to a v2 checkpoint
// whose config carries the retired flat weak-clock byte: restore fails
// with ErrFlatWeakCheckpoint, a named plain error, not corruption. The
// committed golden is re-encoded with its config byte set (false keeps
// it restoring, which checks the re-encoding itself).
func TestFlatWeakCheckpointRejected(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	newSrc := goldenSource(t)
	for _, flat := range []bool{false, true} {
		r := bytes.NewReader(golden)
		d := ckpt.NewDec(r)
		d.Header()
		d.Begin("config")
		name := d.String()
		d.Bool() // the flat weak-clock byte
		analysis, validate, shards, events := d.Bool(), d.Bool(), d.Int(), d.U64()
		reclaim, sumCap, internCap := d.Bool(), d.Int(), d.Int()
		d.End()
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		var data bytes.Buffer
		e := ckpt.NewEnc(&data)
		e.Header()
		e.Begin("config")
		e.String(name)
		e.Bool(flat)
		e.Bool(analysis)
		e.Bool(validate)
		e.Int(shards)
		e.U64(events)
		e.Bool(reclaim)
		e.Int(sumCap)
		e.Int(internCap)
		e.End()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		data.ReadFrom(r) // every later section, verbatim
		_, err := RunStreamSource("wcp-tree", newSrc(), StreamValidate(), ResumeFrom(&data))
		switch {
		case !flat && err != nil:
			t.Fatalf("re-encoded golden rejected: %v", err)
		case flat && !errors.Is(err, ErrFlatWeakCheckpoint):
			t.Fatalf("flat weak-clock checkpoint: err = %v, want ErrFlatWeakCheckpoint", err)
		case flat && errors.Is(err, ErrCorruptCheckpoint):
			t.Fatalf("flat weak-clock checkpoint misreported as corruption: %v", err)
		}
	}
}

// keysOf lists an archive sink's checkpoint boundaries for diagnostics.
func keysOf(m map[uint64][]byte) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
