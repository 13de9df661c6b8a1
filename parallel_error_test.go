package treeclock

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestParallelDecodeError pins the mid-stream failure contract of the
// sharded runtime: a decode or validation error part-way through the
// trace propagates to the caller, the workers drain and exit, and the
// partial result still carries the merged per-shard MemStats.
func TestParallelDecodeError(t *testing.T) {
	// 12k valid events (with lock activity, so the WCP plugin retains
	// history) before the fault.
	var pb bytes.Buffer
	for i := 0; i < 2_000; i++ {
		pb.WriteString("t0 acq l\nt0 w x\nt0 rel l\nt1 acq l\nt1 w x\nt1 rel l\n")
	}
	prefix := pb.Bytes()
	cases := []struct {
		name    string
		garbage string
		wantErr string
	}{
		{"malformed line", "t0 frobnicate x\n", "unknown operation"},
		{"bad syntax", "not a trace line\n", "want \"<thread> <op> <operand>\""},
		{"validation failure", "t0 acq l\nt0 acq l\n", "already held"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var text bytes.Buffer
			text.Write(prefix)
			text.WriteString(tc.garbage)
			text.Write(cancelTrace(5_000)) // never reached

			base := runtime.NumGoroutine()
			res, err := RunStream("wcp-tree", bytes.NewReader(text.Bytes()),
				StreamValidate(), WithWorkers(2))
			if err == nil {
				t.Fatal("mid-stream fault produced no error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("decode error misclassified as corrupt checkpoint: %v", err)
			}
			if res == nil {
				t.Fatal("no partial result")
			}
			if res.Events == 0 || res.Events > 12_002 {
				t.Fatalf("partial result covers %d events, want within (0, 12002]", res.Events)
			}
			if res.Mem == nil {
				t.Fatal("partial result missing merged MemStats")
			}
			if res.Mem.HistEntries == 0 || res.Mem.RetainedBytes == 0 {
				t.Fatalf("merged MemStats empty after 12k processed events: %+v", *res.Mem)
			}
			checkGoroutines(t, base)
		})
	}
}
