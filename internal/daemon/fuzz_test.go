package daemon

import (
	"bufio"
	"bytes"
	"testing"

	"treeclock"
)

// FuzzDaemonFrames fuzzes the decoders that parse network bytes:
// readFrame and the open, events, result, position and progress
// payloads. Every input goes through all six. None may panic, and whatever a decoder
// accepts must re-encode to exactly the bytes it consumed — a message
// has one accepted spelling, so no frame carries bytes the daemon
// silently ignores.
func FuzzDaemonFrames(f *testing.F) {
	tr := daemonTrace()
	open, err := encodeOpen(&openSpec{
		ID: "s-1.a_b", Engine: "wcp-tree", Workers: 3,
		SlotReclaim: true, SummaryCap: 7, Resume: true,
	})
	if err != nil {
		f.Fatal(err)
	}
	res, err := treeclock.RunStreamSource("wcp-tree", treeclock.NewTraceReplayer(tr))
	if err != nil {
		f.Fatal(err)
	}
	result, err := encodeResult(res)
	if err != nil {
		f.Fatal(err)
	}
	pos, err := encodePos(1234, "retained 9 bytes over budget 1")
	if err != nil {
		f.Fatal(err)
	}
	events := encodeEvents(nil, tr.Events[:64])
	var frame bytes.Buffer
	if err := writeFrame(bufio.NewWriter(&frame), frameEvents, events[:13]); err != nil {
		f.Fatal(err)
	}
	progress := encodeProgress(1234, 1<<20)
	for _, seed := range [][]byte{open, result, pos, events, frame.Bytes(), progress, nil} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if typ, payload, err := readFrame(bufio.NewReader(bytes.NewReader(data))); err == nil {
			var out bytes.Buffer
			if err := writeFrame(bufio.NewWriter(&out), typ, payload); err != nil {
				t.Fatalf("accepted frame %q does not re-encode: %v", typ, err)
			}
			if !bytes.HasPrefix(data, out.Bytes()) {
				t.Fatalf("frame re-encodes to %x, read from %x", out.Bytes(), data)
			}
		}
		if spec, err := decodeOpen(data); err == nil {
			out, err := encodeOpen(spec)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("open %+v re-encodes to %x (err %v), decoded from %x", spec, out, err, data)
			}
		}
		if evs, err := decodeEvents(data, nil); err == nil {
			if out := encodeEvents(nil, evs); !bytes.Equal(out, data) {
				t.Fatalf("events re-encode to %x, decoded from %x", out, data)
			}
		}
		if res, err := decodeResult(data); err == nil {
			out, err := encodeResult(res)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("result re-encodes to %x (err %v), decoded from %x", out, err, data)
			}
		}
		if p, reason, err := decodePos(data); err == nil {
			out, err := encodePos(p, reason)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("position re-encodes to %x (err %v), decoded from %x", out, err, data)
			}
		}
		if events, retained, err := decodeProgress(data); err == nil {
			if out := encodeProgress(events, retained); !bytes.Equal(out, data) {
				t.Fatalf("progress re-encodes to %x, decoded from %x", out, data)
			}
		}
	})
}
