package treeclock_test

import (
	"bytes"
	"math/rand"
	"testing"

	"treeclock"
)

// ingestModes are the consumption strategies of the batched ingestion
// layer; every one must be observationally identical. The scalar mode
// hands RunStreamSource a scanner stripped of its batch methods, so
// the engine runtime drains it one event at a time.
var ingestModes = []struct {
	name   string
	scalar bool
	opts   []treeclock.StreamOption
}{
	{"scalar", true, nil},
	{"batch", false, nil},
	{"pipeline-2", false, []treeclock.StreamOption{treeclock.WithPipeline(2)}},
	{"pipeline-8", false, []treeclock.StreamOption{treeclock.WithPipeline(8)}},
}

// nextOnly hides a source's batch methods behind a plain EventSource.
type nextOnly struct{ src treeclock.EventSource }

func (s nextOnly) Next() (treeclock.Event, bool) { return s.src.Next() }
func (s nextOnly) Err() error                    { return s.src.Err() }

// ingest streams data (binary when bin is set) through engine, either
// per event (scalar) or through RunStream with opts.
func ingest(engine string, data []byte, bin, scalar bool, opts ...treeclock.StreamOption) (*treeclock.StreamResult, error) {
	if scalar {
		var src treeclock.EventSource = treeclock.NewTraceScanner(bytes.NewReader(data))
		if bin {
			src = treeclock.NewBinaryTraceScanner(bytes.NewReader(data))
		}
		return treeclock.RunStreamSource(engine, nextOnly{src}, opts...)
	}
	if bin {
		opts = append(opts[:len(opts):len(opts)], treeclock.StreamBinary())
	}
	return treeclock.RunStream(engine, bytes.NewReader(data), opts...)
}

// TestIngestPathsAgree is the differential acceptance test of the
// batched-ingestion layer: randomly generated traces, rendered to text
// and binary, must produce byte-identical race reports and identical
// metadata through the scalar, batched and pipelined paths, for every
// registry engine.
func TestIngestPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 6; trial++ {
		cfg := treeclock.GenConfig{
			Name:     "fuzz",
			Threads:  2 + rng.Intn(12),
			Locks:    1 + rng.Intn(8),
			Vars:     1 + rng.Intn(200),
			Events:   500 + rng.Intn(4000),
			Seed:     rng.Int63(),
			SyncFrac: rng.Float64() * 0.5,
			ReadFrac: rng.Float64(),
			HotFrac:  rng.Float64() * 0.2,
		}
		tr := treeclock.GenerateMixed(cfg)
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid trace: %v", trial, err)
		}
		var text, bin bytes.Buffer
		if err := treeclock.WriteTraceText(&text, tr); err != nil {
			t.Fatal(err)
		}
		if err := treeclock.WriteTraceBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		formats := []struct {
			name string
			data []byte
			bin  bool
		}{
			{"text", text.Bytes(), false},
			{"bin", bin.Bytes(), true},
		}
		for _, engine := range treeclock.Engines() {
			for _, f := range formats {
				var wantReport string
				var wantMeta treeclock.Meta
				var wantEvents uint64
				for i, mode := range ingestModes {
					res, err := ingest(engine, f.data, f.bin, mode.scalar, mode.opts...)
					if err != nil {
						t.Fatalf("trial %d %s/%s/%s: %v", trial, engine, f.name, mode.name, err)
					}
					report := raceReport(res.Summary, res.Samples)
					if i == 0 {
						wantReport, wantMeta, wantEvents = report, res.Meta, res.Events
						continue
					}
					if report != wantReport {
						t.Errorf("trial %d %s/%s: %s race report diverges from %s:\n%s\nvs\n%s",
							trial, engine, f.name, mode.name, ingestModes[0].name, report, wantReport)
					}
					if res.Meta != wantMeta || res.Events != wantEvents {
						t.Errorf("trial %d %s/%s: %s meta/events diverge: %+v/%d vs %+v/%d",
							trial, engine, f.name, mode.name, res.Meta, res.Events, wantMeta, wantEvents)
					}
				}
			}
		}
	}
}

// TestIngestMalformedThroughPipeline checks error reporting survives
// each consumption path (same error text, valid prefix processed).
func TestIngestMalformedThroughPipeline(t *testing.T) {
	input := []byte("t0 w x0\nt0 acq l0\nt0 oops x0\n")
	var want string
	for i, mode := range ingestModes {
		_, err := ingest("shb-tree", input, false, mode.scalar, mode.opts...)
		if err == nil {
			t.Fatalf("%s: malformed trace accepted", mode.name)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%s error = %q, want %q", mode.name, err.Error(), want)
		}
	}
}
