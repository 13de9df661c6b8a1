package main

// The traced pass: after the timed reps, each engine runs once more
// through every layer the benchmark can reach from outside, with spans
// around the calls into each layer. Layer costs are then differences of
// spans and of whole passes:
//
//	trace    decode and validate NextBatch, drained without an engine
//	engine   a StreamNoAnalysis pass minus its source spans
//	core/vc  StreamWorkStats counters (TCWork, VCWork, VTWork)
//	analysis a full pass minus the StreamNoAnalysis pass, both without
//	         their source spans
//	ckpt     a pass WithCheckpoint to an in-memory sink minus the full pass
//	session  push-mode Session.Feed and Result spans
//	daemon   the loopback pass minus the Session pass, and the client's
//	         Feed and Finish spans
//
// Every pass also checks its result against the engine's reference.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"

	"treeclock"
	"treeclock/internal/trace"
)

// tracedChain is the workload's source with a span around every
// NextBatch: decode for the scanner and, for text, validate for the
// validator in front of it (StreamValidate's chain).
func (p *prepared) tracedChain(rec *recorder) trace.BatchSource {
	if p.w.path == pathText {
		dec := &tracedSource{inner: trace.NewScanner(bytes.NewReader(p.text)), rec: rec, name: spanDecode}
		return &tracedSource{inner: trace.NewValidator(dec), rec: rec, name: spanValidate}
	}
	return &tracedSource{inner: trace.NewBinaryScanner(bytes.NewReader(p.bin)), rec: rec, name: spanDecode}
}

// plainChain is the workload's source as its timed path decodes it.
func (p *prepared) plainChain() trace.BatchSource {
	if p.w.path == pathText {
		return trace.NewValidator(trace.NewScanner(bytes.NewReader(p.text)))
	}
	return trace.NewBinaryScanner(bytes.NewReader(p.bin))
}

// drain pulls every event from src without an engine.
func drain(src trace.BatchSource) error {
	buf := make([]trace.Event, trace.DefaultBatchSize)
	for {
		if _, ok := src.NextBatch(buf); !ok {
			return src.Err()
		}
	}
}

// mallocs returns the heap allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sourceLayer measures the trace layer alone: allocations of the
// workload's own source chain, and decode and validate self time of a
// traced validator-over-scanner chain, which every workload gets so the
// metrics exist everywhere.
func sourceLayer(p *prepared, rec *recorder, t *tally) (decodeNs, validateNs, allocs float64) {
	n := float64(p.tr.Len())
	runtime.GC()
	before := mallocs()
	t.op("drain "+p.w.name, drain(p.plainChain()))
	allocs = float64(mallocs()-before) / n

	var scanner trace.BatchSource
	if p.w.path == pathText {
		scanner = trace.NewScanner(bytes.NewReader(p.text))
	} else {
		scanner = trace.NewBinaryScanner(bytes.NewReader(p.bin))
	}
	dec := &tracedSource{inner: scanner, rec: rec, name: spanDecode}
	val := &tracedSource{inner: trace.NewValidator(dec), rec: rec, name: spanValidate}
	runtime.GC()
	root := rec.beginRoot(p.w.name + "/source/drain")
	err := drain(val)
	rec.end(root)
	t.op("traced drain "+p.w.name, err)
	_, decodeSelf := rec.totals(root, spanDecode)
	_, validateSelf := rec.totals(root, spanValidate)
	return float64(decodeSelf) / n, float64(validateSelf) / n, allocs
}

// tracedPass runs every engine through every layer once and returns the
// per-layer metrics. ref holds each engine's result on the workload's
// own source, decoded its result on the decoded trace, and e2e the
// untraced throughput, for the tracing overhead.
func tracedPass(p *prepared, cfg config, ref, decoded map[string]*treeclock.StreamResult, e2e map[string]metric, t *tally) (map[string]metric, error) {
	rec := cfg.rec
	n := float64(p.tr.Len())
	out := make(map[string]metric)
	put := func(name, unit string, v float64) { out[name] = metric{Value: finite(v), Unit: unit} }

	d := p.d
	if d == nil {
		var err error
		if d, err = startLoopback(cfg.dir); err != nil {
			return nil, err
		}
		defer d.close()
	}

	decodeNs, validateNs, decodeAllocs := sourceLayer(p, rec, t)
	put("trace.decode_ns_per_event", "ns/event", decodeNs)
	put("trace.validate_ns_per_event", "ns/event", validateNs)
	put("trace.decode_allocs_per_event", "allocs/event", decodeAllocs)

	// A checkpoint about every tenth of the trace, at most every 100k
	// events, so every workload writes several.
	every := uint64(min(100_000, max(1, p.tr.Len()/10)))
	engineNs := make(map[string]float64)
	work := make(map[string]treeclock.WorkStats)
	var untraced, traced float64 // seconds over all engines, timed path only
	for _, e := range engines {
		label := func(pass string) string { return p.w.name + "/" + e + "/" + pass }
		pass := func(name string, fn func() (*treeclock.StreamResult, error)) (int32, *treeclock.StreamResult, error) {
			runtime.GC()
			root := rec.beginRoot(label(name))
			res, err := fn()
			rec.end(root)
			return root, res, err
		}

		full, res, err := pass("full", func() (*treeclock.StreamResult, error) {
			return treeclock.RunStreamSource(e, p.tracedChain(rec))
		})
		t.op("traced full "+e, checkRun(res, err, ref[e]))

		before := mallocs()
		noan, res, err := pass("noanalysis", func() (*treeclock.StreamResult, error) {
			return treeclock.RunStreamSource(e, p.tracedChain(rec), treeclock.StreamNoAnalysis())
		})
		noanAllocs := float64(mallocs() - before)
		if err == nil && ref[e] != nil {
			// Without analysis the clocks evolve the same, but no race is
			// reported.
			want := *ref[e]
			want.Summary = treeclock.RaceSummary{}
			err = sameResult(res, &want)
		}
		t.op("traced noanalysis "+e, err)

		sink := &memSink{rec: rec}
		ck, res, err := pass("ckpt", func() (*treeclock.StreamResult, error) {
			return treeclock.RunStreamSource(e, p.tracedChain(rec), treeclock.WithCheckpoint(every, sink))
		})
		t.op("traced ckpt "+e, checkRun(res, err, ref[e]))

		sess, res, err := pass("session", func() (*treeclock.StreamResult, error) {
			return pushSession(e, p.tr.Events, rec)
		})
		t.op("traced session "+e, checkRun(res, err, decoded[e]))

		loop, res, err := pass("daemon", func() (*treeclock.StreamResult, error) {
			return d.run(e, treeclock.NewTraceReplayer(p.tr), rec)
		})
		t.op("traced daemon "+e, checkRun(res, err, decoded[e]))

		var ws treeclock.WorkStats
		res, err = treeclock.RunStreamSource(e, treeclock.NewTraceReplayer(p.tr), treeclock.StreamNoAnalysis(), treeclock.StreamWorkStats(&ws))
		if err == nil && decoded[e] != nil {
			want := *decoded[e]
			want.Summary = treeclock.RaceSummary{}
			err = sameResult(res, &want)
		}
		if err == nil && strings.HasSuffix(e, "-tree") && ws.Entries > 3*ws.Changed {
			err = fmt.Errorf("Theorem 1 violated: TCWork %d > 3 x VTWork %d", ws.Entries, ws.Changed)
		}
		t.op("work stats "+e, err)
		work[e] = ws

		fullEngine := float64(rec.rootDur(full) - rec.sourceDur(full))
		noanEngine := float64(rec.rootDur(noan) - rec.sourceDur(noan))
		engineNs[e] = noanEngine / n
		put("engine.ns_per_event."+e, "ns/event", noanEngine/n)
		put("engine.allocs_per_event."+e, "allocs/event", noanAllocs/n-decodeAllocs)
		put("analysis.ns_per_event."+e, "ns/event", (fullEngine-noanEngine)/n)
		put("ckpt.ns_per_event."+e, "ns/event", float64(rec.rootDur(ck)-rec.rootDur(full))/n)
		put("ckpt.bytes."+e, "B", float64(sink.bytes)/float64(max(sink.count, 1)))
		feed, _ := rec.totals(sess, spanFeed)
		result, _ := rec.totals(sess, spanFinish)
		put("session.feed_ns_per_event."+e, "ns/event", float64(feed)/n)
		put("session.result_ms."+e, "ms", float64(result)/1e6)
		feed, _ = rec.totals(loop, spanFeed)
		finish, _ := rec.totals(loop, spanFinish)
		put("daemon.wire_ns_per_event."+e, "ns/event", float64(rec.rootDur(loop)-rec.rootDur(sess))/n)
		put("daemon.client_feed_ns_per_event."+e, "ns/event", float64(feed)/n)
		put("daemon.finish_ms."+e, "ms", float64(finish)/1e6)

		if m := e2e["eps."+e]; m.Value > 0 {
			untraced += n / m.Value
			if p.w.path == pathDaemon {
				traced += float64(rec.rootDur(loop)) / 1e9
			} else {
				traced += float64(rec.rootDur(full)) / 1e9
			}
		}
	}

	for _, o := range orders {
		tree, vc := work[o+"-tree"], work[o+"-vc"]
		if tree.Changed != vc.Changed {
			t.op("work stats "+o, fmt.Errorf("VTWork differs: tree %d, vc %d", tree.Changed, vc.Changed))
		}
		put("core.entries_per_event."+o, "entries/event", float64(tree.Entries)/n)
		put("core.changed_per_event."+o, "entries/event", float64(tree.Changed)/n)
		put("core.work_ratio."+o, "ratio", float64(tree.Entries)/float64(tree.Changed))
		put("core.deep_copies_per_mevent."+o, "copies/Mevent", float64(tree.DeepCopies)/n*1e6)
		put("core.ns_per_entry."+o, "ns/entry", engineNs[o+"-tree"]/(float64(tree.Entries)/n))
		put("vc.entries_per_event."+o, "entries/event", float64(vc.Entries)/n)
		put("vc.changed_per_event."+o, "entries/event", float64(vc.Changed)/n)
		put("vc.ns_per_entry."+o, "ns/entry", engineNs[o+"-vc"]/(float64(vc.Entries)/n))
	}
	put("bench.trace_overhead", "ratio", untraced/traced)
	return out, nil
}

// finite guards the JSON encoding, which cannot carry NaN or Inf.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
