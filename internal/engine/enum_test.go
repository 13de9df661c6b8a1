package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"treeclock/internal/core"
	"treeclock/internal/oracle"
	"treeclock/internal/trace"
	"treeclock/internal/vt"
)

// smallAlphabet returns every event over threads threads, one lock and
// one variable: each thread's read, write, acquire and release, and its
// fork and join of every other thread.
func smallAlphabet(threads int) []trace.Event {
	var out []trace.Event
	for u := vt.TID(0); int(u) < threads; u++ {
		for _, k := range []trace.Kind{trace.Read, trace.Write, trace.Acquire, trace.Release} {
			out = append(out, trace.Event{T: u, Obj: 0, Kind: k})
		}
		for w := int32(0); int(w) < threads; w++ {
			if w != int32(u) {
				out = append(out,
					trace.Event{T: u, Obj: w, Kind: trace.Fork},
					trace.Event{T: u, Obj: w, Kind: trace.Join})
			}
		}
	}
	return out
}

// TestSmallTracesAgainstOracle checks every well-formed trace of one
// to four events over three threads, one lock and one variable (61,548
// traces) against the definition-level oracle: per-event timestamps
// and race sets for HB, SHB, MAZ and WCP, with tree clocks. The
// generators never produce some of these shapes; the enumeration
// leaves none out. Well-formedness is prefix-closed, so the walk
// extends only valid prefixes. Short mode stops at three events.
//
// The vector clock is left out: on a join of a forked thread that has
// not acted yet it diverges from the oracle (ROADMAP, item 3b).
func TestSmallTracesAgainstOracle(t *testing.T) {
	const threads = 3
	maxLen, want := 4, 61548
	if testing.Short() {
		maxLen, want = 3, 5085
	}
	alphabet := smallAlphabet(threads)
	meta := trace.Meta{Threads: threads, Locks: 1, Vars: 1}
	n := 0
	var walk func(evs []trace.Event)
	walk = func(evs []trace.Event) {
		tr := &trace.Trace{Meta: meta, Events: evs}
		if tr.Validate() != nil {
			return
		}
		if len(evs) > 0 {
			n++
			name := make([]string, len(evs))
			for i, e := range evs {
				name[i] = e.String()
			}
			tr.Meta.Name = fmt.Sprintf("[%s]", strings.Join(name, " / "))
			for _, po := range oracleOrders {
				res := oracle.Timestamps(tr, po)
				acc := runOrder(t, tr, po, core.Factory(nil), res, "tree")
				checkRaceSets(t, tr, po, res, acc)
			}
		}
		if len(evs) < maxLen {
			for _, e := range alphabet {
				walk(append(evs, e))
			}
		}
	}
	walk(make([]trace.Event, 0, maxLen))
	if n != want {
		t.Errorf("enumerated %d well-formed traces of 1 to %d events, want %d", n, maxLen, want)
	}
}
