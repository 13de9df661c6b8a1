// Quickstart: parse a small execution trace, compute happens-before
// with tree clocks, and report data races.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"treeclock"
)

// A trace with one protected write, one protected read, and one
// unsynchronized write that races both.
const input = `
# thread  op  operand
main    acq  mu
main    w    balance
main    rel  mu
worker1 acq  mu
worker1 r    balance
worker1 rel  mu
worker2 w    balance
`

func main() {
	tr, err := treeclock.ParseTraceString(input)
	if err != nil {
		log.Fatalf("parse: %v", err)
	}
	if err := tr.Validate(); err != nil {
		log.Fatalf("invalid trace: %v", err)
	}
	stats := treeclock.ComputeTraceStats(tr)
	fmt.Printf("trace: %d events, %d threads, %d variables, %d locks\n",
		stats.Events, stats.Threads, stats.Vars, stats.Locks)

	// Replay the trace through the happens-before engine backed by tree
	// clocks; race detection (FastTrack-style) is on by default.
	res, err := treeclock.RunStreamSource("hb-tree", treeclock.NewTraceReplayer(tr))
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	sum := res.Summary
	fmt.Printf("races: %d total (%d w-w, %d w-r, %d r-w) on %d variable(s)\n",
		sum.Total, sum.WriteWrite, sum.WriteRead, sum.ReadWrite, sum.Vars)
	for _, race := range res.Samples {
		fmt.Println(" ", race)
	}

	// Each thread's final timestamp is its knowledge of every thread.
	for t, vec := range res.Timestamps {
		fmt.Printf("final clock of thread %d: %v\n", t, vec)
	}
}
