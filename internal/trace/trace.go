// Package trace models concurrent execution traces: sequences of
// read/write/acquire/release events (plus fork/join as an extension)
// performed by threads, exactly as in §2.1 of the paper. It provides an
// in-memory representation with dense identifier spaces, well-formedness
// validation (lock semantics), per-trace statistics matching the paper's
// Tables 1 and 3, and text and binary serialization.
//
// # Streaming and batched ingestion
//
// Events stream through the EventSource interface: the text Scanner (a
// byte-level tokenizer over one reused read buffer — zero allocations
// per event in steady state), the BinaryScanner, the discipline-checking
// Validator and the in-memory Replayer all implement it. Each also
// implements BatchSource, delivering events in bulk into a caller-owned
// buffer so per-event interface dispatch amortizes away; the engine
// runtime consumes batches automatically. Sources decode on the
// goroutine that reads them; a streaming session overlaps that
// decoding with analysis by handing each batch to a worker goroutine.
package trace

import (
	"fmt"

	"treeclock/internal/vt"
)

// Kind enumerates event operations.
type Kind uint8

const (
	// Read is op = r(x): the event reads global variable x.
	Read Kind = iota
	// Write is op = w(x): the event writes global variable x.
	Write
	// Acquire is op = acq(ℓ): the event acquires lock ℓ.
	Acquire
	// Release is op = rel(ℓ): the event releases lock ℓ.
	Release
	// Fork starts a new thread (extension; the paper's §2.1 notes
	// handling fork/join is straightforward). Obj is the child TID.
	Fork
	// Join waits for a thread to finish. Obj is the joined TID.
	Join
	numKinds
)

// String returns the operation mnemonic used by the text format.
func (k Kind) String() string {
	switch k {
	case Read:
		return "r"
	case Write:
		return "w"
	case Acquire:
		return "acq"
	case Release:
		return "rel"
	case Fork:
		return "fork"
	case Join:
		return "join"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsAccess reports whether the kind reads or writes a variable.
func (k Kind) IsAccess() bool { return k == Read || k == Write }

// IsSync reports whether the kind is a lock synchronization operation.
func (k Kind) IsSync() bool { return k == Acquire || k == Release }

// Event is one step of a trace: thread T performs operation Kind on
// operand Obj. Obj indexes the variable space for accesses, the lock
// space for acquire/release, and the thread space for fork/join.
type Event struct {
	T    vt.TID
	Obj  int32
	Kind Kind
}

// String renders the event in the text-format syntax.
func (e Event) String() string {
	switch e.Kind {
	case Read, Write:
		return fmt.Sprintf("t%d %s x%d", e.T, e.Kind, e.Obj)
	case Acquire, Release:
		return fmt.Sprintf("t%d %s l%d", e.T, e.Kind, e.Obj)
	case Fork, Join:
		return fmt.Sprintf("t%d %s t%d", e.T, e.Kind, e.Obj)
	default:
		return fmt.Sprintf("t%d %s %d", e.T, e.Kind, e.Obj)
	}
}

// Meta describes the identifier spaces of a trace. Identifiers are
// dense: threads are 0..Threads-1, and so on.
type Meta struct {
	Name    string
	Threads int
	Locks   int
	Vars    int
}

// Trace is a fully materialized execution trace.
type Trace struct {
	Meta   Meta
	Events []Event
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.Events) }

// Conflicting reports whether two events conflict (§2.1): same
// variable, different threads, at least one write.
func Conflicting(a, b Event) bool {
	return a.Kind.IsAccess() && b.Kind.IsAccess() &&
		a.Obj == b.Obj && a.T != b.T &&
		(a.Kind == Write || b.Kind == Write)
}

// LocalTimes returns, for each event index, the event's local time
// lTime (1-based position within its thread).
func (tr *Trace) LocalTimes() []vt.Time {
	lt := make([]vt.Time, len(tr.Events))
	count := make([]vt.Time, tr.Meta.Threads)
	for i, e := range tr.Events {
		count[e.T]++
		lt[i] = count[e.T]
	}
	return lt
}

// Validate checks trace well-formedness and returns a descriptive error
// for the first violation: identifiers within the Meta ranges, then the
// streaming Validator's lock and fork/join discipline rules.
func (tr *Trace) Validate() error {
	var v Validator
	for i, e := range tr.Events {
		if e.T < 0 || int(e.T) >= tr.Meta.Threads {
			return fmt.Errorf("event %d (%v): thread out of range [0,%d)", i, e, tr.Meta.Threads)
		}
		switch e.Kind {
		case Read, Write:
			if e.Obj < 0 || int(e.Obj) >= tr.Meta.Vars {
				return fmt.Errorf("event %d (%v): variable out of range [0,%d)", i, e, tr.Meta.Vars)
			}
		case Acquire, Release:
			if e.Obj < 0 || int(e.Obj) >= tr.Meta.Locks {
				return fmt.Errorf("event %d (%v): lock out of range [0,%d)", i, e, tr.Meta.Locks)
			}
		case Fork, Join:
			if e.Obj < 0 || int(e.Obj) >= tr.Meta.Threads {
				return fmt.Errorf("event %d (%v): thread operand out of range [0,%d)", i, e, tr.Meta.Threads)
			}
		}
		v.idx = uint64(i)
		if err := v.check(e); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a trace in the paper's Table 1/Table 3 terms.
type Stats struct {
	Name    string
	Events  int     // N
	Threads int     // T: threads that actually appear
	Vars    int     // M: memory locations that actually appear
	Locks   int     // L: locks that actually appear
	SyncPct float64 // share of acq/rel events, in percent
	RWPct   float64 // share of read/write events, in percent
	Reads   int
	Writes  int
}

// ComputeStats scans the trace once and reports its statistics. Counts
// reflect identifiers that actually occur, not the Meta capacity.
func ComputeStats(tr *Trace) Stats {
	s := Stats{Name: tr.Meta.Name, Events: len(tr.Events)}
	threads := make([]bool, tr.Meta.Threads)
	vars := make([]bool, tr.Meta.Vars)
	locks := make([]bool, tr.Meta.Locks)
	sync := 0
	for _, e := range tr.Events {
		threads[e.T] = true
		switch e.Kind {
		case Read:
			s.Reads++
			vars[e.Obj] = true
		case Write:
			s.Writes++
			vars[e.Obj] = true
		case Acquire, Release:
			sync++
			locks[e.Obj] = true
		case Fork, Join:
			threads[e.Obj] = true
		}
	}
	for _, b := range threads {
		if b {
			s.Threads++
		}
	}
	for _, b := range vars {
		if b {
			s.Vars++
		}
	}
	for _, b := range locks {
		if b {
			s.Locks++
		}
	}
	if s.Events > 0 {
		s.SyncPct = 100 * float64(sync) / float64(s.Events)
		s.RWPct = 100 * float64(s.Reads+s.Writes) / float64(s.Events)
	}
	return s
}

// LockStat summarizes one lock's usage in a trace.
type LockStat struct {
	Lock     int32
	Acquires int
	Releases int
	// Holder is the thread left holding the lock at the end of the
	// trace, or vt.None. An unreleased-but-balanced lock cannot occur
	// in a well-formed trace, so Holder != vt.None implies Unbalanced
	// there; on malformed traces the two are reported independently.
	Holder vt.TID
}

// Unbalanced reports whether the acquire and release counts differ —
// either a critical section left open at the end of the trace or, on
// malformed input, stray releases.
func (ls LockStat) Unbalanced() bool { return ls.Acquires != ls.Releases }

// ComputeLockStats scans the trace once and reports per-lock
// acquire/release counts for every lock that actually occurs, in lock
// id order. Unlike Validate it never fails: it is the inspection tool
// for traces whose lock discipline is in question.
func ComputeLockStats(tr *Trace) []LockStat {
	n := tr.Meta.Locks
	for _, e := range tr.Events {
		if e.Kind.IsSync() && int(e.Obj) >= n {
			n = int(e.Obj) + 1
		}
	}
	acq := make([]int, n)
	rel := make([]int, n)
	holder := make([]vt.TID, n)
	for i := range holder {
		holder[i] = vt.None
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case Acquire:
			acq[e.Obj]++
			holder[e.Obj] = e.T
		case Release:
			rel[e.Obj]++
			holder[e.Obj] = vt.None
		}
	}
	var out []LockStat
	for l := 0; l < n; l++ {
		if acq[l] == 0 && rel[l] == 0 {
			continue
		}
		out = append(out, LockStat{Lock: int32(l), Acquires: acq[l], Releases: rel[l], Holder: holder[l]})
	}
	return out
}
