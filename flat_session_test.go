package treeclock

// The flat weak-clock oracle behind the session drivers. The registry
// builds the "wcp-*" engines on the sparse weak-clock transport only;
// the Θ(threads) flat transport is no option. openFlat still runs it
// through a real Session — validation, the sequential and sharded
// drivers, checkpoint/resume, push mode and result assembly — so the
// crash and push/pull matrices keep their flat cells.

import (
	"fmt"

	"treeclock/internal/core"
	"treeclock/internal/engine"
	"treeclock/internal/parallel"
	"treeclock/internal/vc"
	"treeclock/internal/vt"
	"treeclock/internal/wcp"
)

// openFlat is Open for a "wcp-*" engine with every replica swapped,
// before anything drives the session, for one on the flat weak-clock
// transport. The replicas are wired as newStreamEngine wires the
// sparse ones: summary cap, analysis and, when sharded, the variable
// shard with trace positions. WithSlotReclaim and StreamWorkStats are
// not wired; the matrices that use openFlat set neither.
func openFlat(engineName string, opts ...StreamOption) (*Session, error) {
	s, err := Open(engineName, opts...)
	if err != nil {
		return nil, err
	}
	if s.info.Order != "wcp" {
		s.Close()
		return nil, fmt.Errorf("openFlat: %q is not a wcp engine", engineName)
	}
	for w := range s.engines {
		var owns func(int32) bool
		if s.parallel && s.cfg.analysis {
			owns = parallel.Owns(w, len(s.engines))
		}
		if s.info.Clock == "tree" {
			s.engines[w] = newFlatWCPEngine(core.Factory(nil), &s.cfg, owns)
		} else {
			s.engines[w] = newFlatWCPEngine(vc.Factory(nil), &s.cfg, owns)
		}
	}
	return s, nil
}

// runFlatSource is RunStreamSource over openFlat.
func runFlatSource(engineName string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
	s, err := openFlat(engineName, opts...)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Run(src)
}

// newFlatWCPEngine builds one flat-transport WCP replica over clock
// type C.
func newFlatWCPEngine[C vt.Clock[C]](f vt.Factory[C], cfg *streamConfig, owns func(int32) bool) streamEngine {
	sem := wcp.NewSemanticsFlat[C]()
	sem.SetSummaryCap(cfg.summaryCap)
	rt := engine.New[C](sem, f)
	e := &runtimeAdapter[C]{rt: rt, timestamp: func(t vt.TID, dst vt.Vector) vt.Vector {
		return sem.Timestamp(t, rt.ThreadClock(t).Get(t), dst)
	}}
	if cfg.analysis {
		e.acc = rt.EnableAnalysis()
		if owns != nil {
			e.acc.SetShard(owns)
			e.acc.TrackPositions()
		}
	}
	return e
}
