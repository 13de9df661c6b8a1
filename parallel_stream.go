package treeclock

// Sharded (parallel) streaming analysis: RunStreamParallel is RunStream
// with the per-variable analysis partitioned across worker replicas.
// See internal/parallel for the transport and the design notes, and
// the package documentation's Architecture section for why the merged
// result is byte-identical to a sequential run.

import (
	"fmt"
	"io"
	"runtime"

	"treeclock/internal/trace"
)

// RunStreamParallel is RunStream with the analysis sharded across
// workers: variables partition across N full engine replicas by stable
// hash, every replica processes the complete event stream in trace
// order (sequenced by a coordinator through per-worker SPSC ring
// queues, so clock evolution is identical in every replica), and each
// variable's race checks run only on its owning worker. The merged
// result — counts, samples in trace order, timestamps, metadata — is
// byte-identical to the sequential run's; StreamResult.Mem sums the
// replicas' retained state (and so grows with the worker count:
// sharding trades replicated clock scaffolding for parallel analysis).
//
// The worker count comes from WithWorkers, defaulting to GOMAXPROCS.
// All other options mean what they mean on RunStream; WithPipeline is
// rarely worth it here — the coordinator already decodes concurrently
// with the workers.
func RunStreamParallel(engineName string, r io.Reader, opts ...StreamOption) (*StreamResult, error) {
	cfg := parallelConfig(opts)
	var src trace.EventSource
	switch cfg.format {
	case FormatText:
		src = trace.NewScanner(r)
	case FormatBinary:
		src = trace.NewBinaryScanner(r)
	default:
		return nil, fmt.Errorf("treeclock: unknown trace format %d", cfg.format)
	}
	return runStream(engineName, src, cfg)
}

// RunStreamParallelSource is RunStreamParallel over an already-
// constructed event source, the way RunStreamSource relates to
// RunStream. Format options are ignored (the source is already
// decoded).
func RunStreamParallelSource(engineName string, src EventSource, opts ...StreamOption) (*StreamResult, error) {
	return runStream(engineName, src, parallelConfig(opts))
}

// parallelConfig resolves options for the parallel entry points:
// workers defaults to GOMAXPROCS, and the parallel path is taken even
// at one worker (so "parallel with N=1" exercises the sharded runtime
// rather than silently falling back). The driving itself is Session's
// sharded pull path — these entry points carry no driver of their own.
func parallelConfig(opts []StreamOption) streamConfig {
	cfg := streamConfig{format: FormatText, analysis: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	cfg.forceParallel = true
	return cfg
}
