package treeclock

import "testing"

// TestAutoPipelineSelection pins the decode-mode default (ROADMAP:
// WithPipeline becomes the default for text input when GOMAXPROCS > 1):
// the auto depth engages exactly for unsharded text input on a
// multi-core host, and an explicit WithPipeline choice
// is never overridden (RunStream skips autoPipelineDepth entirely when
// pipelineSet).
func TestAutoPipelineSelection(t *testing.T) {
	base := newConfig(nil)
	cases := []struct {
		name     string
		mutate   func(*streamConfig)
		maxprocs int
		want     int
	}{
		{"text multicore", func(c *streamConfig) {}, 4, defaultPipelineDepth},
		{"text dualcore", func(c *streamConfig) {}, 2, defaultPipelineDepth},
		{"text unicore", func(c *streamConfig) {}, 1, 0},
		{"binary multicore", func(c *streamConfig) { c.binary = true }, 4, 0},
		{"workers coordinate decode", func(c *streamConfig) { c.workers = 4 }, 4, 0},
		{"one worker still shards", func(c *streamConfig) { c.workers = 1 }, 4, 0},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if got := autoPipelineDepth(&cfg, tc.maxprocs); got != tc.want {
			t.Errorf("%s: autoPipelineDepth = %d, want %d", tc.name, got, tc.want)
		}
	}
	// The option plumbing: WithPipeline marks the config so RunStream
	// can tell "explicit" from "default".
	cfg := base
	WithPipeline(6)(&cfg)
	if !cfg.pipelineSet || cfg.pipeline != 6 {
		t.Errorf("WithPipeline(6) left cfg %+v", cfg)
	}
	cfg = base
	WithPipeline(0)(&cfg)
	if !cfg.pipelineSet || cfg.pipeline != 0 {
		t.Errorf("WithPipeline(0) must mark an explicit synchronous choice, got %+v", cfg)
	}
}
