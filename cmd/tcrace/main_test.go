package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"treeclock/internal/daemon"
)

// writeTrace drops a trace file into a temp dir and returns its path.
func writeTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	cleanTrace = "t0 acq l\nt0 w x\nt0 rel l\nt1 acq l\nt1 w x\nt1 rel l\n"
	racyTrace  = "t0 w x\nt1 w x\n"
)

// runCmd invokes the factored command entry and returns its exit code
// plus the captured output streams.
func runCmd(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, strings.NewReader(stdin), &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// TestExitCodes pins the documented exit-code contract: 0 clean,
// 1 races, 2 usage/I-O, 3 corrupt checkpoint (4, remote eviction, is
// pinned by TestRemoteEvictResume).
func TestExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		code, out, _ := runCmd(t, cleanTrace)
		if code != exitClean {
			t.Fatalf("clean trace: exit %d, want %d", code, exitClean)
		}
		if !strings.Contains(out, "0 concurrent conflicting pairs") {
			t.Fatalf("clean trace output:\n%s", out)
		}
	})
	t.Run("races", func(t *testing.T) {
		code, out, _ := runCmd(t, racyTrace)
		if code != exitRaces {
			t.Fatalf("racy trace: exit %d, want %d", code, exitRaces)
		}
		if !strings.Contains(out, "1 concurrent conflicting pairs") {
			t.Fatalf("racy trace output:\n%s", out)
		}
	})
	t.Run("bad flag", func(t *testing.T) {
		code, _, errOut := runCmd(t, "", "-no-such-flag")
		if code != exitUsage {
			t.Fatalf("bad flag: exit %d, want %d", code, exitUsage)
		}
		if !strings.Contains(errOut, "usage: tcrace") {
			t.Fatalf("bad flag stderr:\n%s", errOut)
		}
	})
	t.Run("unknown engine", func(t *testing.T) {
		if code, _, _ := runCmd(t, cleanTrace, "-engine", "nope"); code != exitUsage {
			t.Fatalf("unknown engine: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("unknown clock", func(t *testing.T) {
		if code, _, _ := runCmd(t, cleanTrace, "-clock", "sundial"); code != exitUsage {
			t.Fatalf("unknown clock: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("unknown format", func(t *testing.T) {
		if code, _, _ := runCmd(t, cleanTrace, "-format", "xml"); code != exitUsage {
			t.Fatalf("unknown format: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("negative workers", func(t *testing.T) {
		if code, _, _ := runCmd(t, cleanTrace, "-workers", "-1"); code != exitUsage {
			t.Fatalf("negative workers: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("missing trace file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nope.txt")
		if code, _, _ := runCmd(t, "", path); code != exitUsage {
			t.Fatalf("missing trace file: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("malformed trace", func(t *testing.T) {
		code, _, errOut := runCmd(t, "t0 frobnicate x\n")
		if code != exitUsage {
			t.Fatalf("malformed trace: exit %d, want %d", code, exitUsage)
		}
		if !strings.Contains(errOut, "tcrace:") {
			t.Fatalf("malformed trace stderr:\n%s", errOut)
		}
	})
	t.Run("invalid trace", func(t *testing.T) {
		// Double acquire: the streaming validator rejects it.
		if code, _, _ := runCmd(t, "t0 acq l\nt1 acq l\n"); code != exitUsage {
			t.Fatalf("invalid trace: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("missing resume file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nope.ckpt")
		if code, _, _ := runCmd(t, cleanTrace, "-resume", path); code != exitUsage {
			t.Fatalf("missing resume file: exit %d, want %d", code, exitUsage)
		}
	})
	t.Run("corrupt checkpoint", func(t *testing.T) {
		ckpt := writeTrace(t, "bad.ckpt", "this is not a checkpoint")
		code, _, errOut := runCmd(t, cleanTrace, "-resume", ckpt)
		if code != exitCorrupt {
			t.Fatalf("corrupt checkpoint: exit %d, want %d (stderr: %s)", code, exitCorrupt, errOut)
		}
		if !strings.Contains(errOut, "tcrace:") {
			t.Fatalf("corrupt checkpoint stderr:\n%s", errOut)
		}
	})
	t.Run("truncated checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		trace := filepath.Join(dir, "t.txt")
		if err := os.WriteFile(trace, []byte(racyTrace), 0o644); err != nil {
			t.Fatal(err)
		}
		ck := filepath.Join(dir, "run.ckpt")
		if code, _, errOut := runCmd(t, "", "-checkpoint", ck, "-checkpoint-every", "1", trace); code != exitRaces {
			t.Fatalf("checkpointed run: exit %d (stderr: %s)", code, errOut)
		}
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ck, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, _ := runCmd(t, "", "-resume", ck, trace); code != exitCorrupt {
			t.Fatalf("truncated checkpoint: exit %d, want %d", code, exitCorrupt)
		}
	})
	t.Run("resume config mismatch", func(t *testing.T) {
		dir := t.TempDir()
		trace := filepath.Join(dir, "t.txt")
		if err := os.WriteFile(trace, []byte(racyTrace), 0o644); err != nil {
			t.Fatal(err)
		}
		ck := filepath.Join(dir, "run.ckpt")
		if code, _, _ := runCmd(t, "", "-checkpoint", ck, "-checkpoint-every", "1", trace); code != exitRaces {
			t.Fatal("checkpointed run failed")
		}
		// Wrong engine for the checkpoint: a usage error, not corruption.
		if code, _, _ := runCmd(t, "", "-engine", "shb-tree", "-resume", ck, trace); code != exitUsage {
			t.Fatalf("mismatched resume: exit %d, want %d", code, exitUsage)
		}
	})
}

// TestHelpDocumentsExitCodes pins that -h exits 0 and prints the
// exit-code contract on stdout.
func TestHelpDocumentsExitCodes(t *testing.T) {
	code, out, errOut := runCmd(t, "", "-h")
	if code != exitClean {
		t.Fatalf("-h: exit %d, want %d", code, exitClean)
	}
	if errOut != "" {
		t.Fatalf("-h wrote to stderr:\n%s", errOut)
	}
	for _, want := range []string{
		"usage: tcrace",
		"Exit codes:",
		"0  analysis completed, no races detected",
		"1  analysis completed, races detected",
		"2  usage or I/O error (bad flags, unreadable input, malformed trace)",
		"3  corrupt or truncated checkpoint (-resume)",
		"4  remote session evicted over budget (-remote; resume with -resume-session)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-h output missing %q:\n%s", want, out)
		}
	}
}

// TestList pins that -list exits 0 and names the registry engines.
func TestList(t *testing.T) {
	code, out, _ := runCmd(t, "", "-list")
	if code != exitClean {
		t.Fatalf("-list: exit %d, want %d", code, exitClean)
	}
	for _, name := range []string{"hb-tree", "hb-vc", "shb-tree", "wcp-vc"} {
		if !strings.Contains(out, name) {
			t.Fatalf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestCheckpointResumeCLI runs a checkpointed analysis, then resumes
// from the written checkpoint and checks both runs report the same
// races.
func TestCheckpointResumeCLI(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.txt")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(racyTrace)
	}
	if err := os.WriteFile(trace, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, ref, _ := runCmd(t, "", trace)
	if code != exitRaces {
		t.Fatalf("reference run: exit %d", code)
	}
	ck := filepath.Join(dir, "run.ckpt")
	if code, _, errOut := runCmd(t, "", "-checkpoint", ck, "-checkpoint-every", "64", trace); code != exitRaces {
		t.Fatalf("checkpointed run: exit %d (stderr: %s)", code, errOut)
	}
	code, out, errOut := runCmd(t, "", "-resume", ck, trace)
	if code != exitRaces {
		t.Fatalf("resumed run: exit %d (stderr: %s)", code, errOut)
	}
	// Reports match except the timing line (elapsed differs by nature).
	if got, want := stripTiming(out), stripTiming(ref); got != want {
		t.Fatalf("resumed report differs:\n--- resumed\n%s--- reference\n%s", got, want)
	}
}

// TestResumeAndCheckpointSamePath resumes from a checkpoint while
// writing new checkpoints to the same file — the natural way to
// continue a long run crash-safely. The restore must read the old
// bytes in full before the sink's first temp+rename replaces them,
// and the resumed report must still match an uninterrupted run.
func TestResumeAndCheckpointSamePath(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.txt")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(racyTrace)
	}
	if err := os.WriteFile(trace, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, ref, _ := runCmd(t, "", trace)
	if code != exitRaces {
		t.Fatalf("reference run: exit %d", code)
	}
	ck := filepath.Join(dir, "run.ckpt")
	if code, _, errOut := runCmd(t, "", "-checkpoint", ck, "-checkpoint-every", "64", trace); code != exitRaces {
		t.Fatalf("checkpointed run: exit %d (stderr: %s)", code, errOut)
	}
	// Resume and checkpoint through the same path; the tight interval
	// forces many rewrites of the file being resumed from.
	code, out, errOut := runCmd(t, "", "-resume", ck, "-checkpoint", ck, "-checkpoint-every", "16", trace)
	if code != exitRaces {
		t.Fatalf("same-path resume: exit %d (stderr: %s)", code, errOut)
	}
	if got, want := stripTiming(out), stripTiming(ref); got != want {
		t.Fatalf("same-path resumed report differs:\n--- resumed\n%s--- reference\n%s", got, want)
	}
	// The rewritten checkpoint must itself be resumable.
	code, out, errOut = runCmd(t, "", "-resume", ck, trace)
	if code != exitRaces {
		t.Fatalf("resume from rewritten checkpoint: exit %d (stderr: %s)", code, errOut)
	}
	if got, want := stripTiming(out), stripTiming(ref); got != want {
		t.Fatalf("rewritten-checkpoint report differs:\n--- resumed\n%s--- reference\n%s", got, want)
	}
}

// startTestDaemon brings up an in-process tcraced server for the
// -remote client tests.
func startTestDaemon(t *testing.T, spool string, mod func(*daemon.Config)) *daemon.Server {
	t.Helper()
	cfg := daemon.Config{
		Addr:     "127.0.0.1:0",
		SpoolDir: spool,
		Now:      time.Now,
		Sleep:    time.Sleep,
	}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRemoteMatchesLocal pins that -remote renders the same report as
// an in-process run of the same trace (modulo the elapsed time), and
// that -daemon-stats round-trips a JSON snapshot.
func TestRemoteMatchesLocal(t *testing.T) {
	srv := startTestDaemon(t, t.TempDir(), nil)
	var sb strings.Builder
	for i := 0; i < 300; i++ {
		sb.WriteString(cleanTrace)
		sb.WriteString(racyTrace)
	}
	input := sb.String()
	codeLocal, local, _ := runCmd(t, input)
	codeRemote, remote, errOut := runCmd(t, input,
		"-remote", srv.Addr().String(), "-session", "cli-match")
	if codeRemote != codeLocal {
		t.Fatalf("remote exit %d, local exit %d (stderr: %s)", codeRemote, codeLocal, errOut)
	}
	if got, want := stripTiming(remote), stripTiming(local); got != want {
		t.Fatalf("remote report differs:\n--- remote\n%s--- local\n%s", got, want)
	}

	code, out, errOut := runCmd(t, "", "-daemon-stats", srv.Addr().String())
	if code != exitClean {
		t.Fatalf("-daemon-stats: exit %d (stderr: %s)", code, errOut)
	}
	for _, want := range []string{"active_sessions", "sessions_finished", "events_total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-daemon-stats output missing %q:\n%s", want, out)
		}
	}
}

// TestWorkersZeroResolvedOnce pins that -workers 0 resolves to
// GOMAXPROCS once, for local and remote runs alike, and that the report
// says "sharded" exactly when the resolved count is above one: on one
// CPU both paths run sequentially and must not claim otherwise.
func TestWorkersZeroResolvedOnce(t *testing.T) {
	srv := startTestDaemon(t, t.TempDir(), nil)
	for _, procs := range []int{1, 2} {
		for _, remote := range []bool{false, true} {
			args := []string{"-workers", "0"}
			name := fmt.Sprintf("procs%d/local", procs)
			if remote {
				name = fmt.Sprintf("procs%d/remote", procs)
				args = append(args, "-remote", srv.Addr().String(), "-session", fmt.Sprintf("workers0-%d", procs))
			}
			t.Run(name, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				code, out, errOut := runCmd(t, racyTrace, args...)
				if code != exitRaces {
					t.Fatalf("exit %d, want %d (stderr: %s)", code, exitRaces, errOut)
				}
				if got, want := strings.Contains(out, "sharded"), procs > 1; got != want {
					t.Fatalf("GOMAXPROCS=%d: report says sharded = %v, want %v:\n%s", procs, got, want, out)
				}
			})
		}
	}
}

// TestRemoteEvictResume pins exit code 4: a budgeted daemon evicts the
// session with a spooled checkpoint, and -resume-session on a roomier
// daemon sharing the spool finishes with a report identical to an
// uninterrupted local run.
func TestRemoteEvictResume(t *testing.T) {
	spool := t.TempDir()
	budgeted := startTestDaemon(t, spool, func(c *daemon.Config) {
		c.MaxRetainedBytes = 1
		c.MemCheckEvery = 64
	})
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString(cleanTrace)
	}
	input := sb.String()
	codeRef, ref, _ := runCmd(t, input, "-engine", "wcp-tree")
	if codeRef != exitClean {
		t.Fatalf("reference run: exit %d", codeRef)
	}
	code, _, errOut := runCmd(t, input,
		"-engine", "wcp-tree", "-remote", budgeted.Addr().String(), "-session", "cli-evict")
	if code != exitEvicted {
		t.Fatalf("budgeted run: exit %d, want %d (stderr: %s)", code, exitEvicted, errOut)
	}
	if !strings.Contains(errOut, "-resume-session") {
		t.Fatalf("eviction stderr misses the resume hint:\n%s", errOut)
	}

	roomy := startTestDaemon(t, spool, nil)
	code, out, errOut := runCmd(t, input,
		"-engine", "wcp-tree", "-remote", roomy.Addr().String(), "-session", "cli-evict", "-resume-session")
	if code != exitClean {
		t.Fatalf("resumed run: exit %d (stderr: %s)", code, errOut)
	}
	if !strings.Contains(errOut, "resumed at") {
		t.Fatalf("resume note missing from stderr:\n%s", errOut)
	}
	if got, want := stripTiming(out), stripTiming(ref); got != want {
		t.Fatalf("resumed remote report differs:\n--- resumed\n%s--- reference\n%s", got, want)
	}
}

// TestRemoteUsageErrors pins the flag subset -remote accepts.
func TestRemoteUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"session without remote": {"-session", "x"},
		"resume without remote":  {"-resume-session"},
		"work":                   {"-remote", "x", "-work"},
		"checkpoint":             {"-remote", "x", "-checkpoint", "c"},
		"resume file":            {"-remote", "x", "-resume", "c"},
		"pipeline":               {"-remote", "x", "-pipeline", "4"},
		"intern-cap on binary":   {"-remote", "x", "-format", "bin", "-intern-cap", "5"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			if code, _, errOut := runCmd(t, cleanTrace, args...); code != exitUsage {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, exitUsage, errOut)
			}
		})
	}
}

// stripTiming removes the elapsed duration from the summary line so
// reports compare structurally.
func stripTiming(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if idx := strings.Index(l, " detected in "); idx >= 0 {
			lines[i] = l[:idx]
		}
	}
	return strings.Join(lines, "\n")
}
