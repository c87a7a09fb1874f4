package main

// CLI contract tests for paperfigs: flag rejection with usage and the
// -report flow on a cheap figure (Fig. 4 needs no thermal solve, so
// the test stays fast while still exercising the phase plumbing).

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCLI(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(ctx, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownFlagRejected(t *testing.T) {
	code, _, stderr := runCLI(t, context.Background(), "-no-such-flag")
	if code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr, "flag") {
		t.Fatalf("stderr: %q", stderr)
	}
}

func TestFig4WithReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	code, stdout, stderr := runCLI(t, context.Background(), "-fig", "4", "-report", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "modeled k(160 nm grain)") {
		t.Fatalf("fig4 output missing: %q", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep["tool"] != "paperfigs" {
		t.Fatalf("tool = %v", rep["tool"])
	}
	phases, ok := rep["phases"].([]any)
	if !ok || len(phases) != 1 {
		t.Fatalf("phases = %v, want exactly [fig4]", rep["phases"])
	}
	p := phases[0].(map[string]any)
	if p["name"] != "fig4" || p["count"].(float64) != 1 {
		t.Fatalf("unexpected phase: %v", p)
	}
}

// TestGlobalsRestored: run() must clear the package-level experiment
// hooks on exit so a second in-process run (or test) starts clean.
func TestGlobalsRestored(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runCLI(t, context.Background(), "-fig", "4", "-report", filepath.Join(dir, "r.json"))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	// A plain run without -report must not inherit the collector.
	code, _, stderr = runCLI(t, context.Background(), "-fig", "4")
	if code != 0 {
		t.Fatalf("second run: exit %d: %s", code, stderr)
	}
}
