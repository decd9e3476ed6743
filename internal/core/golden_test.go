package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden experiment outputs")

// TestGoldenOutputs locks down the rendered output of every experiment at
// a fixed quick-scale configuration. Any change to calibration, rendering
// or analysis shows up as a readable diff; regenerate intentionally with:
//
//	go test ./internal/core -run TestGoldenOutputs -update
func TestGoldenOutputs(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 424242
	env := NewEnv(cfg)
	ctx := context.Background()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(ctx, env)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := renderMarkdown(&buf, res); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", e.ID+".golden.md")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("output changed; run with -update if intentional.\n--- got ---\n%s\n--- want ---\n%s",
					firstDiffWindow(buf.Bytes(), want), firstDiffWindow(want, buf.Bytes()))
			}
		})
	}
}

// firstDiffWindow returns a readable window around the first divergence.
func firstDiffWindow(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	end := i + 240
	if end > len(a) {
		end = len(a)
	}
	return string(a[start:end])
}
