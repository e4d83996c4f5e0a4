package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeRows writes seabench -json lines to a temporary file.
func writeRows(t *testing.T, lines ...string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.json")
	var body string
	for _, l := range lines {
		body += l + "\n"
	}
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRun(t *testing.T) {
	e21 := `{"experiment":"E21","row":{"rows":8000,"baseline_qps":1000,"treated_qps":990,"null_qps":1003}}`
	e21Slow := `{"experiment":"E21","row":{"rows":8000,"baseline_qps":1000,"treated_qps":900,"null_qps":1003}}`
	other := `{"experiment":"E16","row":{"rows":200000,"vec_mrows_s":50}}`
	withE21 := writeRows(t, other, e21)
	slow := writeRows(t, other, e21Slow)
	noE21 := writeRows(t, other)
	empty := writeRows(t)
	within := func(file, metric, drop string) []string {
		return []string{"-base", file, "-new", file, "-experiment", "E21",
			"-base-metric", "baseline_qps", "-metric", metric, "-max-drop", drop}
	}
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"within-run in bound", within(withE21, "treated_qps", "0.02"), 0},
		{"within-run null arm in bound", within(withE21, "null_qps", "0.01"), 0},
		{"within-run 10% drop fails", within(slow, "treated_qps", "0.02"), 1},
		{"within-run missing rows fail", within(noE21, "treated_qps", "0.02"), 1},
		{"same file without base-metric, missing rows fail",
			[]string{"-base", noE21, "-new", noE21, "-experiment", "E21", "-metric", "treated_qps"}, 1},
		{"cross-push empty baseline skips",
			[]string{"-base", empty, "-new", withE21, "-experiment", "E21", "-metric", "treated_qps"}, 0},
		{"cross-push candidate missing rows fails",
			[]string{"-base", withE21, "-new", noE21, "-experiment", "E21", "-metric", "treated_qps"}, 1},
		{"missing -new is a usage error", []string{"-base", withE21}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args, io.Discard, io.Discard); got != tc.want {
				t.Errorf("run(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
