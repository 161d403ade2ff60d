package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig9", "table3", "alias", "relatedwork"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestSingleExperimentText(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "dimmcmp"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "6.7x") {
		t.Fatalf("output: %s", sb.String())
	}
}

func TestCSVFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "dimmcmp", "-format", "csv"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "comparison,exposure ratio") {
		t.Fatalf("csv output: %s", out)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var sb strings.Builder
	if err := run([]string{"-exp", "config", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Simulated system configuration") {
		t.Fatalf("file contents: %.200s", data)
	}
	if string(data) == "" || !strings.Contains(sb.String(), "Simulated system configuration") {
		t.Fatal("stdout should mirror the file")
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nope"}, &sb); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if err := run([]string{"-exp", "config", "-format", "xml"}, &sb); err == nil {
		t.Fatal("unknown format should error")
	}
	if err := run([]string{"-badflag"}, &sb); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestParallelComparison(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-parallel", "4", "-parallel-ops", "8000"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"unsharded, 1 goroutine", "4 goroutines", "speedup:",
		"synchronous calls", "group windows", "quiesced=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFaultsMode(t *testing.T) {
	var sb strings.Builder
	args := []string{"-faults", "-fault-scheme", "cop-er", "-fault-injections", "400", "-fault-seed", "0x5EED"}
	if err := run(args, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"scheme=cop-er", "seed=0x5eed", "single-bit", "single-bank", "corrected", "false-alias", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Same seed must reproduce the table byte for byte.
	var sb2 strings.Builder
	if err := run(args, &sb2); err != nil {
		t.Fatal(err)
	}
	strip := func(s string) string { // drop the wall-clock line
		lines := strings.Split(s, "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.HasPrefix(l, "(") {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	if strip(sb.String()) != strip(sb2.String()) {
		t.Fatalf("same seed produced different output:\n%s\nvs\n%s", sb.String(), sb2.String())
	}

	if err := run([]string{"-faults", "-fault-scheme", "nope"}, &sb); err == nil {
		t.Fatal("unknown scheme should error")
	}
	if err := run([]string{"-faults", "-fault-seed", "zzz"}, &sb); err == nil {
		t.Fatal("bad seed should error")
	}
	if err := run([]string{"-faults", "-fault-workload", "nope"}, &sb); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestChartFormat(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "dimmcmp", "-format", "chart"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "█") {
		t.Fatalf("chart output:\n%s", sb.String())
	}
}
