package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
)

const testCorpus = "../../internal/check/testdata/corpus"

// okLines returns the stdout lines that report a passing check.
func okLines(stdout string) []string {
	var lines []string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "ok ") {
			lines = append(lines, l)
		}
	}
	return lines
}

// TestCleanRunReportsEveryOracle drives a small clean pass: it exits 0 and
// reports one ok line per oracle, in check.Oracles order.
func TestCleanRunReportsEveryOracle(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seeds", "1", "-events", "200", "-corpus", testCorpus}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var hunts []string
	for _, l := range okLines(stdout.String()) {
		for _, o := range check.Oracles {
			if strings.HasPrefix(l, fmt.Sprintf("ok   %s (", o.Label)) {
				hunts = append(hunts, o.Label)
			}
		}
	}
	var want []string
	for _, o := range check.Oracles {
		want = append(want, o.Label)
	}
	if strings.Join(hunts, ",") != strings.Join(want, ",") {
		t.Fatalf("oracle ok lines %v, want %v; stdout:\n%s", hunts, want, stdout.String())
	}
}

// TestUnknownFamilyIsUsageError checks that a family no oracle covers is
// rejected with exit 2 before any check runs.
func TestUnknownFamilyIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-families", "Nope", "-corpus", testCorpus}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	if lines := okLines(stdout.String()); len(lines) != 0 {
		t.Fatalf("checks ran before the usage error: %v", lines)
	}
}

// TestExtensionFamily checks that a family only some oracles cover (CBT
// has no naive reference) is hunted by those oracles and passes.
func TestExtensionFamily(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-families", "CBT", "-seeds", "1", "-events", "200", "-corpus", testCorpus}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}
