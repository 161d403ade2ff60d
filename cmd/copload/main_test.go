package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"cop/internal/copnet"
	"cop/internal/workload"
)

// TestSelfServedRun drives a short self-served run under the default
// scheme (cop-er) and under cop-chipkill: every get must match the shadow
// oracle and the run must end in the PASS verdict.
func TestSelfServedRun(t *testing.T) {
	for _, scheme := range []string{"", "cop-chipkill"} {
		args := []string{"-ops", "512", "-workers", "2", "-window", "8", "-pipeline", "2"}
		if scheme != "" {
			args = append(args, "-scheme", scheme)
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%q: %v\n%s", scheme, err, out.String())
		}
		s := out.String()
		if !strings.Contains(s, "copload: PASS") || !strings.Contains(s, " 0 mismatches") {
			t.Fatalf("%q: no clean verdict:\n%s", scheme, s)
		}
	}
}

// TestSoakRun layers the seeded fault campaign over the traffic; both
// oracles must report zero silent corruptions.
func TestSoakRun(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-ops", "512", "-workers", "2", "-soak", "-soak-faults", "50", "-soak-blocks", "256"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "copload: PASS") || !strings.Contains(s, "soak outcomes:") {
		t.Fatalf("no soak verdict:\n%s", s)
	}
}

// TestJSONReport checks that -json leaves one parseable report on stdout.
func TestJSONReport(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ops", "256", "-workers", "2", "-json"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var rep reportJSON
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, out.String())
	}
	if rep.Ops == 0 || rep.Mismatches != 0 || rep.VerifiedGets == 0 {
		t.Fatalf("report: ops=%d verified=%d mismatches=%d", rep.Ops, rep.VerifiedGets, rep.Mismatches)
	}
}

// TestVerifyOracle walks the shadow oracle's taint rules one frame at a
// time.
func TestVerifyOracle(t *testing.T) {
	r := newRunner(nil, workload.MustGet("gcc"), runnerConfig{})
	state := make([]keyState, 2)
	want := bytes.Repeat([]byte{7}, copnet.BlockBytes)
	fail := errors.New("write lost")

	// A failed write taints its key.
	r.verify([]copnet.Result{{Err: fail}}, []pendingOp{{kind: opSet, key: 0}}, state)
	if !state[0].tainted || r.opErrors.Load() != 1 || r.sets.Load() != 1 {
		t.Fatalf("failed write: tainted=%v errors=%d", state[0].tainted, r.opErrors.Load())
	}
	// A get issued while its key is tainted carries no expectation and is
	// not verified, whatever it returns.
	r.verify([]copnet.Result{{Data: make([]byte, copnet.BlockBytes)}}, []pendingOp{{kind: opGet, key: 0}}, state)
	if r.verified.Load() != 0 || r.mismatches.Load() != 0 || r.gets.Load() != 1 {
		t.Fatalf("tainted get: verified=%d mismatches=%d", r.verified.Load(), r.mismatches.Load())
	}
	// A successful rewrite clears the taint.
	r.verify([]copnet.Result{{}}, []pendingOp{{kind: opIncr, key: 0}}, state)
	if state[0].tainted {
		t.Fatal("successful rewrite left the key tainted")
	}
	// A right read verifies; a wrong one counts a mismatch; a failed one
	// counts an error and is not verified.
	r.verify(
		[]copnet.Result{{Data: want}, {Data: make([]byte, copnet.BlockBytes)}, {Err: fail}},
		[]pendingOp{{kind: opGet, key: 1, want: want}, {kind: opGet, key: 1, want: want}, {kind: opGet, key: 1, want: want}},
		state)
	if r.verified.Load() != 2 || r.mismatches.Load() != 1 || r.opErrors.Load() != 2 {
		t.Fatalf("reads: verified=%d mismatches=%d errors=%d", r.verified.Load(), r.mismatches.Load(), r.opErrors.Load())
	}
}
