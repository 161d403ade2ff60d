package migrate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"cop/internal/shard"
)

// TestScrubberTelemetrySplit injects known fault patterns and pins the
// corrected-on-scrub versus corrected-on-read accounting split exactly:
// faults found by the patrol land in scrub_corrected, faults found by a
// demand read land in corrected_errors, and both appear in the JSON
// snapshot and the Prometheus text exposition.
func TestScrubberTelemetrySplit(t *testing.T) {
	bm := newBatched(mustScheme(t, "cop-4"), 2)
	defer bm.Close()

	const blocks = 256
	content := make([][]byte, blocks)
	for i := range content {
		b := make([]byte, shard.BlockBytes)
		for w := 0; w < 8; w++ {
			binary.BigEndian.PutUint64(b[8*w:], uint64(i*8+w))
		}
		content[i] = b
		if err := bm.Write(uint64(i)*shard.BlockBytes, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := bm.Flush(); err != nil {
		t.Fatal(err)
	}
	base := bm.Snapshot().Controller
	if base.ScrubCorrected != 0 || base.CorrectedErrors != 0 {
		t.Fatalf("fresh memory already has corrections: %+v", base)
	}

	// Pattern 1 — corrected on scrub: corrupt settled DRAM images and let
	// the patrol find them before anything reads them.
	scrubTargets := []int{10, 77, 130}
	for _, idx := range scrubTargets {
		a := uint64(idx) * shard.BlockBytes
		if err := bm.Settle(a); err != nil {
			t.Fatal(err)
		}
		if !bm.InjectBitFlip(a, 7) {
			t.Fatalf("block %d has no DRAM image to corrupt", idx)
		}
	}
	s := NewScrubber(bm, ScrubOptions{Interval: 50 * time.Microsecond, ChunkBlocks: 64})
	s.Start()
	// Wait for the corrections AND one full footprint pass: the targets
	// can all be corrected before the patrol has visited every block (77
	// sits in shard 1's first chunk), and the ScrubScans check below needs
	// the whole pass.
	deadline := time.Now().Add(30 * time.Second)
	for {
		c := bm.Snapshot().Controller
		if c.ScrubCorrected >= uint64(len(scrubTargets)) && c.ScrubScans >= blocks {
			break
		}
		if time.Now().After(deadline) {
			s.Stop()
			t.Fatalf("patrol corrected %d of %d injected faults in %d scans before timeout",
				c.ScrubCorrected, len(scrubTargets), c.ScrubScans)
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	// Restartability: a stopped scrubber can be started again, and Stop on
	// a stopped scrubber is a no-op.
	s.Stop()
	s.Start()
	s.Start()
	s.Stop()

	// Pattern 2 — corrected on read: corrupt settled images, then demand-
	// read them with the patrol idle.
	readTargets := []int{201, 45}
	for _, idx := range readTargets {
		a := uint64(idx) * shard.BlockBytes
		if err := bm.Settle(a); err != nil {
			t.Fatal(err)
		}
		if !bm.InjectBitFlip(a, 11) {
			t.Fatalf("block %d has no DRAM image to corrupt", idx)
		}
		got, err := bm.Read(a)
		if err != nil {
			t.Fatalf("read of corrupted block %d: %v", idx, err)
		}
		if !bytes.Equal(got, content[idx]) {
			t.Fatalf("block %d not corrected on read", idx)
		}
	}

	snap := bm.Snapshot()
	c := snap.Controller
	if got, want := c.ScrubCorrected, uint64(len(scrubTargets)); got != want {
		t.Errorf("corrected-on-scrub = %d, want exactly %d", got, want)
	}
	if got, want := c.CorrectedErrors, uint64(len(readTargets)); got != want {
		t.Errorf("corrected-on-read = %d, want exactly %d", got, want)
	}
	if c.ScrubUncorrectable != 0 {
		t.Errorf("scrub found %d uncorrectable images, want 0", c.ScrubUncorrectable)
	}
	if c.ScrubScans < blocks {
		t.Errorf("ScrubScans = %d, want at least one full footprint pass (%d)", c.ScrubScans, blocks)
	}

	// Both views must carry the split: JSON snapshot...
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`"scrub_corrected": %d`, len(scrubTargets)),
		fmt.Sprintf(`"corrected_errors": %d`, len(readTargets)),
		`"scrub_uncorrectable": 0`,
	} {
		if !bytes.Contains(js, []byte(want)) {
			t.Errorf("JSON snapshot missing %s:\n%s", want, js)
		}
	}
	// ...and the Prometheus text exposition.
	var prom strings.Builder
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("cop_controller_scrub_corrected_total{scheme=%q} %d", snap.Scheme, len(scrubTargets)),
		fmt.Sprintf("cop_controller_corrected_errors_total{scheme=%q} %d", snap.Scheme, len(readTargets)),
		fmt.Sprintf("cop_controller_scrub_uncorrectable_total{scheme=%q} 0", snap.Scheme),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, prom.String())
		}
	}
}
