package memctrl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cop/internal/core"
	"cop/internal/ecc"
	"cop/internal/trace"
	"cop/internal/workload"
)

var allModes = []Mode{Unprotected, COP, COPER, ECCRegion, ECCDIMM, COPAdaptive, COPChipkill}

func newCtrl(m Mode) *Controller {
	// Small LLC so evictions (and hence DRAM round trips) happen fast.
	return New(Config{Mode: m, LLCBytes: 64 * 1024, LLCWays: 8})
}

func compressibleData(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	base := uint64(0x00007F00_00000000)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(b[8*i:], base|uint64(rng.Intn(1<<20)))
	}
	return b
}

func randomData(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	rng.Read(b)
	return b
}

func TestWriteReadThroughLLC(t *testing.T) {
	for _, m := range allModes {
		c := newCtrl(m)
		rng := rand.New(rand.NewSource(1))
		want := compressibleData(rng)
		if err := c.Write(0x1000, want); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := c.Read(0x1000)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: LLC round trip mismatch", m)
		}
	}
}

func TestRoundTripThroughDRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range allModes {
		c := newCtrl(m)
		ref := map[uint64][]byte{}
		// Write far more blocks than the LLC holds, with mixed content.
		for i := 0; i < 4096; i++ {
			addr := uint64(i) * BlockBytes
			var d []byte
			if i%3 == 0 {
				d = randomData(rng)
			} else {
				d = compressibleData(rng)
			}
			ref[addr] = d
			if err := c.Write(addr, d); err != nil {
				t.Fatalf("%v: write %d: %v", m, i, err)
			}
		}
		for addr, want := range ref {
			got, err := c.Read(addr)
			if err != nil {
				t.Fatalf("%v: read %#x: %v", m, addr, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: mismatch at %#x", m, addr)
			}
		}
		st := c.Snapshot().Controller
		if st.Writebacks == 0 {
			t.Fatalf("%v: no writebacks — LLC too large for the test", m)
		}
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	c := newCtrl(COP)
	got, err := c.Read(0xDEAD000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, BlockBytes)) {
		t.Fatal("fresh memory should read as zeros")
	}
}

func TestFlushForcesResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range allModes {
		c := newCtrl(m)
		want := compressibleData(rng)
		c.Write(0x2000, want)
		if c.InDRAM(0x2000) {
			t.Fatalf("%v: block in DRAM before eviction", m)
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("%v: flush: %v", m, err)
		}
		if !c.InDRAM(0x2000) {
			t.Fatalf("%v: block missing from DRAM after flush", m)
		}
		got, err := c.Read(0x2000)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: post-flush read: %v", m, err)
		}
	}
}

func TestSingleBitFlipCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct {
		mode Mode
		data func() []byte
	}{
		{COP, func() []byte { return compressibleData(rng) }},
		{COPER, func() []byte { return compressibleData(rng) }},
		{COPER, func() []byte { return randomData(rng) }},
		{ECCRegion, func() []byte { return randomData(rng) }},
		{ECCDIMM, func() []byte { return randomData(rng) }},
	}
	for i, tc := range cases {
		c := newCtrl(tc.mode)
		want := tc.data()
		c.Write(0x3000, want)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if !c.InjectBitFlip(0x3000, rng.Intn(512)) {
			t.Fatalf("case %d (%v): injection failed", i, tc.mode)
		}
		got, err := c.Read(0x3000)
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, tc.mode, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (%v): silent corruption", i, tc.mode)
		}
		if c.Snapshot().Controller.CorrectedErrors != 1 {
			t.Fatalf("case %d (%v): stats %+v", i, tc.mode, c.Snapshot().Controller)
		}
	}
}

func TestFlipAndCorrectLoop(t *testing.T) {
	// Cleaner single-bit campaign: flip bit b, read (must equal
	// original), evict, flip bit b again to restore, repeat.
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		mode Mode
		data []byte
	}{
		{COP, compressibleData(rng)},
		{COPER, randomData(rng)},
		{ECCRegion, randomData(rng)},
		{ECCDIMM, randomData(rng)},
	} {
		c := newCtrl(tc.mode)
		c.Write(0x4000, tc.data)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 512; bit += 7 {
			c.InjectBitFlip(0x4000, bit)
			got, err := c.Read(0x4000)
			if err != nil {
				t.Fatalf("%v bit %d: %v", tc.mode, bit, err)
			}
			if !bytes.Equal(got, tc.data) {
				t.Fatalf("%v bit %d: corruption", tc.mode, bit)
			}
			c.LLC().Evict(0x4000)
			c.InjectBitFlip(0x4000, bit) // restore
		}
		if c.Snapshot().Controller.CorrectedErrors == 0 {
			t.Fatalf("%v: corrections not counted", tc.mode)
		}
	}
}

func TestUnprotectedSilentlyCorrupts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := newCtrl(Unprotected)
	want := randomData(rng)
	c.Write(0x5000, want)
	c.Flush()
	c.InjectBitFlip(0x5000, 100)
	got, err := c.Read(0x5000)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		t.Fatal("expected silent corruption in unprotected mode")
	}
}

func TestCOPRawBlocksUnprotected(t *testing.T) {
	// COP (without ER) leaves incompressible blocks raw: a flip there is
	// silent corruption — the 7% the paper's 93% does not cover.
	rng := rand.New(rand.NewSource(7))
	c := newCtrl(COP)
	var raw []byte
	for {
		raw = randomData(rng)
		if c.cur.codec.Classify(raw) == 1 { // core.StoredRaw
			break
		}
	}
	c.Write(0x6000, raw)
	c.Flush()
	c.InjectBitFlip(0x6000, 42)
	got, err := c.Read(0x6000)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, raw) {
		t.Fatal("raw COP block should not be protected")
	}
}

func TestDoubleErrorDetectedCOP(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := newCtrl(COP)
	want := compressibleData(rng)
	c.Write(0x7000, want)
	c.Flush()
	// Two flips in the same 128-bit code word.
	c.InjectBitFlip(0x7000, 3)
	c.InjectBitFlip(0x7000, 77)
	_, err := c.Read(0x7000)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("expected uncorrectable, got %v", err)
	}
	if c.Snapshot().Controller.UncorrectableErrors != 1 {
		t.Fatalf("stats: %+v", c.Snapshot().Controller)
	}
}

func TestStatsClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := newCtrl(COP)
	for i := 0; i < 2000; i++ {
		var d []byte
		if i%2 == 0 {
			d = compressibleData(rng)
		} else {
			d = randomData(rng)
		}
		c.Write(uint64(i)*BlockBytes, d)
	}
	c.Flush()
	st := c.Snapshot().Controller
	if st.StoredCompressed == 0 || st.StoredRaw == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.EverIncompressible == 0 || st.EverIncompressible != st.StoredRaw {
		// Each raw block was distinct here.
		t.Fatalf("EverIncompressible = %d, StoredRaw = %d", st.EverIncompressible, st.StoredRaw)
	}
}

func TestCOPERRegionGrowsOnlyForIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := newCtrl(COPER)
	for i := 0; i < 500; i++ {
		c.Write(uint64(i)*BlockBytes, compressibleData(rng))
	}
	c.Flush()
	if got := c.Region().Telemetry().Live; got != 0 {
		t.Fatalf("compressible-only workload allocated %d entries", got)
	}
	for i := 500; i < 600; i++ {
		c.Write(uint64(i)*BlockBytes, randomData(rng))
	}
	c.Flush()
	if got := c.Region().Telemetry().Live; got == 0 {
		t.Fatal("incompressible blocks allocated no entries")
	}
}

func TestCOPEREntryReuseAcrossRewrite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := newCtrl(COPER)
	addr := uint64(0x8000)
	c.Write(addr, randomData(rng))
	c.Flush()
	alloc1 := c.Region().Telemetry().Live
	// Read (sets WasUncompressed+Ptr), rewrite incompressible, flush.
	if _, err := c.Read(addr); err != nil {
		t.Fatal(err)
	}
	c.Write(addr, randomData(rng))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	alloc2 := c.Region().Telemetry().Live
	if alloc2 != alloc1 {
		t.Fatalf("entry count changed on rewrite: %d -> %d", alloc1, alloc2)
	}
}

func TestWorkloadDrivenSoak(t *testing.T) {
	// Drive each controller with realistic benchmark content and verify
	// functional equivalence against a reference map.
	p := workload.MustGet("gcc")
	for _, m := range allModes {
		c := New(Config{Mode: m, LLCBytes: 32 * 1024, LLCWays: 8})
		ref := map[uint64][]byte{}
		tr := p.NewTrace(1)
		for e := 0; e < 300; e++ {
			ep := tr.Next()
			for _, wb := range ep.Writebacks {
				data := p.Block(wb.Addr, wb.Version)
				ref[wb.Addr] = data
				if err := c.Write(wb.Addr, data); err != nil {
					t.Fatalf("%v: %v", m, err)
				}
			}
		}
		for addr, want := range ref {
			got, err := c.Read(addr)
			if err != nil {
				t.Fatalf("%v: read %#x: %v", m, addr, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v: mismatch at %#x", m, addr)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	for _, m := range allModes {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

func TestWriteRejectsShortData(t *testing.T) {
	c := newCtrl(COP)
	if err := c.Write(0, make([]byte, 32)); err == nil {
		t.Fatal("expected error for short write")
	}
}

func TestInjectBitFlipBounds(t *testing.T) {
	c := newCtrl(COP)
	if c.InjectBitFlip(0, 0) {
		t.Fatal("injection into absent block should fail")
	}
	rng := rand.New(rand.NewSource(12))
	c.Write(0, compressibleData(rng))
	c.Flush()
	if c.InjectBitFlip(0, 512) || c.InjectBitFlip(0, -1) {
		t.Fatal("out-of-range bit accepted")
	}
}

func TestScrubBlockClearsLatentFaults(t *testing.T) {
	// Without scrubbing, two sequential single-bit faults (with a read
	// between them) accumulate in DRAM and become uncorrectable: a demand
	// read corrects its copy but leaves the image alone. A patrol scrub of
	// the block rewrites the corrected image, so the second fault is again
	// a lone single-bit error.
	rng := rand.New(rand.NewSource(21))
	// The second fault lands in the same code word as the first: COP's
	// words are 128 bits (bit 77 shares word 0 with bit 3), the DIMM's
	// are 64+8 (bit 50 shares word 0 with bit 3).
	for _, tc := range []struct {
		mode Mode
		bit2 int
	}{
		{COP, 77}, {COPER, 77}, {ECCRegion, 200}, {ECCDIMM, 50},
	} {
		run := func(scrub bool) error {
			c := New(Config{Mode: tc.mode, LLCBytes: 8 * 1024, LLCWays: 4})
			var data []byte
			if tc.mode == COP {
				data = compressibleData(rng) // raw COP blocks are unprotected anyway
			} else {
				data = randomData(rng)
			}
			c.Write(0x9000, data)
			if err := c.Flush(); err != nil {
				return err
			}
			// Fault 1, read (correct), evict clean, scrub.
			c.InjectBitFlip(0x9000, 3)
			if _, err := c.Read(0x9000); err != nil {
				return err
			}
			c.LLC().Evict(0x9000)
			if scrub {
				if _, err := c.ScrubBlock(0x9000); err != nil {
					return err
				}
			}
			// Fault 2 in the same code word.
			c.InjectBitFlip(0x9000, tc.bit2)
			got, err := c.Read(0x9000)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, data) {
				return ErrUncorrectable // silent corruption counts as failure too
			}
			return nil
		}
		if err := run(true); err != nil {
			t.Errorf("%v with scrubbing: %v", tc.mode, err)
		}
		if tc.mode == COP || tc.mode == ECCDIMM || tc.mode == ECCRegion {
			// Single-code-word modes must notice the stacked double
			// when scrubbing is off.
			if err := run(false); err == nil {
				t.Errorf("%v without scrubbing: double error went unnoticed", tc.mode)
			}
		}
	}
}

// TestScrubStatsCounted: a corrected scrub rewrites the image through
// the one writeback path, so in every scheme it counts one scrub, one
// writeback, one stored image, and a region access exactly when the
// rewritten image is region-backed, and traces the image write.
func TestScrubStatsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range allModes {
		for _, compressible := range []bool{true, false} {
			tr := trace.New(trace.Config{})
			c := New(Config{Mode: m, LLCBytes: 8 * 1024, LLCWays: 4, Tracer: tr})
			d := randomData(rng)
			if compressible {
				d = compressibleData(rng)
			}
			c.Write(0xA000, d)
			c.Flush()
			if (m == COP || m == COPAdaptive) && c.StoredKind(0xA000) == StoredKindRaw {
				continue // raw COP blocks are unprotected: nothing to correct
			}
			if m == COPChipkill {
				c.InjectChipFailure(0xA000, 5, 0xFF)
			} else {
				c.InjectBitFlip(0xA000, 10)
			}
			before := c.Snapshot().Controller
			tr.Start()
			scanned, err := c.ScrubBlock(0xA000)
			tr.Stop()
			if err != nil || !scanned {
				t.Fatalf("%v: scrub scanned=%v err=%v", m, scanned, err)
			}
			after := c.Snapshot().Controller
			if m == Unprotected {
				if after.Scrubs != 0 || after.Writebacks != before.Writebacks {
					t.Fatalf("%v: scrubbed an unprotected block: %+v", m, after)
				}
				continue
			}
			if after.Scrubs != 1 {
				t.Fatalf("%v: scrubs = %d, want 1", m, after.Scrubs)
			}
			wantRegion := uint64(0)
			if m == ECCRegion || (c.StoredKind(0xA000) == StoredKindRaw && (m == COPER || m == COPChipkill)) {
				wantRegion = 1
			}
			if got := after.Writebacks - before.Writebacks; got != 1 {
				t.Errorf("%v: scrub counted %d writebacks, want 1", m, got)
			}
			if got := after.StoredCompressed + after.StoredRaw - before.StoredCompressed - before.StoredRaw; got != 1 {
				t.Errorf("%v: scrub counted %d stored images, want 1", m, got)
			}
			if got := after.RegionReads - before.RegionReads; got != wantRegion {
				t.Errorf("%v: scrub counted %d region accesses, want %d", m, got, wantRegion)
			}
			traced := map[trace.Kind]bool{}
			for _, r := range tr.Snapshot() {
				if r.Addr == 0xA000 {
					traced[r.Kind] = true
				}
			}
			if !traced[trace.KindEncode] || !traced[trace.KindDRAMWrite] || !traced[trace.KindScrub] {
				t.Errorf("%v: scrub traced encode %v, dram-write %v, scrub %v", m,
					traced[trace.KindEncode], traced[trace.KindDRAMWrite], traced[trace.KindScrub])
			}
			if got, err := c.Read(0xA000); err != nil || !bytes.Equal(got, d) {
				t.Fatalf("%v: read after scrub: %v", m, err)
			}
		}
	}
}

func TestScrubCOPERPreservesEntryAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := New(Config{Mode: COPER, LLCBytes: 8 * 1024, LLCWays: 4})
	data := randomData(rng)
	c.Write(0xB000, data)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before := c.Region().Telemetry().Live
	c.InjectBitFlip(0xB000, 200)
	if _, err := c.ScrubBlock(0xB000); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0xB000)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("scrubbed read: %v", err)
	}
	if after := c.Region().Telemetry().Live; after != before {
		t.Fatalf("scrub leaked region entries: %d -> %d", before, after)
	}
	// The scrub rewrote a clean image: a second fault in the block's
	// (523,512) code word must also correct.
	c.LLC().Evict(0xB000)
	c.InjectBitFlip(0xB000, 300)
	if got, err := c.Read(0xB000); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("second fault after scrub: %v", err)
	}
}

func TestAdaptiveModeStrongCorrection(t *testing.T) {
	// Strong-format blocks survive three scattered single-bit flips in
	// adaptive mode — the pattern that silently corrupts plain COP.
	rng := rand.New(rand.NewSource(30))
	c := newCtrl(COPAdaptive)
	want := compressibleData(rng)
	c.Write(0xC000, want)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{3, 67, 131} { // three different 64-bit words
		c.InjectBitFlip(0xC000, bit)
	}
	got, err := c.Read(0xC000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("adaptive mode failed to correct scattered triple error")
	}

	// The same injection against plain COP silently corrupts.
	c2 := newCtrl(COP)
	c2.Write(0xC000, want)
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []int{3, 131, 259} { // three different 128-bit words
		c2.InjectBitFlip(0xC000, bit)
	}
	got2, err := c2.Read(0xC000)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got2, want) {
		t.Fatal("expected plain COP to lose this block (documents the adaptive win)")
	}
}

func TestByteGranularityAccess(t *testing.T) {
	for _, m := range allModes {
		c := newCtrl(m)
		msg := []byte("byte-granularity access spanning multiple 64-byte blocks: " +
			"the controller performs read-modify-write on the edges.")
		addr := uint64(0x1000 + 17) // deliberately unaligned
		if err := c.WriteBytes(addr, msg); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		got, err := c.ReadBytes(addr, len(msg))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("%v: byte round trip mismatch", m)
		}
		// Unaligned overwrite in the middle.
		patch := []byte("READ-MODIFY-WRITE")
		if err := c.WriteBytes(addr+20, patch); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), msg...)
		copy(want[20:], patch)
		got, err = c.ReadBytes(addr, len(msg))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v: patched read mismatch: %v", m, err)
		}
	}
}

func TestByteAccessSurvivesFlushAndFaults(t *testing.T) {
	c := New(Config{Mode: COPER, LLCBytes: 8 * 1024, LLCWays: 4})
	msg := bytes.Repeat([]byte("protect me "), 30) // ~330 bytes, 6 blocks
	if err := c.WriteBytes(0x40, msg); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for blk := uint64(0); blk < 7; blk++ {
		c.InjectBitFlip(0x40+blk*BlockBytes, int(blk*13)%512)
	}
	got, err := c.ReadBytes(0x40, len(msg))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("faulted byte read: %v", err)
	}
}

func TestChipkillModeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c := New(Config{Mode: COPChipkill, LLCBytes: 16 * 1024, LLCWays: 4})
	ref := map[uint64][]byte{}
	for i := 0; i < 600; i++ {
		addr := uint64(i) * BlockBytes
		var d []byte
		if i%3 == 0 {
			d = randomData(rng)
		} else {
			d = compressibleData(rng)
		}
		ref[addr] = d
		if err := c.Write(addr, d); err != nil {
			t.Fatal(err)
		}
	}
	for addr, want := range ref {
		got, err := c.Read(addr)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("round trip %#x: %v", addr, err)
		}
	}
}

func TestChipkillModeSurvivesChipFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := New(Config{Mode: COPChipkill, LLCBytes: 8 * 1024, LLCWays: 4})
	ref := map[uint64][]byte{}
	for i := 0; i < 200; i++ {
		addr := uint64(i) * BlockBytes
		var d []byte
		if i%2 == 0 {
			d = randomData(rng) // incompressible: region-backed
		} else {
			d = compressibleData(rng)
		}
		ref[addr] = d
		if err := c.Write(addr, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chip 3 dies across the whole memory.
	for addr := range ref {
		if !c.LLC().Contains(addr) {
			c.InjectChipFailure(addr, 3, 0xA5)
		}
	}
	for addr, want := range ref {
		got, err := c.Read(addr)
		if err != nil {
			t.Fatalf("%#x: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%#x: corrupted after chip failure", addr)
		}
	}
	if c.Snapshot().Controller.CorrectedErrors == 0 {
		t.Fatal("chip reconstructions not counted")
	}
}

func TestChipFailureKillsOtherModes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, mode := range []Mode{COP, COPER, ECCDIMM} {
		c := New(Config{Mode: mode, LLCBytes: 8 * 1024, LLCWays: 4})
		want := compressibleData(rng)
		c.Write(0xE000, want)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		c.InjectChipFailure(0xE000, 2, 0x5A)
		got, err := c.Read(0xE000)
		if err == nil && bytes.Equal(got, want) {
			t.Fatalf("%v: survived a whole-chip failure it should not handle", mode)
		}
	}
}

// TestChipkillRewriteKeepsVerifiedPointer: each of these chip failures
// mis-corrects a raw block's pointer copy A into another block's live
// pointer, and the read still verifies the block through copy B. The
// block's next rewrite — a patrol-scrub rewrite, or a write after the
// corrected fill — must update the entry the read used, so every block of
// the memory still reads back its content afterwards.
func TestChipkillRewriteKeepsVerifiedPointer(t *testing.T) {
	const blocks = 5000
	p := workload.MustGet("gcc")
	for _, tc := range []struct {
		blk     uint64
		chip    int
		pattern byte
		scrub   bool
	}{
		{0, 2, 0x06, true},
		{0, 2, 0x06, false},
		{0, 3, 0x06, true},
		{2, 2, 0x06, true},
	} {
		name := fmt.Sprintf("block %d chip %d pattern %#x scrub=%v", tc.blk, tc.chip, tc.pattern, tc.scrub)
		c := New(Config{Mode: COPChipkill, LLCBytes: 64 << 10, LLCWays: 8})
		for i := 0; i < blocks; i++ {
			addr := uint64(i) * BlockBytes
			if err := c.Write(addr, p.Block(addr, 0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		addr := tc.blk * BlockBytes
		if !c.InjectChipFailure(addr, tc.chip, tc.pattern) {
			t.Fatalf("%s: no image to inject into", name)
		}
		if tc.scrub {
			if _, err := c.ScrubBlock(addr); err != nil {
				t.Fatalf("%s: scrub: %v", name, err)
			}
			if got := c.Snapshot().Controller.ScrubCorrected; got != 1 {
				t.Fatalf("%s: scrub corrected %d, want 1", name, got)
			}
		} else {
			data, info, err := c.ReadWithInfo(addr)
			if err != nil || !info.corrected() {
				t.Fatalf("%s: fill = (%+v, %v), want a correction", name, info, err)
			}
			if err := c.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			if err := c.Settle(addr); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < blocks; i++ {
			a := uint64(i) * BlockBytes
			got, err := c.Read(a)
			if err != nil || !bytes.Equal(got, p.Block(a, 0)) {
				t.Errorf("%s: block %d reads (%v, match=%v) after the rewrite", name, i, err, bytes.Equal(got, p.Block(a, 0)))
				break
			}
		}
	}
}

func TestChipkillModeEntryReuseViaScrub(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	c := New(Config{Mode: COPChipkill, LLCBytes: 8 * 1024, LLCWays: 4})
	d := randomData(rng)
	c.Write(0xF000, d)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before := c.Region().Telemetry().Live
	c.InjectChipFailure(0xF000, 5, 0xFF)
	if _, err := c.ScrubBlock(0xF000); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0xF000)
	if err != nil || !bytes.Equal(got, d) {
		t.Fatalf("scrubbed chip-failure read: %v", err)
	}
	if c.Snapshot().Controller.Scrubs == 0 {
		t.Fatal("scrub not performed")
	}
	if after := c.Region().Telemetry().Live; after != before {
		t.Fatalf("scrub leaked entries: %d -> %d", before, after)
	}
	// The scrub rewrote a clean image: a second chip failure (different
	// chip) must also recover.
	c.LLC().Evict(0xF000)
	c.InjectChipFailure(0xF000, 1, 0x77)
	got, err = c.Read(0xF000)
	if err != nil || !bytes.Equal(got, d) {
		t.Fatalf("second chip failure after scrub: %v", err)
	}
}

// aliasData constructs an incompressible block whose raw form shows at
// least the detection threshold of valid code words — a COP alias the
// controller must pin in the LLC (mirrors internal/core's test helper via
// the public ecc API, since the codec's hash is not exported).
func aliasData(rng *rand.Rand, codec *core.Codec) []byte {
	cfg := codec.Config()
	cwLen := cfg.Code.CodewordBytes()
	hash := ecc.NewHashMasks(cfg.Segments, cwLen)
	for attempt := 0; attempt < 1000; attempt++ {
		b := make([]byte, BlockBytes)
		for s := 0; s < cfg.Segments; s++ {
			cw := b[s*cwLen : (s+1)*cwLen]
			if s < cfg.Threshold {
				data := make([]byte, (cfg.Code.K()+7)/8)
				rng.Read(data)
				cfg.Code.EncodeInto(cw, data)
				hash.Apply(s, cw) // raw bytes must hash back to a valid code word
			} else {
				rng.Read(cw)
			}
		}
		if codec.Classify(b) == core.RejectedAlias {
			return b
		}
	}
	panic("aliasData: could not construct alias")
}

// TestOverflowPromotionWritesBackDirtyVictim is the regression test for the
// dropped-writeback bug: a set driven to all-alias spills a line to
// overflow; a hit-write then clears one resident alias bit (setAliasBit
// recomputes on every store) and dirties the line; promoting the spilled
// line evicts that dirty line — whose writeback must reach DRAM, not be
// silently discarded.
func TestOverflowPromotionWritesBackDirtyVictim(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	// 2 ways × 2 sets: addresses 0x0, 0x80, 0x100 all map to set 0.
	c := New(Config{Mode: COP, LLCBytes: 2 * 2 * BlockBytes, LLCWays: 2})
	a0 := aliasData(rng, c.cur.codec)
	a1 := aliasData(rng, c.cur.codec)
	a2 := aliasData(rng, c.cur.codec)

	// Fill set 0 with aliases, then overflow it: a0 spills.
	mustWrite(t, c, 0x000, a0)
	mustWrite(t, c, 0x080, a1)
	mustWrite(t, c, 0x100, a2)
	if c.LLC().OverflowLen() != 1 {
		t.Fatalf("overflow len = %d, want 1 (set not driven to spill)", c.LLC().OverflowLen())
	}

	// Hit-write compressible data over a1: the alias bit is recomputed and
	// cleared, leaving a dirty, evictable line in the formerly all-alias set.
	want := compressibleData(rng)
	mustWrite(t, c, 0x080, want)

	// Touch the spilled block: the overflow walk promotes a0 back into the
	// set, evicting the dirty line at 0x080.
	got, err := c.Read(0x000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, a0) {
		t.Fatal("promoted overflow line returned wrong data")
	}
	if c.LLC().Contains(0x080) {
		t.Fatal("test premise broken: 0x080 should have been evicted by the promotion")
	}

	// The evicted line was dirty: its data must have reached DRAM.
	got, err = c.Read(0x080)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("dirty victim's writeback was dropped: read back %x... want %x...", got[:8], want[:8])
	}
}

func mustWrite(t *testing.T, c *Controller, addr uint64, data []byte) {
	t.Helper()
	if err := c.Write(addr, data); err != nil {
		t.Fatalf("write %#x: %v", addr, err)
	}
}

// TestFlushRetainsAliasLines: a flush must never push an alias line to
// DRAM, and must not lose it either — the line is parked and re-seated.
// The COPAdaptive case is a regression test: the old flush only
// special-cased COP, so adaptive-mode alias lines were silently dropped
// (writeback rejected the line, re-inserted it in place, and FlushAll then
// invalidated the entry).
func TestFlushRetainsAliasLines(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	std := core.NewCodec(core.NewConfig4())
	for _, m := range []Mode{COP, COPAdaptive} {
		c := newCtrl(m)
		a := aliasData(rng, std)
		mustWrite(t, c, 0x6000, a)
		if err := c.Flush(); err != nil {
			t.Fatalf("%v: flush: %v", m, err)
		}
		if c.InDRAM(0x6000) {
			t.Fatalf("%v: alias block written to DRAM", m)
		}
		if c.Snapshot().Controller.AliasRetained == 0 {
			t.Fatalf("%v: retention not counted: %+v", m, c.Snapshot().Controller)
		}
		got, err := c.Read(0x6000)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(got, a) {
			t.Fatalf("%v: alias line lost across Flush", m)
		}
	}
}

// TestReadWithInfoVerdicts: the info struct surfaces the decoder's
// verdicts — LLC hits report no decode, DRAM fills report the
// compressed-vs-raw decision and correction counts.
func TestReadWithInfoVerdicts(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	c := newCtrl(COP)
	compAddr, rawAddr := uint64(0), uint64(BlockBytes)
	comp, raw := compressibleData(rng), randomData(rng)
	codec := core.NewCodec(core.NewConfig4())
	for codec.Classify(raw) != core.StoredRaw {
		raw = randomData(rng)
	}
	if err := c.Write(compAddr, comp); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(rawAddr, raw); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	if got, info, err := c.ReadWithInfo(compAddr); err != nil || !bytes.Equal(got, comp) {
		t.Fatalf("compressed read: %v", err)
	} else if !info.FromDRAM || info.LLCHit || !info.DecodedCompressed || info.Corrected != 0 {
		t.Fatalf("compressed fill info: %+v", info)
	}
	if _, info, err := c.ReadWithInfo(compAddr); err != nil || !info.LLCHit || info.FromDRAM {
		t.Fatalf("LLC hit info: %+v err=%v", info, err)
	}
	if _, info, err := c.ReadWithInfo(rawAddr); err != nil {
		t.Fatal(err)
	} else if !info.FromDRAM || info.DecodedCompressed {
		t.Fatalf("raw fill info: %+v", info)
	}

	// A corrected single-bit flip shows up in Corrected, and the data is
	// byte-exact.
	if err := c.Settle(compAddr); err != nil {
		t.Fatal(err)
	}
	if !c.InjectBitFlip(compAddr, 17) {
		t.Fatal("injection missed DRAM")
	}
	got, info, err := c.ReadWithInfo(compAddr)
	if err != nil || !bytes.Equal(got, comp) {
		t.Fatalf("post-flip read: %v", err)
	}
	if info.Corrected == 0 || !info.DecodedCompressed {
		t.Fatalf("post-flip info: %+v", info)
	}

	// Never-written blocks fill as zeros with FromDRAM unset.
	if _, info, err := c.ReadWithInfo(1 << 30); err != nil || info.FromDRAM || info.LLCHit {
		t.Fatalf("fresh-page info: %+v err=%v", info, err)
	}
}

// TestReadWithInfoRegionAccess: COP-ER raw blocks report the region
// consultation.
func TestReadWithInfoRegionAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := newCtrl(COPER)
	raw := randomData(rng)
	if err := c.Write(0, raw); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, info, err := c.ReadWithInfo(0)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("read: %v", err)
	}
	if !info.RegionAccess || info.DecodedCompressed {
		t.Fatalf("raw COP-ER info: %+v", info)
	}
}

// TestReadCountersFollowReadInfo pins the fill's one counter rule in every
// scheme: a settled read moves region_reads, corrected_errors,
// uncorrectable_errors and the valid-code-word count by exactly what its
// ReadInfo and error report. A region consultation counts whether or not
// the decode succeeded.
func TestReadCountersFollowReadInfo(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	one := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	failedAfterRegion := 0
	for _, m := range allModes {
		for _, compressible := range []bool{true, false} {
			for faults := 0; faults <= 2; faults++ {
				name := fmt.Sprintf("%v/compressible=%v/faults=%d", m, compressible, faults)
				c := newCtrl(m)
				d := randomData(rng)
				if compressible {
					d = compressibleData(rng)
				}
				const addr = 0x2000
				mustWrite(t, c, addr, d)
				if err := c.Settle(addr); err != nil {
					t.Fatal(err)
				}
				for f := 0; f < faults; f++ {
					if m == COPChipkill {
						c.InjectChipFailure(addr, 1+4*f, 0xA5)
					} else {
						c.InjectBitFlip(addr, 20+57*f) // bits 20 and 77: one COP code word
					}
				}
				before := c.Snapshot().Controller
				_, info, err := c.ReadWithInfo(addr)
				after := c.Snapshot().Controller
				if !info.FromDRAM {
					t.Fatalf("%s: read did not decode DRAM: %+v", name, info)
				}
				for _, k := range []struct {
					counter   string
					got, want uint64
				}{
					{"region_reads", after.RegionReads - before.RegionReads, one(info.RegionAccess)},
					{"corrected_errors", after.CorrectedErrors - before.CorrectedErrors, one(err == nil && info.corrected())},
					{"uncorrectable_errors", after.UncorrectableErrors - before.UncorrectableErrors, one(err != nil)},
					{"valid_codewords", after.ValidCodewords.Count - before.ValidCodewords.Count, one(err == nil && info.ValidCodewords > 0)},
				} {
					if k.got != k.want {
						t.Errorf("%s: %s moved by %d, want %d (info %+v, err %v)", name, k.counter, k.got, k.want, info, err)
					}
				}
				if info.RegionAccess && err != nil {
					failedAfterRegion++
				}
			}
		}
	}
	if failedAfterRegion == 0 {
		t.Fatal("no read failed after consulting the region: the rule's hard case went untested")
	}
}

// TestStoredKindGroundTruth: the controller records whether each DRAM
// image is raw or compressed at writeback time, across modes.
func TestStoredKindGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	comp, raw := compressibleData(rng), randomData(rng)
	for _, tc := range []struct {
		mode              Mode
		compKind, rawKind StoredKind
	}{
		{Unprotected, StoredKindRaw, StoredKindRaw},
		{COP, StoredKindCompressed, StoredKindRaw},
		{COPER, StoredKindCompressed, StoredKindRaw},
		{ECCRegion, StoredKindRaw, StoredKindRaw},
		{ECCDIMM, StoredKindRaw, StoredKindRaw},
		{COPAdaptive, StoredKindCompressed, StoredKindRaw},
		{COPChipkill, StoredKindCompressed, StoredKindRaw},
	} {
		c := newCtrl(tc.mode)
		if err := c.Write(0, comp); err != nil {
			t.Fatal(err)
		}
		if err := c.Write(BlockBytes, raw); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := c.StoredKind(0); got != tc.compKind {
			t.Errorf("%v: compressible block kind = %v, want %v", tc.mode, got, tc.compKind)
		}
		if got := c.StoredKind(BlockBytes); got != tc.rawKind {
			t.Errorf("%v: raw block kind = %v, want %v", tc.mode, got, tc.rawKind)
		}
		if got := c.StoredKind(1 << 30); got != StoredNone {
			t.Errorf("%v: unwritten block kind = %v, want StoredNone", tc.mode, got)
		}
	}
}

// TestSettleForcesImage: after Settle, a dirty block has a fresh DRAM
// image and the next read decodes it (not the cache).
func TestSettleForcesImage(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, m := range allModes {
		c := newCtrl(m)
		d := compressibleData(rng)
		if err := c.Write(0, d); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(0); err != nil {
			t.Fatal(err)
		}
		if !c.InDRAM(0) {
			t.Fatalf("%v: no DRAM image after Settle", m)
		}
		got, info, err := c.ReadWithInfo(0)
		if err != nil || !bytes.Equal(got, d) {
			t.Fatalf("%v: read after Settle: %v", m, err)
		}
		if m != Unprotected && !info.FromDRAM {
			t.Fatalf("%v: read after Settle did not decode DRAM: %+v", m, info)
		}
		// Settling a clean resident line drops it; settling a non-resident
		// block is a no-op. Both must leave the data readable.
		if err := c.Settle(0); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(0); err != nil {
			t.Fatal(err)
		}
		if got, err := c.Read(0); err != nil || !bytes.Equal(got, d) {
			t.Fatalf("%v: read after double Settle: %v", m, err)
		}
	}
}

// TestCheckBitsRideInImage: an ECC DIMM image is the block followed by
// its ninth chip, one (72,64) check byte per word; an ECC-region image is
// the block followed by its 2-byte entry, which makes it the block's
// (523,512) code word. The check bits are the reference codes' own.
func TestCheckBitsRideInImage(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	d := randomData(rng)
	dimm := append([]byte(nil), d...)
	for w := 0; w < 8; w++ {
		dimm = append(dimm, ecc.SECDED7264.Encode(d[8*w : 8*w+8])[8])
	}
	for _, tc := range []struct {
		mode Mode
		want []byte
	}{
		{ECCDIMM, dimm},
		{ECCRegion, ecc.SECDED523512.Encode(d)},
	} {
		c := newCtrl(tc.mode)
		mustWrite(t, c, 0x40, d)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := c.DumpDRAM()[0x40]; !bytes.Equal(got, tc.want) {
			t.Fatalf("%v image % x, want % x", tc.mode, got, tc.want)
		}
		// A rewrite re-encodes the image in place.
		mustWrite(t, c, 0x40, compressibleData(rng))
		if err := c.Flush(); err != nil || len(c.DumpDRAM()[0x40]) != len(tc.want) {
			t.Fatalf("%v rewrite: %d-byte image, %v", tc.mode, len(c.DumpDRAM()[0x40]), err)
		}
	}
}
