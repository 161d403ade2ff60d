package eccregion

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestTreeBoundaryAllocFreeRealloc walks allocate → free → realloc across
// every structural boundary of the three-level valid-bit tree: the first
// and last slot of an entry block (0 and 10), the first slot of the next
// block (11), a mid-region block boundary (entry 500), and both sides of
// the L3 fan-out boundary (entries 5510/5511 — the last entry summarized
// by L3 block 0 and the first summarized by L3 block 1). Each case fills
// every covering block completely, so the target's valid bit is set at
// every tree level, then verifies the free/realloc transitions ripple
// through L3 (and, at the fan-out boundary, L2) correctly with coherent
// tree parity throughout.
func TestTreeBoundaryAllocFreeRealloc(t *testing.T) {
	lastOfL3 := uint32(ValidBitsPerBlock*EntriesPerBlock - 1) // 5510
	cases := []struct {
		name    string
		prefill int    // allocations before the free; fills target's block
		target  uint32 // entry pointer to free and reallocate
		l3Block int    // tree block holding the target's valid bit
		l3Bit   int    // bit index within that block
		checkL2 bool   // target's L3 block is full, so L2 participates
	}{
		{"first-slot-first-block", EntriesPerBlock, 0, 0, 0, false},
		{"last-slot-first-block", EntriesPerBlock, 10, 0, 0, false},
		{"first-slot-second-block", 2 * EntriesPerBlock, 11, 0, 1, false},
		{"mid-region-block-boundary", 46 * EntriesPerBlock, 500, 0, 45, false},
		{"last-entry-of-l3-block", int(lastOfL3) + 1, lastOfL3, 0, ValidBitsPerBlock - 1, true},
		{"first-entry-past-l3-fanout", int(lastOfL3) + 1 + EntriesPerBlock, lastOfL3 + 1, 1, 0, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.target)))
			r := newERStore()
			for i := 0; i < tc.prefill; i++ {
				if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
					t.Fatalf("prefill %d: %v", i, err)
				}
			}
			if !r.Valid(tc.target) {
				t.Fatalf("entry %d not valid after prefill", tc.target)
			}
			if !treeBit(r.l3[tc.l3Block], tc.l3Bit) {
				t.Fatalf("L3[%d] bit %d not set for full block", tc.l3Block, tc.l3Bit)
			}
			if tc.checkL2 && !treeBit(r.l2[0], 0) {
				t.Fatal("L2 bit 0 not set with its whole L3 block full")
			}

			if err := r.Free(tc.target); err != nil {
				t.Fatalf("free: %v", err)
			}
			if r.Valid(tc.target) {
				t.Fatal("entry still valid after free")
			}
			if treeBit(r.l3[tc.l3Block], tc.l3Bit) {
				t.Fatal("L3 bit not cleared by free")
			}
			if tc.checkL2 && treeBit(r.l2[0], 0) {
				t.Fatal("L2 bit not cleared by free")
			}
			if corrected, err := r.CheckTreeParity(); err != nil || corrected != 0 {
				t.Fatalf("tree parity after free: corrected=%d err=%v", corrected, err)
			}

			// The freed slot is the only hole, so reallocation must land
			// exactly there and re-fill the block at every level.
			e := randPayload(rng)
			ptr, err := r.AllocatePayload(e, nil)
			if err != nil {
				t.Fatalf("realloc: %v", err)
			}
			if ptr != tc.target {
				t.Fatalf("realloc returned %d, want the freed slot %d", ptr, tc.target)
			}
			got, err := read(r, ptr)
			if err != nil || !bytes.Equal(got, e) {
				t.Fatalf("readback after realloc: %x err=%v", got, err)
			}
			if !treeBit(r.l3[tc.l3Block], tc.l3Bit) {
				t.Fatal("L3 bit not restored by realloc")
			}
			if tc.checkL2 && !treeBit(r.l2[0], 0) {
				t.Fatal("L2 bit not restored by realloc")
			}
			if corrected, err := r.CheckTreeParity(); err != nil || corrected != 0 {
				t.Fatalf("tree parity after realloc: corrected=%d err=%v", corrected, err)
			}
		})
	}
}
