package eccregion

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// newERStore returns a region with COP-ER's 45-bit payloads.
func newERStore() *PackedStore { return NewPacked(EntryBits - 1) }

// randPayload returns a random COP-ER payload: 45 bits left-aligned in 6
// bytes, the low 3 bits of byte 5 unused.
func randPayload(rng *rand.Rand) []byte {
	p := make([]byte, (EntryBits-1+7)/8)
	rng.Read(p)
	p[len(p)-1] &= 0xF8
	return p
}

// read returns the payload at ptr.
func read(r *PackedStore, ptr uint32) ([]byte, error) {
	p := make([]byte, r.PayloadBytes())
	return p, r.ReadPayload(p, ptr)
}

func TestConstants(t *testing.T) {
	if EntryBits != 46 {
		t.Fatalf("EntryBits = %d, want 46 (1+34+11)", EntryBits)
	}
	if EntriesPerBlock != 11 {
		t.Fatalf("EntriesPerBlock = %d, want 11", EntriesPerBlock)
	}
	if ValidBitsPerBlock != 501 {
		t.Fatalf("ValidBitsPerBlock = %d, want 501", ValidBitsPerBlock)
	}
}

func TestAllocateReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := newERStore()
	type rec struct {
		ptr uint32
		e   []byte
	}
	var recs []rec
	for i := 0; i < 100; i++ {
		e := randPayload(rng)
		ptr, err := r.AllocatePayload(e, nil)
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		recs = append(recs, rec{ptr, e})
	}
	for _, rc := range recs {
		got, err := read(r, rc.ptr)
		if err != nil {
			t.Fatalf("read %d: %v", rc.ptr, err)
		}
		if !bytes.Equal(got, rc.e) {
			t.Fatalf("entry %d mismatch: got %x want %x", rc.ptr, got, rc.e)
		}
	}
}

func TestPointersDense(t *testing.T) {
	// Fresh allocations should pack 11 entries per block before growing.
	r := newERStore()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 22; i++ {
		ptr, err := r.AllocatePayload(randPayload(rng), nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(ptr) != i {
			t.Fatalf("allocation %d got pointer %d; packing is not dense", i, ptr)
		}
	}
	if len(r.entryBlocks) != 2 {
		t.Fatalf("22 entries should occupy 2 blocks, got %d", len(r.entryBlocks))
	}
}

func TestFreeAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := newERStore()
	var ptrs []uint32
	for i := 0; i < 33; i++ {
		p, err := r.AllocatePayload(randPayload(rng), nil)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if err := r.Free(ptrs[5]); err != nil {
		t.Fatal(err)
	}
	if r.Valid(ptrs[5]) {
		t.Fatal("freed entry still valid")
	}
	if _, err := read(r, ptrs[5]); err != ErrInvalidEntry {
		t.Fatalf("read of freed entry: %v", err)
	}
	// The next allocation must reuse the freed slot rather than grow.
	blocksBefore := len(r.entryBlocks)
	p, err := r.AllocatePayload(randPayload(rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != ptrs[5] {
		t.Fatalf("expected reuse of slot %d, got %d", ptrs[5], p)
	}
	if len(r.entryBlocks) != blocksBefore {
		t.Fatal("region grew despite a free slot")
	}
}

func TestUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := newERStore()
	p, _ := r.AllocatePayload(randPayload(rng), nil)
	e2 := randPayload(rng)
	if err := r.UpdatePayload(p, e2); err != nil {
		t.Fatal(err)
	}
	got, _ := read(r, p)
	if !bytes.Equal(got, e2) {
		t.Fatal("update not visible")
	}
	if err := r.UpdatePayload(12345, e2); err != ErrInvalidEntry {
		t.Fatalf("update of bogus pointer: %v", err)
	}
}

func TestAcceptPredicateSkipsPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := newERStore()
	// Refuse even pointers: allocator must deliver odd ones.
	for i := 0; i < 20; i++ {
		p, err := r.AllocatePayload(randPayload(rng), func(ptr uint32) bool { return ptr%2 == 1 })
		if err != nil {
			t.Fatal(err)
		}
		if p%2 != 1 {
			t.Fatalf("predicate violated: pointer %d", p)
		}
	}
}

func TestValidBitTreeMarksFullBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := newERStore()
	for i := 0; i < EntriesPerBlock; i++ {
		if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !treeBit(r.l3[0], 0) {
		t.Fatal("L3 bit for full entry block not set")
	}
	if err := r.Free(0); err != nil {
		t.Fatal(err)
	}
	if treeBit(r.l3[0], 0) {
		t.Fatal("L3 bit not cleared after free")
	}
}

func TestBlocksUsedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := newERStore()
	if r.BlocksUsed() != 1 { // just the L1 block
		t.Fatalf("empty region BlocksUsed = %d", r.BlocksUsed())
	}
	for i := 0; i < 100; i++ {
		if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	// 100 entries: ceil(100/11)=10 entry blocks + 1 L3 + 1 L2 + 1 L1.
	if got := r.BlocksUsed(); got != 13 {
		t.Fatalf("BlocksUsed = %d, want 13", got)
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := newERStore()
	p, _ := r.AllocatePayload(randPayload(rng), nil)
	if s := r.Telemetry(); s.Live != 1 || s.HighWater != 1 || s.Writes == 0 {
		t.Fatalf("stats after alloc: %+v", s)
	}
	r.Free(p)
	if s := r.Telemetry(); s.Live != 0 || s.HighWater != 1 {
		t.Fatalf("stats after free: %+v", s)
	}
	if r.Telemetry().Reads == 0 {
		t.Fatal("reads not counted")
	}
}

func TestMRUAvoidsRescan(t *testing.T) {
	// Fill several L3 blocks' worth, then check the allocator's read
	// traffic stays bounded per allocation (tree working, not a scan of
	// all entries).
	rng := rand.New(rand.NewSource(9))
	r := newERStore()
	for i := 0; i < 2*ValidBitsPerBlock*EntriesPerBlock/10; i++ { // ~1100 entries
		if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Telemetry().Reads
	for i := 0; i < 10; i++ {
		if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	perAlloc := float64(r.Telemetry().Reads-before) / 10
	if perAlloc > 8 {
		t.Fatalf("allocator performs %.1f block reads per allocation; tree not effective", perAlloc)
	}
}

func TestCheckTreeParityClean(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	r := newERStore()
	for i := 0; i < 50; i++ {
		r.AllocatePayload(randPayload(rng), nil)
	}
	corrected, err := r.CheckTreeParity()
	if err != nil || corrected != 0 {
		t.Fatalf("clean tree: corrected=%d err=%v", corrected, err)
	}
}

func TestCheckTreeParityRepairsFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := newERStore()
	for i := 0; i < EntriesPerBlock+2; i++ {
		r.AllocatePayload(randPayload(rng), nil)
	}
	r.l3[0][0] ^= 0x40 // flip valid bit 1
	corrected, err := r.CheckTreeParity()
	if err != nil || corrected != 1 {
		t.Fatalf("corrected=%d err=%v", corrected, err)
	}
	if !treeBit(r.l3[0], 0) {
		t.Fatal("bit 0 damaged by repair")
	}
}

func TestAllocateRejectsBadDisplacedSize(t *testing.T) {
	r := newERStore()
	all := func(uint32) bool { return true }
	if _, err := r.Place(NoPointer, make([]byte, 3), all); err == nil {
		t.Fatal("expected error for a short payload on a fresh entry")
	}
	rng := rand.New(rand.NewSource(13))
	p, err := r.Place(NoPointer, randPayload(rng), all)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Place(p, make([]byte, 3), all); err == nil {
		t.Fatal("expected error for a short payload on a reused entry")
	}
}

func TestFreeInvalid(t *testing.T) {
	r := newERStore()
	if err := r.Free(0); err != ErrInvalidEntry {
		t.Fatalf("free on empty region: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	p, _ := r.AllocatePayload(randPayload(rng), nil)
	r.Free(p)
	if err := r.Free(p); err != ErrInvalidEntry {
		t.Fatalf("double free: %v", err)
	}
}

func TestEntryIsolationQuick(t *testing.T) {
	// Writing one entry never disturbs its neighbours.
	f := func(seed int64, slot uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newERStore()
		var entries [][]byte
		for i := 0; i < EntriesPerBlock; i++ {
			e := randPayload(rng)
			entries = append(entries, e)
			if _, err := r.AllocatePayload(e, nil); err != nil {
				return false
			}
		}
		s := int(slot) % EntriesPerBlock
		e2 := randPayload(rng)
		if err := r.UpdatePayload(uint32(s), e2); err != nil {
			return false
		}
		entries[s] = e2
		for i, want := range entries {
			got, err := read(r, uint32(i))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePropagationThroughL2(t *testing.T) {
	// Fill one whole L3 block's worth of entry blocks (501 blocks × 11
	// entries): the corresponding L2 bit must be set; freeing one entry
	// must clear it again.
	rng := rand.New(rand.NewSource(42))
	r := newERStore()
	total := ValidBitsPerBlock * EntriesPerBlock
	for i := 0; i < total; i++ {
		if _, err := r.AllocatePayload(randPayload(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !treeBit(r.l2[0], 0) {
		t.Fatal("L2 bit not set when its L3 block filled")
	}
	if err := r.Free(0); err != nil {
		t.Fatal(err)
	}
	if treeBit(r.l2[0], 0) {
		t.Fatal("L2 bit not cleared on free")
	}
	if treeBit(r.l3[0], 0) {
		t.Fatal("L3 bit not cleared on free")
	}
	// Next allocation reuses the freed slot.
	p, err := r.AllocatePayload(randPayload(rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("expected reuse of entry 0, got %d", p)
	}
	if !treeBit(r.l2[0], 0) {
		t.Fatal("L2 bit not restored when block refilled")
	}
	// Tree parity must be coherent across all those updates.
	if corrected, err := r.CheckTreeParity(); err != nil || corrected != 0 {
		t.Fatalf("tree parity after churn: corrected=%d err=%v", corrected, err)
	}
}

func TestCheckTreeParityUncorrectable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := newERStore()
	for i := 0; i < EntriesPerBlock+1; i++ {
		r.AllocatePayload(randPayload(rng), nil)
	}
	r.l3[0][0] ^= 0xC0 // two bit flips in one valid-bit block
	if _, err := r.CheckTreeParity(); err == nil {
		t.Fatal("double flip in valid bits should be uncorrectable")
	}
}

func TestValidOutOfRange(t *testing.T) {
	r := newERStore()
	if r.Valid(1 << 20) {
		t.Fatal("pointer past the region reported valid")
	}
	if _, err := read(r, 1<<20); err != ErrInvalidEntry {
		t.Fatal("read past the region should fail")
	}
	if err := r.UpdatePayload(1<<20, make([]byte, r.PayloadBytes())); err != ErrInvalidEntry {
		t.Fatal("update past the region should fail")
	}
}

func TestPackedStoreGenericPayloads(t *testing.T) {
	// The chipkill extension uses 157-bit payloads; exercise the store
	// directly at several widths.
	for _, bits := range []int{7, 45, 157, 400, 511} {
		s := NewPacked(bits)
		wantPer := 8 * BlockBytes / (bits + 1)
		if s.EntriesPerBlockCount() != wantPer {
			t.Fatalf("bits=%d: entries/block = %d, want %d", bits, s.EntriesPerBlockCount(), wantPer)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		type rec struct {
			ptr     uint32
			payload []byte
		}
		var recs []rec
		for i := 0; i < 3*wantPer+1; i++ {
			p := make([]byte, s.PayloadBytes())
			rng.Read(p)
			if bits%8 != 0 {
				p[len(p)-1] &= byte(0xFF) << uint(8-bits%8)
			}
			ptr, err := s.AllocatePayload(p, nil)
			if err != nil {
				t.Fatalf("bits=%d alloc %d: %v", bits, i, err)
			}
			recs = append(recs, rec{ptr, p})
		}
		for _, rc := range recs {
			got, err := read(s, rc.ptr)
			if err != nil || !bytes.Equal(got, rc.payload) {
				t.Fatalf("bits=%d ptr=%d: %v", bits, rc.ptr, err)
			}
		}
	}
}

func TestPackedStoreValidation(t *testing.T) {
	for _, bad := range []int{0, -5, 512, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPacked(%d) should panic", bad)
				}
			}()
			NewPacked(bad)
		}()
	}
	s := NewPacked(45)
	if _, err := s.AllocatePayload(make([]byte, 3), nil); err == nil {
		t.Fatal("short payload accepted")
	}
	if err := s.UpdatePayload(0, make([]byte, 3)); err == nil {
		t.Fatal("short update payload accepted")
	}
}

func TestPlaceReuseAndRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	r := newERStore()
	all := func(uint32) bool { return true }
	p, err := r.Place(NoPointer, randPayload(rng), all)
	if err != nil {
		t.Fatal(err)
	}
	// A block that stays raw rewrites its own entry.
	e := randPayload(rng)
	if p2, err := r.Place(p, e, all); err != nil || p2 != p {
		t.Fatalf("reuse: got %d (%v), want %d", p2, err, p)
	}
	if got, _ := read(r, p); !bytes.Equal(got, e) {
		t.Fatal("reused entry not rewritten")
	}
	// A pointer the codec refuses moves the block to a fresh entry and
	// frees the old one.
	p3, err := r.Place(p, e, func(q uint32) bool { return q != p })
	if err != nil || p3 == p {
		t.Fatalf("refused pointer: got %d (%v)", p3, err)
	}
	if r.Valid(p) || r.Telemetry().Live != 1 {
		t.Fatalf("old entry still live: valid=%v live=%d", r.Valid(p), r.Telemetry().Live)
	}
	// A stale prev is ignored.
	if p4, err := r.Place(p, randPayload(rng), all); err != nil || p4 == p3 || r.Telemetry().Live != 2 {
		t.Fatalf("stale prev: got %d (%v), live=%d", p4, err, r.Telemetry().Live)
	}
	r.Release(p3)
	r.Release(p3)
	r.Release(NoPointer)
	if r.Valid(p3) || r.Telemetry().Live != 1 || r.Telemetry().Frees != 2 {
		t.Fatalf("release: valid=%v %+v", r.Valid(p3), r.Telemetry())
	}
}

func TestPointerCode(t *testing.T) {
	pos := make([]int, DisplacedBits)
	for i := range pos {
		pos[i] = 15 * i // spread over a 64-byte image
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		ptr := uint32(rng.Intn(MaxEntries))
		img := make([]byte, BlockBytes)
		rng.Read(img)
		PutPointer(img, pos, ptr)
		if got, corrected, ok := GetPointer(img, pos); !ok || corrected || got != ptr {
			t.Fatalf("ptr %d: got %d corrected=%v ok=%v", ptr, got, corrected, ok)
		}
		flip := pos[rng.Intn(len(pos))]
		img[flip/8] ^= 0x80 >> (flip % 8)
		if got, corrected, ok := GetPointer(img, pos); !ok || !corrected || got != ptr {
			t.Fatalf("ptr %d, bit %d flipped: got %d corrected=%v ok=%v", ptr, flip, got, corrected, ok)
		}
	}
}
