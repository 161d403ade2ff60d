package eccregion

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randEntry(rng *rand.Rand) Entry {
	d := make([]byte, (DisplacedBits+7)/8)
	rng.Read(d)
	d[len(d)-1] &= 0xC0 // 34 bits left-aligned in 5 bytes: low 6 bits of byte 4 unused
	return Entry{Displaced: d, Parity: uint16(rng.Intn(1 << ParityBits))}
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
	r := New()
	type rec struct {
		ptr uint32
		e   Entry
	}
	var recs []rec
	for i := 0; i < 100; i++ {
		e := randEntry(rng)
		ptr, err := r.Allocate(e, nil)
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		recs = append(recs, rec{ptr, e})
	}
	for _, rc := range recs {
		got, err := r.Read(rc.ptr)
		if err != nil {
			t.Fatalf("read %d: %v", rc.ptr, err)
		}
		if !bytes.Equal(got.Displaced, rc.e.Displaced) || got.Parity != rc.e.Parity {
			t.Fatalf("entry %d mismatch: got %+v want %+v", rc.ptr, got, rc.e)
		}
	}
}

func TestPointersDense(t *testing.T) {
	// Fresh allocations should pack 11 entries per block before growing.
	r := New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 22; i++ {
		ptr, err := r.Allocate(randEntry(rng), nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(ptr) != i {
			t.Fatalf("allocation %d got pointer %d; packing is not dense", i, ptr)
		}
	}
	if len(r.store.entryBlocks) != 2 {
		t.Fatalf("22 entries should occupy 2 blocks, got %d", len(r.store.entryBlocks))
	}
}

func TestFreeAndReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := New()
	var ptrs []uint32
	for i := 0; i < 33; i++ {
		p, err := r.Allocate(randEntry(rng), nil)
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
	if _, err := r.Read(ptrs[5]); err != ErrInvalidEntry {
		t.Fatalf("read of freed entry: %v", err)
	}
	// The next allocation must reuse the freed slot rather than grow.
	blocksBefore := len(r.store.entryBlocks)
	p, err := r.Allocate(randEntry(rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != ptrs[5] {
		t.Fatalf("expected reuse of slot %d, got %d", ptrs[5], p)
	}
	if len(r.store.entryBlocks) != blocksBefore {
		t.Fatal("region grew despite a free slot")
	}
}

func TestUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := New()
	p, _ := r.Allocate(randEntry(rng), nil)
	e2 := randEntry(rng)
	if err := r.Update(p, e2); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Read(p)
	if !bytes.Equal(got.Displaced, e2.Displaced) || got.Parity != e2.Parity {
		t.Fatal("update not visible")
	}
	if err := r.Update(12345, e2); err != ErrInvalidEntry {
		t.Fatalf("update of bogus pointer: %v", err)
	}
}

func TestAcceptPredicateSkipsPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := New()
	// Refuse even pointers: allocator must deliver odd ones.
	for i := 0; i < 20; i++ {
		p, err := r.Allocate(randEntry(rng), func(ptr uint32) bool { return ptr%2 == 1 })
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
	r := New()
	for i := 0; i < EntriesPerBlock; i++ {
		if _, err := r.Allocate(randEntry(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !treeBit(r.store.l3[0], 0) {
		t.Fatal("L3 bit for full entry block not set")
	}
	if err := r.Free(0); err != nil {
		t.Fatal(err)
	}
	if treeBit(r.store.l3[0], 0) {
		t.Fatal("L3 bit not cleared after free")
	}
}

func TestBlocksUsedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := New()
	if r.BlocksUsed() != 1 { // just the L1 block
		t.Fatalf("empty region BlocksUsed = %d", r.BlocksUsed())
	}
	for i := 0; i < 100; i++ {
		if _, err := r.Allocate(randEntry(rng), nil); err != nil {
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
	r := New()
	p, _ := r.Allocate(randEntry(rng), nil)
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
	r := New()
	for i := 0; i < 2*ValidBitsPerBlock*EntriesPerBlock/10; i++ { // ~1100 entries
		if _, err := r.Allocate(randEntry(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Telemetry().Reads
	for i := 0; i < 10; i++ {
		if _, err := r.Allocate(randEntry(rng), nil); err != nil {
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
	r := New()
	for i := 0; i < 50; i++ {
		r.Allocate(randEntry(rng), nil)
	}
	corrected, err := r.CheckTreeParity()
	if err != nil || corrected != 0 {
		t.Fatalf("clean tree: corrected=%d err=%v", corrected, err)
	}
}

func TestCheckTreeParityRepairsFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := New()
	for i := 0; i < EntriesPerBlock+2; i++ {
		r.Allocate(randEntry(rng), nil)
	}
	r.store.l3[0][0] ^= 0x40 // flip valid bit 1
	corrected, err := r.CheckTreeParity()
	if err != nil || corrected != 1 {
		t.Fatalf("corrected=%d err=%v", corrected, err)
	}
	if !treeBit(r.store.l3[0], 0) {
		t.Fatal("bit 0 damaged by repair")
	}
}

func TestAllocateRejectsBadDisplacedSize(t *testing.T) {
	r := New()
	if _, err := r.Allocate(Entry{Displaced: make([]byte, 3)}, nil); err == nil {
		t.Fatal("expected error for short displaced data")
	}
}

func TestFreeInvalid(t *testing.T) {
	r := New()
	if err := r.Free(0); err != ErrInvalidEntry {
		t.Fatalf("free on empty region: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	p, _ := r.Allocate(randEntry(rng), nil)
	r.Free(p)
	if err := r.Free(p); err != ErrInvalidEntry {
		t.Fatalf("double free: %v", err)
	}
}

func TestEntryIsolationQuick(t *testing.T) {
	// Writing one entry never disturbs its neighbours.
	f := func(seed int64, slot uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		var entries []Entry
		for i := 0; i < EntriesPerBlock; i++ {
			e := randEntry(rng)
			entries = append(entries, e)
			if _, err := r.Allocate(e, nil); err != nil {
				return false
			}
		}
		s := int(slot) % EntriesPerBlock
		e2 := randEntry(rng)
		if err := r.Update(uint32(s), e2); err != nil {
			return false
		}
		entries[s] = e2
		for i, want := range entries {
			got, err := r.Read(uint32(i))
			if err != nil || !bytes.Equal(got.Displaced, want.Displaced) || got.Parity != want.Parity {
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
	r := New()
	total := ValidBitsPerBlock * EntriesPerBlock
	for i := 0; i < total; i++ {
		if _, err := r.Allocate(randEntry(rng), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !treeBit(r.store.l2[0], 0) {
		t.Fatal("L2 bit not set when its L3 block filled")
	}
	if err := r.Free(0); err != nil {
		t.Fatal(err)
	}
	if treeBit(r.store.l2[0], 0) {
		t.Fatal("L2 bit not cleared on free")
	}
	if treeBit(r.store.l3[0], 0) {
		t.Fatal("L3 bit not cleared on free")
	}
	// Next allocation reuses the freed slot.
	p, err := r.Allocate(randEntry(rng), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("expected reuse of entry 0, got %d", p)
	}
	if !treeBit(r.store.l2[0], 0) {
		t.Fatal("L2 bit not restored when block refilled")
	}
	// Tree parity must be coherent across all those updates.
	if corrected, err := r.CheckTreeParity(); err != nil || corrected != 0 {
		t.Fatalf("tree parity after churn: corrected=%d err=%v", corrected, err)
	}
}

func TestCheckTreeParityUncorrectable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	r := New()
	for i := 0; i < EntriesPerBlock+1; i++ {
		r.Allocate(randEntry(rng), nil)
	}
	r.store.l3[0][0] ^= 0xC0 // two bit flips in one valid-bit block
	if _, err := r.CheckTreeParity(); err == nil {
		t.Fatal("double flip in valid bits should be uncorrectable")
	}
}

func TestValidOutOfRange(t *testing.T) {
	r := New()
	if r.Valid(1 << 20) {
		t.Fatal("pointer past the region reported valid")
	}
	if _, err := r.Read(1 << 20); err != ErrInvalidEntry {
		t.Fatal("read past the region should fail")
	}
	if err := r.Update(1<<20, Entry{Displaced: make([]byte, 5)}); err != ErrInvalidEntry {
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
			got, err := s.ReadPayload(rc.ptr)
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
