package chipkill

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"

	"cop/internal/core"
	"cop/internal/eccregion"
)

func incompressibleCK(rng *rand.Rand, er *ERCodec) []byte {
	for {
		b := randomBlock(rng)
		if _, status := er.ck.Encode(b); status != core.StoredCompressed {
			if !looksProtected(b) {
				return b
			}
		}
	}
}

func TestERInlinePath(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	er := NewER()
	b := pointerBlock(rng)
	img, ptr, inline, err := er.Write(b, eccregion.NoPointer)
	if err != nil || !inline || ptr != eccregion.NoPointer {
		t.Fatalf("inline write: %v inline=%v", err, inline)
	}
	got, info, err := er.Read(img)
	if err != nil || !info.Protected || info.RegionAccess {
		t.Fatalf("read: %v %+v", err, info)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("round trip mismatch")
	}
	if er.Region().Telemetry().Live != 0 {
		t.Fatal("inline blocks must not allocate entries")
	}
}

func TestERRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	er := NewER()
	for trial := 0; trial < 30; trial++ {
		b := incompressibleCK(rng, er)
		img, ptr, inline, err := er.Write(b, eccregion.NoPointer)
		if err != nil || inline || ptr == eccregion.NoPointer {
			t.Fatalf("raw write: %v inline=%v ptr=%d", err, inline, ptr)
		}
		got, info, err := er.Read(img)
		if err != nil || !info.RegionAccess || info.FailedChip != -1 {
			t.Fatalf("read: %v %+v", err, info)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("raw round trip mismatch")
		}
	}
}

func TestERChipFailureOnRawBlocks(t *testing.T) {
	// The whole point: incompressible blocks survive a dead chip too.
	rng := rand.New(rand.NewSource(3))
	er := NewER()
	b := incompressibleCK(rng, er)
	img, _, _, err := er.Write(b, eccregion.NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	copyBUsed := false
	for chip := 0; chip < Chips; chip++ {
		for _, pattern := range []byte{0x00, 0xA5, 0xFF} {
			dam := append([]byte(nil), img...)
			FailChip(dam, chip, pattern)
			got, info, rerr := er.Read(dam)
			if rerr != nil {
				t.Fatalf("chip %d pattern %#x: %v", chip, pattern, rerr)
			}
			if info.FailedChip != chip {
				t.Fatalf("chip %d: identified %d", chip, info.FailedChip)
			}
			if !bytes.Equal(got, b) {
				t.Fatalf("chip %d: corruption", chip)
			}
			if info.UsedCopyB {
				copyBUsed = true
			}
		}
	}
	// Heavy damage on chips 0-3 wrecks copy A beyond SEC range; copy B
	// must have carried the pointer at least once. (Light patterns that
	// flip a single copy-A bit are legitimately SEC-corrected in place.)
	if !copyBUsed {
		t.Fatal("pointer copy B never used despite copy-A-side chip failures")
	}
}

func TestERChipFailureOnInlineBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	er := NewER()
	b := pointerBlock(rng)
	img, _, _, _ := er.Write(b, eccregion.NoPointer)
	for chip := 0; chip < Chips; chip++ {
		dam := append([]byte(nil), img...)
		FailChip(dam, chip, 0x3C)
		got, info, err := er.Read(dam)
		if err != nil || !info.Protected || info.FailedChip != chip {
			t.Fatalf("chip %d: %v %+v", chip, err, info)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("chip %d: corruption", chip)
		}
	}
}

func TestERSingleBitErrorsRawBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	er := NewER()
	b := incompressibleCK(rng, er)
	img, ptr, _, err := er.Write(b, eccregion.NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*BlockBytes; bit += 3 {
		dam := append([]byte(nil), img...)
		dam[bit/8] ^= 1 << (7 - bit%8)
		got, _, rerr := er.Read(dam)
		if rerr != nil {
			t.Fatalf("bit %d: %v", bit, rerr)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("bit %d: corruption", bit)
		}
	}
	// Entry-resident faults correct via the (157,148) code.
	for bit := 1; bit < ckEntryCW+1; bit += 7 {
		if !er.Region().FlipEntryBit(ptr, bit) {
			t.Fatalf("flip %d failed", bit)
		}
		got, info, rerr := er.Read(img)
		if rerr != nil || !bytes.Equal(got, b) {
			t.Fatalf("entry bit %d: %v", bit, rerr)
		}
		if !info.CorrectedEntry {
			t.Fatalf("entry bit %d: correction not reported", bit)
		}
		er.Region().FlipEntryBit(ptr, bit)
	}
}

func TestEREntryReuseAndFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	er := NewER()
	b := incompressibleCK(rng, er)
	_, ptr, _, err := er.Write(b, eccregion.NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite incompressible: reuse.
	b2 := incompressibleCK(rng, er)
	img2, ptr2, _, err := er.Write(b2, ptr)
	if err != nil || ptr2 != ptr {
		t.Fatalf("reuse: %v %d->%d", err, ptr, ptr2)
	}
	got, _, err := er.Read(img2)
	if err != nil || !bytes.Equal(got, b2) {
		t.Fatalf("reuse round trip: %v", err)
	}
	// Rewrite compressible: free.
	_, ptr3, inline, err := er.Write(pointerBlock(rng), ptr)
	if err != nil || !inline || ptr3 != eccregion.NoPointer {
		t.Fatalf("free path: %v", err)
	}
	if er.Region().Telemetry().Live != 0 {
		t.Fatalf("entry leaked: %d", er.Region().Telemetry().Live)
	}
}

func TestERUnrecoverableMultiChip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	er := NewER()
	b := incompressibleCK(rng, er)
	img, _, _, _ := er.Write(b, eccregion.NoPointer)
	dam := append([]byte(nil), img...)
	FailChip(dam, 1, 0x55)
	FailChip(dam, 6, 0x99) // kills both pointer copies' home regions? copy A on 0-3, copy B on 4-7
	got, _, err := er.Read(dam)
	if err == nil && bytes.Equal(got, b) {
		t.Skip("double-chip damage accidentally recovered (CRC collision) — acceptable")
	}
	if err == nil {
		t.Fatal("double-chip damage returned wrong data without error")
	}
}

func TestERPackedEntryGeometry(t *testing.T) {
	er := NewER()
	if er.Region().PayloadBits() != ckEntryCW {
		t.Fatalf("payload bits = %d", er.Region().PayloadBits())
	}
	if got := er.Region().EntriesPerBlockCount(); got != 3 {
		t.Fatalf("entries per block = %d, want 3 (158-bit entries)", got)
	}
	// Copies must live on disjoint chip halves.
	for _, p := range er.copyA {
		if (p/8)%Chips >= 4 {
			t.Fatalf("copy A position %d on chip %d", p, (p/8)%Chips)
		}
	}
	for _, p := range er.copyB {
		if (p/8)%Chips < 4 {
			t.Fatalf("copy B position %d on chip %d", p, (p/8)%Chips)
		}
	}
}

func TestERManyBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	er := NewER()
	type stored struct{ img, b []byte }
	var all []stored
	for i := 0; i < 100; i++ {
		b := incompressibleCK(rng, er)
		img, _, _, err := er.Write(b, eccregion.NoPointer)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, stored{img, b})
	}
	for i, s := range all {
		// Fail a rotating chip on every stored image.
		dam := append([]byte(nil), s.img...)
		FailChip(dam, i%Chips, byte(i))
		got, info, err := er.Read(dam)
		if err != nil || !bytes.Equal(got, s.b) {
			t.Fatalf("block %d: %v", i, err)
		}
		if info.FailedChip != i%Chips {
			t.Fatalf("block %d: chip %d identified as %d", i, i%Chips, info.FailedChip)
		}
	}
}

func TestERQuickArbitraryBlocks(t *testing.T) {
	er := NewER()
	f := func(seed int64, chip uint8, pattern byte) bool {
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		if seed%2 == 0 {
			b = pointerBlock(rng)
		} else {
			b = randomBlock(rng)
		}
		img, _, _, err := er.Write(b, eccregion.NoPointer)
		if err != nil {
			return false
		}
		// Clean read.
		got, _, err := er.Read(img)
		if err != nil || !bytes.Equal(got, b) {
			return false
		}
		// Chip failure read.
		dam := append([]byte(nil), img...)
		FailChip(dam, int(chip)%Chips, pattern)
		got, _, err = er.Read(dam)
		return err == nil && bytes.Equal(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestERReadPtr(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	er := NewER()
	b := incompressibleCK(rng, er)
	img, ptr, _, err := er.Write(b, eccregion.NoPointer)
	if err != nil {
		t.Fatal(err)
	}
	if _, info, err := er.Read(img); err != nil || info.Ptr != ptr {
		t.Fatalf("Read Ptr = (%d,%v), want (%d,nil)", info.Ptr, err, ptr)
	}
	// Inline images carry no pointer.
	inlineImg, _, _, _ := er.Write(pointerBlock(rng), eccregion.NoPointer)
	if _, info, err := er.Read(inlineImg); err != nil || info.Ptr != eccregion.NoPointer {
		t.Fatalf("inline image read Ptr = (%d,%v), want eccregion.NoPointer", info.Ptr, err)
	}
}

// TestERStoredBytesFixed pins COP-CK-ER's stored form: a fixed raw block,
// written 45 times without a pointer so its last entry is number 44, has
// kept the image (both pointer copies) and the 157-bit region payload the
// codec has always stored.
func TestERStoredBytesFixed(t *testing.T) {
	const (
		wantImage   = "000002c6000002c6461abd8b4a320c5b7b09888f963ed2a971ecabcb015b26f959fe84499f72d9ccb09a27e80013c8d30b3bee912ba0e2e4f1135ade7cc0fc70"
		wantPayload = "a94320931615547a6ecc5a67892edc2561322330"
	)
	block := make([]byte, BlockBytes)
	x := uint64(0x243F6A8885A308D3)
	for i := range block {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		block[i] = byte(x >> 24)
	}
	er := NewER()
	var img []byte
	var ptr uint32
	for i := 0; i < 45; i++ {
		var err error
		if img, ptr, _, err = er.Write(block, eccregion.NoPointer); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, er.Region().PayloadBytes())
	if err := er.Region().ReadPayload(payload, ptr); err != nil || ptr != 44 {
		t.Fatalf("ptr %d, %v", ptr, err)
	}
	if got := hex.EncodeToString(img); got != wantImage {
		t.Errorf("image %s, want %s", got, wantImage)
	}
	if got := hex.EncodeToString(payload); got != wantPayload {
		t.Errorf("payload %s, want %s", got, wantPayload)
	}
}
