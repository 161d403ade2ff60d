package chipkill

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"cop/internal/core"

	"cop/internal/workload"
)

func pointerBlock(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	base := uint64(0x00007FCC_00000000)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(b[8*i:], base|uint64(rng.Intn(1<<18)))
	}
	return b
}

func randomBlock(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	rng.Read(b)
	return b
}

func TestLayoutConstants(t *testing.T) {
	if PayloadBytes != 54 || Beats != 8 {
		t.Fatalf("layout: payload=%d beats=%d", PayloadBytes, Beats)
	}
	// Every parity byte must live on chip 7; payload+CRC on chips 0-6.
	for _, off := range physOffsets {
		if off%Chips == Chips-1 {
			t.Fatalf("record byte placed on the parity chip: offset %d", off)
		}
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New()
	for trial := 0; trial < 100; trial++ {
		b := pointerBlock(rng)
		img, status := c.Encode(b)
		if status != core.StoredCompressed {
			t.Fatalf("status = %v", status)
		}
		got, info, err := c.Decode(img)
		if err != nil || !info.Protected || info.FailedChip != -1 {
			t.Fatalf("decode: %v %+v", err, info)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestWholeChipFailureEveryChip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := New()
	b := pointerBlock(rng)
	img, status := c.Encode(b)
	if status != core.StoredCompressed {
		t.Fatal("setup: block should protect")
	}
	for chip := 0; chip < Chips; chip++ {
		for _, pattern := range []byte{0x00, 0x5A, 0xFF} {
			corrupted := append([]byte(nil), img...)
			FailChip(corrupted, chip, pattern)
			got, info, err := c.Decode(corrupted)
			if err != nil {
				t.Fatalf("chip %d pattern %#x: %v", chip, pattern, err)
			}
			if !info.Protected || info.FailedChip != chip {
				t.Fatalf("chip %d: info %+v", chip, info)
			}
			if !bytes.Equal(got, b) {
				t.Fatalf("chip %d: corruption after reconstruction", chip)
			}
		}
	}
}

func TestSingleBitErrorsCorrected(t *testing.T) {
	// Any corruption confined to one chip — including single-bit flips —
	// corrects via the erasure path.
	rng := rand.New(rand.NewSource(3))
	c := New()
	b := pointerBlock(rng)
	img, _ := c.Encode(b)
	for bit := 0; bit < 8*BlockBytes; bit += 3 {
		corrupted := append([]byte(nil), img...)
		corrupted[bit/8] ^= 1 << (7 - bit%8)
		got, info, err := c.Decode(corrupted)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("bit %d: corruption", bit)
		}
		if wantChip := (bit / 8) % Chips; info.FailedChip != wantChip {
			t.Fatalf("bit %d: failed chip %d, want %d", bit, info.FailedChip, wantChip)
		}
	}
}

func TestRawBlocksPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := New()
	raw := 0
	for trial := 0; trial < 100; trial++ {
		b := randomBlock(rng)
		img, status := c.Encode(b)
		if status == core.RejectedAlias {
			continue
		}
		if status != core.StoredRaw {
			continue // random block happened to compress
		}
		raw++
		got, info, err := c.Decode(img)
		if err != nil || info.Protected {
			t.Fatalf("raw decode: %v %+v", err, info)
		}
		if !bytes.Equal(got, b) {
			t.Fatal("raw round trip mismatch")
		}
	}
	if raw < 50 {
		t.Fatalf("only %d/100 random blocks stored raw", raw)
	}
}

func TestTwoChipFailuresNotSilentlyAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New()
	b := pointerBlock(rng)
	img, _ := c.Encode(b)
	for trial := 0; trial < 50; trial++ {
		c1 := rng.Intn(Chips)
		c2 := (c1 + 1 + rng.Intn(Chips-1)) % Chips
		corrupted := append([]byte(nil), img...)
		FailChip(corrupted, c1, byte(rng.Intn(256)))
		FailChip(corrupted, c2, byte(rng.Intn(256)))
		got, info, _ := c.Decode(corrupted)
		if info.Protected && bytes.Equal(got, b) {
			continue // miracle recovery is acceptable, silence is not tested here
		}
		if info.Protected {
			t.Fatal("two-chip damage validated a wrong hypothesis")
		}
	}
}

func TestAliasRateRandomBlocks(t *testing.T) {
	// Raw blocks alias with probability ≈ 9×2^-16 ≈ 0.014%.
	rng := rand.New(rand.NewSource(6))
	c := New()
	aliases := 0
	const n = 20000
	b := make([]byte, BlockBytes)
	for i := 0; i < n; i++ {
		rng.Read(b)
		if c.IsAlias(b) {
			aliases++
		}
	}
	if aliases > 25 {
		t.Fatalf("alias rate %d/%d too high", aliases, n)
	}
}

func TestWorkloadCoverage(t *testing.T) {
	// The 15.6% compression target covers pointer/integer data well but
	// not floats (only the 11 exponent bits are shared across words) —
	// the §3.1 strength-vs-coverage trade-off at chipkill scale.
	c := New()
	coverage := func(name string) float64 {
		p := workload.MustGet(name)
		protected, total := 0, 0
		for _, blk := range p.SampleBlocks(500, 0xCC) {
			total++
			if _, status := c.Encode(blk); status == core.StoredCompressed {
				protected++
			}
		}
		return float64(protected) / float64(total)
	}
	if f := coverage("mcf"); f < 0.7 {
		t.Fatalf("mcf chipkill coverage %.2f too low", f)
	}
	if f := coverage("gcc"); f < 0.7 {
		t.Fatalf("gcc chipkill coverage %.2f too low", f)
	}
	if f := coverage("lbm"); f > 0.3 {
		t.Fatalf("lbm chipkill coverage %.2f unexpectedly high — float model changed?", f)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE("123456789") = 0x29B1.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16 = %#x, want 0x29b1", got)
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	c := New()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := pointerBlock(rng)
		img, status := c.Encode(b)
		if status != core.StoredCompressed {
			return true
		}
		// Clean, then one random chip failure.
		got, _, err := c.Decode(img)
		if err != nil || !bytes.Equal(got, b) {
			return false
		}
		FailChip(img, rng.Intn(Chips), byte(rng.Intn(256)))
		got, info, err := c.Decode(img)
		return err == nil && info.Protected && bytes.Equal(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
