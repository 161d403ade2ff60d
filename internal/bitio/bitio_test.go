package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitSetBit(t *testing.T) {
	buf := make([]byte, 2)
	SetBit(buf, 0, 1)
	if buf[0] != 0x80 {
		t.Fatalf("bit 0 should be MSB of byte 0: got %#x", buf[0])
	}
	SetBit(buf, 7, 1)
	if buf[0] != 0x81 {
		t.Fatalf("bit 7 should be LSB of byte 0: got %#x", buf[0])
	}
	SetBit(buf, 8, 1)
	if buf[1] != 0x80 {
		t.Fatalf("bit 8 should be MSB of byte 1: got %#x", buf[1])
	}
	if Bit(buf, 0) != 1 || Bit(buf, 1) != 0 || Bit(buf, 7) != 1 || Bit(buf, 8) != 1 {
		t.Fatal("Bit readback mismatch")
	}
	SetBit(buf, 0, 0)
	if Bit(buf, 0) != 0 {
		t.Fatal("clearing a bit failed")
	}
}

func TestFlipBit(t *testing.T) {
	buf := make([]byte, 4)
	for i := 0; i < 32; i++ {
		FlipBit(buf, i)
		if Bit(buf, i) != 1 {
			t.Fatalf("flip bit %d: expected 1", i)
		}
		FlipBit(buf, i)
		if Bit(buf, i) != 0 {
			t.Fatalf("double flip bit %d: expected 0", i)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(128)
	w.WriteBits(0b101, 3)
	w.WriteBit(1)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBits(0, 0)
	w.WriteBits(0x3FF, 10)
	r := NewReader(w.Bytes())
	if got := r.ReadBits(3); got != 0b101 {
		t.Fatalf("3-bit field: got %#b", got)
	}
	if got := r.ReadBit(); got != 1 {
		t.Fatalf("single bit: got %d", got)
	}
	if got := r.ReadBits(32); got != 0xDEADBEEF {
		t.Fatalf("32-bit field: got %#x", got)
	}
	if got := r.ReadBits(10); got != 0x3FF {
		t.Fatalf("10-bit field: got %#x", got)
	}
	if r.Err() {
		t.Fatal("unexpected reader error")
	}
}

func TestWriterWriteBytesUnaligned(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(1, 1)
	w.WriteBytes([]byte{0xAB, 0xCD})
	r := NewReader(w.Bytes())
	if got := r.ReadBits(1); got != 1 {
		t.Fatal("leading bit lost")
	}
	if got := r.ReadBytes(2); !bytes.Equal(got, []byte{0xAB, 0xCD}) {
		t.Fatalf("unaligned bytes: got %x", got)
	}
}

func TestWriterWriteBytesAligned(t *testing.T) {
	w := NewWriter(0)
	w.WriteBytes([]byte{1, 2, 3})
	if w.Len() != 24 {
		t.Fatalf("Len = %d, want 24", w.Len())
	}
	if !bytes.Equal(w.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("aligned bytes: got %x", w.Bytes())
	}
}

func TestPadTo(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0b11, 2)
	w.PadTo(16)
	if w.Len() != 16 {
		t.Fatalf("PadTo: Len = %d", w.Len())
	}
	if !bytes.Equal(w.Bytes(), []byte{0xC0, 0x00}) {
		t.Fatalf("PadTo content: %x", w.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PadTo past current length should panic")
		}
	}()
	w.PadTo(8)
}

func TestReaderOverrun(t *testing.T) {
	r := NewReader([]byte{0xFF})
	r.ReadBits(8)
	if r.Err() {
		t.Fatal("error before overrun")
	}
	if got := r.ReadBit(); got != 0 {
		t.Fatalf("overrun read should return 0, got %d", got)
	}
	if !r.Err() {
		t.Fatal("overrun not flagged")
	}
}

func TestReaderRemainingPos(t *testing.T) {
	r := NewReader(make([]byte, 4))
	if r.Remaining() != 32 || r.Pos() != 0 {
		t.Fatal("fresh reader state wrong")
	}
	r.ReadBits(5)
	if r.Remaining() != 27 || r.Pos() != 5 {
		t.Fatalf("after 5 bits: pos=%d rem=%d", r.Pos(), r.Remaining())
	}
}

func TestExtractDepositBits(t *testing.T) {
	src := []byte{0b10110100, 0b01011101}
	got := ExtractBits(src, 3, 7)
	// bits 3..9 of src: 1 0 1 0 0 0 1 -> 0b1010001 left aligned
	if got[0] != 0b10100010 {
		t.Fatalf("ExtractBits: got %08b", got[0])
	}
	dst := make([]byte, 2)
	DepositBits(dst, 3, got, 7)
	for i := 0; i < 7; i++ {
		if Bit(dst, 3+i) != Bit(src, 3+i) {
			t.Fatalf("DepositBits bit %d mismatch", i)
		}
	}
}

func TestGatherScatter(t *testing.T) {
	src := []byte{0b10110100, 0b01011101}
	pos := []int{15, 0, 3, 8}
	got := []byte{0xFF}
	Gather(got, src, pos)
	// bits 15, 0, 3, 8 of src: 1 1 1 0; the low four bits of dst stay set.
	if got[0] != 0b11101111 {
		t.Fatalf("Gather: got %08b", got[0])
	}
	dst := []byte{0x00, 0xFF}
	Scatter(dst, pos, got)
	if dst[0] != 0b10010000 || dst[1] != 0b01111111 {
		t.Fatalf("Scatter: got %08b %08b", dst[0], dst[1])
	}
}

func TestExtractDepositRoundTripQuick(t *testing.T) {
	f := func(data []byte, off8, n8 uint8) bool {
		if len(data) == 0 {
			return true
		}
		total := 8 * len(data)
		off := int(off8) % total
		n := int(n8) % (total - off + 1)
		ex := ExtractBits(data, off, n)
		dst := make([]byte, len(data))
		DepositBits(dst, off, ex, n)
		for i := 0; i < n; i++ {
			if Bit(dst, off+i) != Bit(data, off+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16, widthSeed uint8) bool {
		w := NewWriter(0)
		widths := make([]int, len(vals))
		for i, v := range vals {
			widths[i] = 1 + int((uint(widthSeed)+uint(i)*7)%16)
			w.WriteBits(uint64(v)&((1<<widths[i])-1), widths[i])
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			want := uint64(v) & ((1 << widths[i]) - 1)
			if got := r.ReadBits(widths[i]); got != want {
				return false
			}
		}
		return !r.Err()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXOR(t *testing.T) {
	a := []byte{0xFF, 0x0F}
	b := []byte{0x0F, 0xFF}
	XOR(a, b)
	if !bytes.Equal(a, []byte{0xF0, 0xF0}) {
		t.Fatalf("XOR: got %x", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	XOR(a, []byte{1})
}

func TestParity(t *testing.T) {
	if Parity([]byte{0}) != 0 {
		t.Fatal("parity of zero")
	}
	if Parity([]byte{1}) != 1 {
		t.Fatal("parity of one bit")
	}
	if Parity([]byte{0xFF}) != 0 {
		t.Fatal("parity of 8 bits")
	}
	if Parity([]byte{0xFF, 0x01}) != 1 {
		t.Fatal("parity of 9 bits")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		buf := make([]byte, 1+rng.Intn(32))
		rng.Read(buf)
		want := 0
		for i := 0; i < 8*len(buf); i++ {
			want ^= Bit(buf, i)
		}
		if Parity(buf) != want {
			t.Fatalf("parity mismatch on %x", buf)
		}
	}
}

func TestReadBytesAligned(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	if got := r.ReadBytes(2); !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("aligned ReadBytes: %x", got)
	}
	if got := r.ReadBytes(2); !bytes.Equal(got, []byte{3, 4}) {
		t.Fatalf("second ReadBytes: %x", got)
	}
}

func TestWriteBitsPanicsOutOfRange(t *testing.T) {
	w := NewWriter(0)
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WriteBits(%d) should panic", n)
				}
			}()
			w.WriteBits(0, n)
		}()
	}
}

func TestReadBitsPanicsOutOfRange(t *testing.T) {
	r := NewReader(make([]byte, 16))
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ReadBits(%d) should panic", n)
				}
			}()
			r.ReadBits(n)
		}()
	}
}
