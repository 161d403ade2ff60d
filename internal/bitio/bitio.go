// Package bitio provides bit-granularity readers, writers, and bit-vector
// helpers shared by the ECC codes and compression schemes.
//
// All multi-bit fields are serialized MSB-first within each byte: bit index
// 0 of a buffer is the most significant bit of byte 0. This matches the way
// the paper's block diagrams number bits left to right and keeps hex dumps
// readable.
package bitio

import "fmt"

// Bit returns bit i (MSB-first order) of buf.
func Bit(buf []byte, i int) int {
	return int(buf[i>>3]>>(7-uint(i&7))) & 1
}

// SetBit sets bit i (MSB-first order) of buf to v (0 or 1).
func SetBit(buf []byte, i int, v int) {
	mask := byte(1) << (7 - uint(i&7))
	if v != 0 {
		buf[i>>3] |= mask
	} else {
		buf[i>>3] &^= mask
	}
}

// FlipBit inverts bit i (MSB-first order) of buf.
func FlipBit(buf []byte, i int) {
	buf[i>>3] ^= byte(1) << (7 - uint(i&7))
}

// Writer appends bit fields to a byte buffer, MSB-first.
type Writer struct {
	buf  []byte
	nbit int
}

// NewWriter returns a Writer with capacity for capBits bits preallocated.
func NewWriter(capBits int) *Writer {
	return &Writer{buf: make([]byte, 0, (capBits+7)/8)}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// Reset truncates the writer to zero bits while retaining its buffer
// (growing it when capBits exceeds the current capacity), so one Writer can
// serve many compression attempts without reallocating.
func (w *Writer) Reset(capBits int) {
	if need := (capBits + 7) / 8; cap(w.buf) < need {
		w.buf = make([]byte, 0, need)
	}
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Truncate discards every bit written after position n — the rollback a
// hybrid scheme needs when a speculative sub-scheme attempt overruns its
// budget. It panics if fewer than n bits have been written.
func (w *Writer) Truncate(n int) {
	if n < 0 || n > w.nbit {
		panic(fmt.Sprintf("bitio: Truncate(%d) with %d bits written", n, w.nbit))
	}
	w.buf = w.buf[:(n+7)/8]
	if n&7 != 0 {
		w.buf[n>>3] &= byte(0xFF) << uint(8-n&7)
	}
	w.nbit = n
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(v int) {
	if w.nbit&7 == 0 {
		w.buf = append(w.buf, 0)
	}
	if v != 0 {
		w.buf[w.nbit>>3] |= byte(1) << (7 - uint(w.nbit&7))
	}
	w.nbit++
}

var zeroBytes [9]byte

// WriteBits appends the low n bits of v, most significant first. n must be
// in [0, 64]. Bits are moved in byte-sized chunks, not one at a time.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	if grow := (w.nbit+n+7)/8 - len(w.buf); grow > 0 {
		w.buf = append(w.buf, zeroBytes[:grow]...)
	}
	pos, rem := w.nbit, n
	w.nbit += n
	for rem > 0 {
		space := 8 - pos&7
		take := rem
		if take > space {
			take = space
		}
		chunk := byte(v>>uint(rem-take)) & (0xFF >> uint(8-take))
		w.buf[pos>>3] |= chunk << uint(space-take)
		pos += take
		rem -= take
	}
}

// WriteBytes appends all bits of p.
func (w *Writer) WriteBytes(p []byte) {
	if w.nbit&7 == 0 {
		// Fast path: byte aligned.
		w.buf = append(w.buf, p...)
		w.nbit += 8 * len(p)
		return
	}
	for _, b := range p {
		w.WriteBits(uint64(b), 8)
	}
}

// Bytes returns the written bits padded with zeros to a byte boundary.
func (w *Writer) Bytes() []byte { return w.buf }

// PadTo appends zero bits until exactly n bits have been written. It panics
// if more than n bits were already written.
func (w *Writer) PadTo(n int) {
	if w.nbit > n {
		panic(fmt.Sprintf("bitio: PadTo(%d) with %d bits already written", n, w.nbit))
	}
	for w.nbit < n {
		w.WriteBit(0)
	}
}

// Reader consumes bit fields from a byte buffer, MSB-first.
type Reader struct {
	buf  []byte
	pos  int
	errd bool
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset points the reader at buf and rewinds it, clearing the error flag.
// It lets a caller-owned Reader value be reused without allocating.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.errd = false
}

// Pos returns the current bit offset.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.pos }

// Err reports whether any read ran past the end of the buffer.
func (r *Reader) Err() bool { return r.errd }

// ReadBit reads one bit, returning 0 and setting the error flag on overrun.
func (r *Reader) ReadBit() int {
	if r.pos >= 8*len(r.buf) {
		r.errd = true
		return 0
	}
	v := Bit(r.buf, r.pos)
	r.pos++
	return v
}

// ReadBits reads n bits (n ≤ 64) as an unsigned value, MSB-first. Bits are
// moved in byte-sized chunks; an overrun sets the error flag and, as with
// ReadBit, yields zero bits for the missing tail.
func (r *Reader) ReadBits(n int) uint64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	take := n
	if avail := 8*len(r.buf) - r.pos; take > avail {
		take = avail
		r.errd = true
	}
	var v uint64
	rem := take
	for rem > 0 {
		space := 8 - r.pos&7
		c := rem
		if c > space {
			c = space
		}
		chunk := r.buf[r.pos>>3] >> uint(space-c) & (0xFF >> uint(8-c))
		v = v<<uint(c) | uint64(chunk)
		r.pos += c
		rem -= c
	}
	// Overrun: the old bit-by-bit reader shifted in zeros for missing bits.
	return v << uint(n-take)
}

// ReadBytes reads 8*n bits into a fresh n-byte slice.
func (r *Reader) ReadBytes(n int) []byte {
	out := make([]byte, n)
	if r.pos&7 == 0 && r.pos+8*n <= 8*len(r.buf) {
		copy(out, r.buf[r.pos>>3:])
		r.pos += 8 * n
		return out
	}
	for i := range out {
		out[i] = byte(r.ReadBits(8))
	}
	return out
}

// ExtractBits copies the n bits of src starting at bit offset off into a new
// buffer, left-aligned (bit 0 of the result is src bit off).
func ExtractBits(src []byte, off, n int) []byte {
	out := make([]byte, (n+7)/8)
	ExtractBitsInto(out, src, off, n)
	return out
}

// ExtractBitsInto is the allocation-free ExtractBits: the n bits of src at
// bit offset off are written left-aligned into dst, whose first ceil(n/8)
// bytes are overwritten (tail pad bits zero). Bits move by whole bytes with
// shift-and-mask, not one at a time.
func ExtractBitsInto(dst, src []byte, off, n int) {
	if n <= 0 {
		return
	}
	outBytes := (n + 7) / 8
	sb, sh := off>>3, uint(off&7)
	if sh == 0 {
		copy(dst[:outBytes], src[sb:sb+outBytes])
	} else {
		for i := 0; i < outBytes; i++ {
			b := src[sb+i] << sh
			if sb+i+1 < len(src) {
				b |= src[sb+i+1] >> (8 - sh)
			}
			dst[i] = b
		}
	}
	if n&7 != 0 {
		dst[outBytes-1] &= byte(0xFF) << uint(8-n&7)
	}
}

// DepositBits copies the first n bits of src into dst starting at bit offset
// off, preserving the surrounding bits of dst. Bits move by whole bytes.
func DepositBits(dst []byte, off int, src []byte, n int) {
	for i := 0; n > 0; i++ {
		take := n
		if take > 8 {
			take = 8
		}
		mask := byte(0xFF) << uint(8-take)
		b := src[i] & mask
		sh := uint(off & 7)
		bi := off >> 3
		dst[bi] = dst[bi]&^(mask>>sh) | b>>sh
		if int(sh)+take > 8 {
			dst[bi+1] = dst[bi+1]&^(mask<<(8-sh)) | b<<(8-sh)
		}
		off += take
		n -= take
	}
}

// Gather copies the bits of src at positions pos into dst, left-aligned:
// bit i of dst becomes bit pos[i] of src. Bits of dst past len(pos) are
// left as they are.
func Gather(dst, src []byte, pos []int) {
	for i, p := range pos {
		SetBit(dst, i, Bit(src, p))
	}
}

// Scatter is Gather's inverse: bit pos[i] of dst becomes bit i of src.
// Bits of dst outside pos are left as they are.
func Scatter(dst []byte, pos []int, src []byte) {
	for i, p := range pos {
		SetBit(dst, p, Bit(src, i))
	}
}

// XOR xors src into dst in place; the slices must be the same length.
func XOR(dst, src []byte) {
	if len(dst) != len(src) {
		panic("bitio: XOR length mismatch")
	}
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// Parity returns the XOR of all bits in buf (0 or 1).
func Parity(buf []byte) int {
	var acc byte
	for _, b := range buf {
		acc ^= b
	}
	acc ^= acc >> 4
	acc ^= acc >> 2
	acc ^= acc >> 1
	return int(acc & 1)
}
