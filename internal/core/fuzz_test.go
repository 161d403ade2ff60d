package core

import (
	"bytes"
	"testing"
)

// FuzzEncodeDecode: any block either round-trips exactly through
// Encode/Decode or is rejected as an alias — never silently mangled — and
// the scratch-based EncodeInto/DecodeInto paths must agree with the
// allocating wrappers byte for byte on every input the fuzzer finds, and
// leave their destination as it was when they reject. The
// same holds for the region path (ERCodec, which never rejects, under
// COP-4 and COP-8) and for AdaptiveCodec.
// Beyond the inline seeds, testdata/fuzz/FuzzEncodeDecode holds a
// committed corpus of boundary blocks (all-zero, all-ones, a known
// alias, compressibility-threshold patterns) that plain `go test` always
// replays.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(make([]byte, BlockBytes))
	seed := make([]byte, BlockBytes)
	for i := range seed {
		seed[i] = byte(255 - i)
	}
	f.Add(seed)
	// Non-byte-aligned-segment stress: an MSB-compressible block whose
	// payload puts live bits on both sides of every 120-bit segment
	// boundary, so the shift-and-mask extract/deposit runs with a mid-byte
	// stride in COP-4 (segments 1..3 start at bits 120/240/360).
	seed = make([]byte, BlockBytes)
	for i := range seed {
		seed[i] = 0xA5
	}
	for w := 0; w < 8; w++ {
		seed[8*w+6] = byte(0x11 * w)
		seed[8*w+7] = byte(0xFE - 0x11*w)
	}
	f.Add(seed)

	codec4 := NewCodec(NewConfig4())
	codec8 := NewCodec(NewConfig8())
	sc4 := codec4.NewScratch()
	sc8 := codec8.NewScratch()
	// Each ER pair sees the same writes, so its two regions stay in step.
	erPairs := [][2]*ERCodec{
		{NewERCodec(NewConfig4()), NewERCodec(NewConfig4())},
		{NewERCodec(NewConfig8()), NewERCodec(NewConfig8())},
	}
	adaptive := NewAdaptiveCodec()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != BlockBytes {
			return
		}
		for _, pair := range erPairs {
			checkERRoundTrip(t, pair[0], pair[1], data)
		}
		checkAdaptiveRoundTrip(t, adaptive, sc4, data)
		for i, codec := range []*Codec{codec4, codec8} {
			sc := []*CodecScratch{sc4, sc8}[i]
			image, status := codec.Encode(data)
			into := bytes.Repeat([]byte{0xA5}, BlockBytes)
			if st := codec.EncodeInto(into, data, sc); st != status {
				t.Fatalf("EncodeInto status %v, Encode %v", st, status)
			}
			if status == RejectedAlias {
				if !codec.IsAlias(data) {
					t.Fatal("rejection without alias")
				}
				if !bytes.Equal(into, bytes.Repeat([]byte{0xA5}, BlockBytes)) {
					t.Fatal("rejected EncodeInto wrote its destination")
				}
				continue
			}
			if !bytes.Equal(into, image) {
				t.Fatal("EncodeInto image differs from Encode")
			}
			got, info, err := codec.Decode(image)
			if err != nil {
				t.Fatalf("decode of fresh image: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip mismatch")
			}
			gotInto := make([]byte, BlockBytes)
			infoInto, err := codec.DecodeInto(gotInto, image, sc)
			if err != nil {
				t.Fatalf("DecodeInto of fresh image: %v", err)
			}
			if !bytes.Equal(gotInto, data) {
				t.Fatal("DecodeInto round trip mismatch")
			}
			if infoInto.Compressed != info.Compressed ||
				infoInto.ValidCodewords != info.ValidCodewords ||
				len(infoInto.CorrectedSegments) != len(info.CorrectedSegments) {
				t.Fatalf("DecodeInto info %+v, Decode info %+v", infoInto, info)
			}
		}
	})
}

// checkERRoundTrip writes data through er's allocating Write and into's
// WriteInto, checks both stored the same image and pointer and read back
// data through Read and ReadInto alike, then frees the entries.
func checkERRoundTrip(t *testing.T, er, into *ERCodec, data []byte) {
	t.Helper()
	image, ptr, compressed, err := er.Write(data, NoPointer)
	if err != nil {
		t.Fatalf("ER Write: %v", err)
	}
	dst := make([]byte, BlockBytes)
	ptrInto, status, err := into.WriteInto(dst, data, NoPointer)
	if err != nil {
		t.Fatalf("ER WriteInto: %v", err)
	}
	if !bytes.Equal(dst, image) || ptrInto != ptr || (status == StoredCompressed) != compressed {
		t.Fatalf("ER WriteInto (ptr %d, %v) differs from Write (ptr %d, compressed %v)", ptrInto, status, ptr, compressed)
	}
	got, info, err := er.Read(image)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ER round trip: %v", err)
	}
	gotInto := make([]byte, BlockBytes)
	infoInto, err := into.ReadInto(gotInto, image)
	if err != nil || !bytes.Equal(gotInto, data) || infoInto != info {
		t.Fatalf("ER ReadInto %+v (%v), Read %+v", infoInto, err, info)
	}
	er.Region().Release(ptr)
	into.Region().Release(ptr)
}

// checkAdaptiveRoundTrip checks that data round-trips through the
// adaptive codec or is rejected as an alias, in both forms alike.
func checkAdaptiveRoundTrip(t *testing.T, a *AdaptiveCodec, sc *CodecScratch, data []byte) {
	t.Helper()
	image, format, status := a.Encode(data)
	dst := bytes.Repeat([]byte{0xA5}, BlockBytes)
	if f, st := a.EncodeInto(dst, data, sc); f != format || st != status {
		t.Fatalf("adaptive EncodeInto (%v, %v), Encode (%v, %v)", f, st, format, status)
	}
	if status == RejectedAlias {
		if !a.WouldReject(data) {
			t.Fatal("adaptive rejection that WouldReject denies")
		}
		if !bytes.Equal(dst, bytes.Repeat([]byte{0xA5}, BlockBytes)) {
			t.Fatal("rejected adaptive EncodeInto wrote its destination")
		}
		return
	}
	if !bytes.Equal(dst, image) {
		t.Fatal("adaptive EncodeInto image differs from Encode")
	}
	got, f, info, err := a.Decode(image)
	if err != nil || f != format || !bytes.Equal(got, data) {
		t.Fatalf("adaptive round trip: format %v (stored %v), %v", f, format, err)
	}
	gotInto := make([]byte, BlockBytes)
	fInto, infoInto, err := a.DecodeInto(gotInto, image, sc)
	if err != nil || fInto != f || !bytes.Equal(gotInto, data) ||
		infoInto.Compressed != info.Compressed || infoInto.ValidCodewords != info.ValidCodewords {
		t.Fatalf("adaptive DecodeInto (%v, %+v, %v), Decode (%v, %+v)", fInto, infoInto, err, f, info)
	}
}

// FuzzDecodeArbitraryImages: decoding any 64-byte image never panics and
// never returns a short block. testdata/fuzz/FuzzDecodeArbitraryImages
// seeds it with clean, corrupted, and pathological images.
func FuzzDecodeArbitraryImages(f *testing.F) {
	f.Add(make([]byte, BlockBytes))
	codec := NewCodec(NewConfig4())
	er := NewERCodec(NewConfig4())
	adaptive := NewAdaptiveCodec()
	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) != BlockBytes {
			return
		}
		if b, _, err := codec.Decode(image); err == nil && len(b) != BlockBytes {
			t.Fatal("codec returned short block")
		}
		if b, _, err := er.Read(image); err == nil && len(b) != BlockBytes {
			t.Fatal("ER returned short block")
		}
		if b, _, _, err := adaptive.Decode(image); err == nil && len(b) != BlockBytes {
			t.Fatal("adaptive returned short block")
		}
	})
}
