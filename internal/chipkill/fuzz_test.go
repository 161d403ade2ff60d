package chipkill

import (
	"bytes"
	"testing"

	"cop/internal/core"
	"cop/internal/eccregion"
)

// FuzzChipkillRoundTrip: any block either round-trips exactly through the
// inline codec or is rejected as an alias, and always round-trips through
// COP-CK-ER, which never rejects; the in-place and allocating forms of
// both codecs must agree byte for byte, and a rejected EncodeInto leaves
// its destination as it was. testdata/fuzz/FuzzChipkillRoundTrip
// holds boundary blocks (all-zero, all-ones, a raw block, an alias) that
// plain `go test` always replays.
func FuzzChipkillRoundTrip(f *testing.F) {
	f.Add(make([]byte, BlockBytes))
	ck := New()
	// Each ER pair sees the same writes, so its two regions stay in step.
	er, erInto := NewER(), NewER()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) != BlockBytes {
			return
		}
		image, status := ck.Encode(data)
		dst := bytes.Repeat([]byte{0xA5}, BlockBytes)
		if st := ck.EncodeInto(dst, data); st != status {
			t.Fatalf("EncodeInto status %v, Encode %v", st, status)
		}
		if status == core.RejectedAlias {
			if !ck.IsAlias(data) {
				t.Fatal("rejection without alias")
			}
			if !bytes.Equal(dst, bytes.Repeat([]byte{0xA5}, BlockBytes)) {
				t.Fatal("rejected EncodeInto wrote its destination")
			}
		} else {
			if !bytes.Equal(dst, image) {
				t.Fatal("EncodeInto image differs from Encode")
			}
			got, info, err := ck.Decode(image)
			if err != nil || !bytes.Equal(got, data) || info.Protected != (status == core.StoredCompressed) {
				t.Fatalf("inline round trip: %+v %v", info, err)
			}
			gotInto := make([]byte, BlockBytes)
			if infoInto, err := ck.DecodeInto(gotInto, image); err != nil || infoInto != info || !bytes.Equal(gotInto, data) {
				t.Fatalf("DecodeInto %+v (%v), Decode %+v", infoInto, err, info)
			}
		}

		image, ptr, inline, err := er.Write(data, eccregion.NoPointer)
		if err != nil {
			t.Fatalf("ER Write: %v", err)
		}
		ptrInto, status, err := erInto.WriteInto(dst, data, eccregion.NoPointer)
		if err != nil {
			t.Fatalf("ER WriteInto: %v", err)
		}
		if !bytes.Equal(dst, image) || ptrInto != ptr || (status == core.StoredCompressed) != inline {
			t.Fatalf("ER WriteInto (ptr %d, %v) differs from Write (ptr %d, inline %v)", ptrInto, status, ptr, inline)
		}
		got, info, err := er.Read(image)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ER round trip: %v", err)
		}
		gotInto := make([]byte, BlockBytes)
		if infoInto, err := erInto.ReadInto(gotInto, image); err != nil || infoInto != info || !bytes.Equal(gotInto, data) {
			t.Fatalf("ER ReadInto %+v (%v), Read %+v", infoInto, err, info)
		}
		er.Region().Release(ptr)
		erInto.Region().Release(ptr)
	})
}
