package memctrl

import (
	"bytes"
	"slices"
	"testing"
)

// overflowBase is the first block address past the page table's 16 GiB
// dense range: slots from here on live in the overflow map.
const overflowBase = uint64(storeMaxPages) * storePageSize * BlockBytes

// TestImageStoreSlot drives one slot through set, get, del and a second
// set, on the paged path and on the overflow path: the image and kind
// follow the last store, del drops both but keeps the ever-raw bit, the
// first raw store is the only one reported first, and len counts blocks
// holding an image.
func TestImageStoreSlot(t *testing.T) {
	for _, tc := range []struct {
		name string
		addr uint64
	}{
		{"paged", 5 * BlockBytes},
		{"overflow", overflowBase + 3*BlockBytes},
		{"unaligned", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newImageStore()
			a := tc.addr
			if sl := s.get(a); sl.img != nil || sl.kind != StoredNone || sl.wasRaw || s.len() != 0 {
				t.Fatalf("empty store: slot %+v, len %d", sl, s.len())
			}
			comp, raw1, raw2 := []byte{1}, []byte{2}, []byte{3}
			if s.set(a, comp, StoredKindCompressed, false) {
				t.Fatal("a compressed store reported a first raw store")
			}
			if sl := s.get(a); !bytes.Equal(sl.img, comp) || sl.kind != StoredKindCompressed || sl.wasRaw || s.len() != 1 {
				t.Fatalf("after a compressed set: slot %+v, len %d", sl, s.len())
			}
			if !s.set(a, raw1, StoredKindRaw, true) {
				t.Fatal("the first raw store was not reported")
			}
			if s.set(a, raw1, StoredKindRaw, true) {
				t.Fatal("a second raw store was reported first")
			}
			if sl := s.get(a); !bytes.Equal(sl.img, raw1) || sl.kind != StoredKindRaw || !sl.wasRaw || s.len() != 1 {
				t.Fatalf("after raw sets: slot %+v, len %d", sl, s.len())
			}

			s.del(a)
			s.del(a) // dropping a dropped image is a no-op
			if sl := s.get(a); sl.img != nil || sl.kind != StoredNone || !sl.wasRaw || s.len() != 0 {
				t.Fatalf("after del: slot %+v, len %d (the ever-raw bit must stay)", sl, s.len())
			}
			if keys := s.keys(nil); len(keys) != 0 {
				t.Fatalf("foreach visits a dropped image: %#x", keys)
			}

			if s.set(a, raw2, StoredKindRaw, true) {
				t.Fatal("a raw store after del was reported first: the block would count twice")
			}
			if sl := s.get(a); !bytes.Equal(sl.img, raw2) || s.len() != 1 {
				t.Fatalf("set after del: slot %+v, len %d", sl, s.len())
			}
		})
	}
}

// TestImageStoreOverflowDelete: a dropped overflow record leaves the map
// unless it carries the ever-raw bit, and either way drops out of len and
// foreach.
func TestImageStoreOverflowDelete(t *testing.T) {
	s := newImageStore()
	plain, raw := overflowBase, overflowBase+BlockBytes
	s.set(plain, []byte{1}, StoredKindCompressed, false)
	s.set(raw, []byte{2}, StoredKindRaw, true)
	s.del(plain)
	s.del(raw)
	if _, ok := s.overflow[plain]; ok {
		t.Fatal("a dropped record with nothing left in it stays in the overflow map")
	}
	if sl, ok := s.overflow[raw]; !ok || !sl.wasRaw {
		t.Fatal("a dropped record lost its ever-raw bit")
	}
	if s.len() != 0 || len(s.keys(nil)) != 0 {
		t.Fatalf("dropped overflow records still counted: len %d, keys %#x", s.len(), s.keys(nil))
	}
}

// TestImageStoreForeachOrder: foreach (and keys) visit paged images in
// address order across pages, then the overflow images, and stop when the
// callback returns false.
func TestImageStoreForeachOrder(t *testing.T) {
	s := newImageStore()
	page := uint64(storePageSize * BlockBytes)
	paged := []uint64{0, 3 * BlockBytes, page + BlockBytes, 2*page + 7*BlockBytes}
	over := []uint64{overflowBase, overflowBase + 9*BlockBytes}
	for _, a := range []uint64{over[1], paged[3], paged[1], over[0], paged[0], paged[2]} {
		s.set(a, []byte{byte(a / BlockBytes)}, StoredKindRaw, false)
	}
	s.set(page, []byte{1}, StoredKindRaw, false)
	s.del(page) // a dropped slot inside a live page is skipped
	keys := s.keys(nil)
	if len(keys) != len(paged)+len(over) || s.len() != len(keys) {
		t.Fatalf("keys %#x, len %d", keys, s.len())
	}
	if !slices.Equal(keys[:len(paged)], paged) {
		t.Fatalf("paged keys %#x, want %#x", keys[:len(paged)], paged)
	}
	rest := slices.Clone(keys[len(paged):])
	slices.Sort(rest)
	if !slices.Equal(rest, over) {
		t.Fatalf("overflow keys %#x, want %#x", rest, over)
	}
	s.foreach(func(addr uint64, img []byte) bool {
		if !bytes.Equal(img, s.get(addr).img) {
			t.Fatalf("foreach passed %#x a foreign image", addr)
		}
		return true
	})
	visited := 0
	s.foreach(func(uint64, []byte) bool {
		visited++
		return visited < 2
	})
	if visited != 2 {
		t.Fatalf("foreach visited %d images after the callback stopped it at 2", visited)
	}
}
