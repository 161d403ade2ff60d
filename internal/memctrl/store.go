package memctrl

// imageStore is the controller's one per-block table. Each block's slot
// holds its DRAM image (with any check bits the scheme keeps beside the
// data: the ECC DIMM's ninth chip, the ECC region's entry), the image's
// stored kind, and whether the block was ever stored raw — so nothing
// about a block lives outside its own slot, as in COP itself.
//
// The table is a two-level page table indexed by block number: two shifts
// and two loads instead of a hash probe on the controller's two hottest
// paths, the fill lookup on every LLC read miss and the image update on
// every writeback (the map machinery showed up at ~10% of serve-datapath
// CPU). Unaligned or beyond-range addresses fall back to a real map, so
// arbitrary address spaces keep exact map semantics; only the dense
// aligned case takes the fast path.
//
// Images must be non-empty: a slot with a nil image holds no image (no
// code path stores a zero-length image — stored forms are 64-byte blocks
// or their ECC/compressed encodings). Dropping an image keeps the slot's
// ever-raw bit, so a block is counted ever-incompressible once.

// Page geometry: 4096 block slots per page (256 KiB of address space),
// directories up to 1<<16 pages — a 16 GiB dense range — before spilling
// to the overflow map.
const (
	storePageBits = 12
	storePageSize = 1 << storePageBits
	storeMaxPages = 1 << 16
)

// slot is one block's record in the store.
type slot struct {
	img    []byte     // the DRAM image; nil when the block has none
	kind   StoredKind // the image's form, StoredNone without an image
	wasRaw bool       // the block was once stored raw by a COP-family scheme
}

type imagePage [storePageSize]slot

type imageStore struct {
	pages    []*imagePage
	overflow map[uint64]slot
	count    int // slots holding an image
}

func newImageStore() *imageStore { return &imageStore{} }

// paged reports whether addr belongs in the page table and, if so, its
// directory and slot index.
func (s *imageStore) paged(addr uint64) (dir uint64, i uint64, ok bool) {
	if addr%BlockBytes != 0 {
		return 0, 0, false
	}
	idx := addr / BlockBytes
	dir = idx >> storePageBits
	if dir >= storeMaxPages {
		return 0, 0, false
	}
	return dir, idx & (storePageSize - 1), true
}

// get returns addr's slot: the zero slot when the store holds nothing for
// addr.
func (s *imageStore) get(addr uint64) slot {
	if dir, i, ok := s.paged(addr); ok {
		if dir >= uint64(len(s.pages)) || s.pages[dir] == nil {
			return slot{}
		}
		return s.pages[dir][i]
	}
	return s.overflow[addr]
}

// set records img as addr's image of the given kind. raw marks a
// COP-family raw store; set reports whether it is the block's first, the
// one that joins Figure 12's ever-incompressible population.
func (s *imageStore) set(addr uint64, img []byte, kind StoredKind, raw bool) (firstRaw bool) {
	old := s.get(addr)
	if old.img == nil {
		s.count++
	}
	s.put(addr, slot{img: img, kind: kind, wasRaw: old.wasRaw || raw})
	return raw && !old.wasRaw
}

// del drops addr's image and kind; the ever-raw bit stays.
func (s *imageStore) del(addr uint64) {
	old := s.get(addr)
	if old.img == nil {
		return
	}
	s.count--
	s.put(addr, slot{wasRaw: old.wasRaw})
}

// put writes addr's slot, growing the page table as needed. An overflow
// slot left holding nothing is deleted from the map.
func (s *imageStore) put(addr uint64, sl slot) {
	if dir, i, ok := s.paged(addr); ok {
		for uint64(len(s.pages)) <= dir {
			s.pages = append(s.pages, nil)
		}
		if s.pages[dir] == nil {
			s.pages[dir] = new(imagePage)
		}
		s.pages[dir][i] = sl
		return
	}
	if sl.img == nil && !sl.wasRaw {
		delete(s.overflow, addr)
		return
	}
	if s.overflow == nil {
		s.overflow = make(map[uint64]slot)
	}
	s.overflow[addr] = sl
}

// len returns how many blocks hold an image.
func (s *imageStore) len() int { return s.count }

// foreach visits every stored image in address order (overflow entries
// last, unordered). Returning false stops the walk. The callback must not
// mutate the store.
func (s *imageStore) foreach(fn func(addr uint64, img []byte) bool) {
	for dir, p := range s.pages {
		if p == nil {
			continue
		}
		for i := range p {
			if p[i].img == nil {
				continue
			}
			addr := (uint64(dir)<<storePageBits | uint64(i)) * BlockBytes
			if !fn(addr, p[i].img) {
				return
			}
		}
	}
	for addr, sl := range s.overflow {
		if sl.img != nil && !fn(addr, sl.img) {
			return
		}
	}
}

// keys appends every stored address to dst (foreach order) and returns it.
func (s *imageStore) keys(dst []uint64) []uint64 {
	s.foreach(func(addr uint64, _ []byte) bool {
		dst = append(dst, addr)
		return true
	})
	return dst
}
