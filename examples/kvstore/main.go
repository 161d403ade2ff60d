// Kvstore: a soft-error-protected in-memory key-value store built on the
// public API — the kind of component a commodity (non-ECC) server would
// host. Keys and values live in cop.Memory under COP-ER, so every byte is
// SECDED-protected with zero DRAM storage overhead for compressible data;
// the demo then bombards DRAM with bit flips and verifies every record.
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"

	"cop"
)

// store is a log-structured KV store over protected memory: records are
// appended as [keyLen u16][valLen u32][key][val]; an in-(unprotected-)
// memory index maps keys to record offsets, standing in for the CPU-side
// structures a real service keeps in registers and caches.
type store struct {
	mem   *cop.Memory
	next  uint64
	index map[string]uint64
}

func newStore(mode cop.MemoryConfig) *store {
	return &store{mem: cop.NewMemory(mode), index: map[string]uint64{}}
}

func (s *store) Put(key string, value []byte) error {
	rec := make([]byte, 6+len(key)+len(value))
	binary.BigEndian.PutUint16(rec, uint16(len(key)))
	binary.BigEndian.PutUint32(rec[2:], uint32(len(value)))
	copy(rec[6:], key)
	copy(rec[6+len(key):], value)
	off := s.next
	if err := s.mem.WriteBytes(off, rec); err != nil {
		return err
	}
	s.index[key] = off
	s.next += uint64(len(rec))
	return nil
}

func (s *store) Get(key string) ([]byte, error) {
	off, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("kvstore: %q not found", key)
	}
	hdr, err := s.mem.ReadBytes(off, 6)
	if err != nil {
		return nil, err
	}
	kl := int(binary.BigEndian.Uint16(hdr))
	vl := int(binary.BigEndian.Uint32(hdr[2:]))
	rec, err := s.mem.ReadBytes(off+6, kl+vl)
	if err != nil {
		return nil, err
	}
	if string(rec[:kl]) != key {
		return nil, fmt.Errorf("kvstore: index corruption for %q", key)
	}
	return rec[kl:], nil
}

func main() {
	s := newStore(cop.MemoryConfig{Mode: cop.ModeCOPER, LLCBytes: 64 * 1024, LLCWays: 8})

	// Populate: JSON-ish documents (text — TXT compression territory),
	// counters (small ints), and a binary blob (incompressible; COP-ER's
	// ECC region covers it).
	reference := map[string][]byte{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("user:%04d", i)
		val := []byte(fmt.Sprintf(`{"id":%d,"name":"user-%d","plan":"pro","quota_mb":%d}`, i, i, 512+i))
		reference[key] = val
		if err := s.Put(key, val); err != nil {
			log.Fatal(err)
		}
	}
	blob := make([]byte, 500)
	x := uint32(0x2545F491)
	for i := range blob {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		blob[i] = byte(x)
	}
	reference["blob:entropy"] = blob
	if err := s.Put("blob:entropy", blob); err != nil {
		log.Fatal(err)
	}
	if err := s.mem.Flush(); err != nil {
		log.Fatal(err)
	}

	st := s.mem.Snapshot().Controller
	fmt.Printf("stored %d records in %d blocks (%d compressed+protected, %d via ECC region)\n",
		len(reference), st.Writebacks, st.StoredCompressed, st.StoredRaw)

	// Soft-error storm: a flip in every DRAM block the store occupies.
	flips := 0
	for addr := uint64(0); addr < s.next+cop.BlockBytes; addr += cop.BlockBytes {
		if s.mem.InjectBitFlip(addr, int(addr>>6*31)%512) {
			flips++
		}
	}
	fmt.Printf("injected %d bit flips (one per block)\n", flips)

	// Verify every record.
	for key, want := range reference {
		got, err := s.Get(key)
		if err != nil {
			log.Fatalf("get %q: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			log.Fatalf("%q corrupted!", key)
		}
	}
	fmt.Printf("all %d records intact; %d errors corrected, 0 silent corruptions\n",
		len(reference), s.mem.Snapshot().Controller.CorrectedErrors)
	fmt.Println("\nsame store on unprotected memory:")

	u := newStore(cop.MemoryConfig{Mode: cop.ModeUnprotected, LLCBytes: 64 * 1024, LLCWays: 8})
	for key, val := range reference {
		if err := u.Put(key, val); err != nil {
			log.Fatal(err)
		}
	}
	u.mem.Flush()
	for addr := uint64(0); addr < u.next+cop.BlockBytes; addr += cop.BlockBytes {
		u.mem.InjectBitFlip(addr, int(addr>>6*31)%512)
	}
	corrupted := 0
	for key, want := range reference {
		if got, err := u.Get(key); err != nil || !bytes.Equal(got, want) {
			corrupted++
		}
	}
	fmt.Printf("%d of %d records corrupted\n", corrupted, len(reference))
}
