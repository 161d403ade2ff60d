package cache

import (
	"math/rand"
	"testing"
)

func newSmall() *Cache { return New(4*64*4, 4, 64) } // 4 sets, 4 ways

func TestBasicHitMiss(t *testing.T) {
	c := newSmall()
	if _, _, _, hit := c.Lookup(0x1000); hit {
		t.Fatal("cold cache hit")
	}
	c.Insert(Line{Addr: 0x1000})
	l, _, _, hit := c.Lookup(0x1000)
	if !hit || l.Addr != 0x1000 {
		t.Fatal("inserted line not found")
	}
	// Sub-block address maps to the same line.
	if _, _, _, hit := c.Lookup(0x1000 + 37); !hit {
		t.Fatal("unaligned lookup missed")
	}
	st := c.Telemetry()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall()
	// Fill set 0 (addresses with identical set index bits).
	base := uint64(0)
	stride := uint64(4 * 64) // 4 sets × 64B
	for i := 0; i < 4; i++ {
		c.Insert(Line{Addr: base + uint64(i)*stride})
	}
	c.Lookup(base) // make line 0 MRU
	victim, wb := c.Insert(Line{Addr: base + 4*stride})
	if wb {
		t.Fatal("clean victim should not write back")
	}
	_ = victim
	if c.Contains(base + 1*stride) {
		t.Fatal("LRU line (index 1) should have been evicted")
	}
	if !c.Contains(base) {
		t.Fatal("MRU line evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 4; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Dirty: true})
	}
	victim, wb := c.Insert(Line{Addr: 4 * stride})
	if !wb || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("expected dirty victim addr 0, got %+v wb=%v", victim, wb)
	}
	if c.Telemetry().Writebacks != 1 {
		t.Fatalf("stats: %+v", c.Telemetry())
	}
}

func TestAliasLinesPinned(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	// Three alias lines (oldest) + one normal line (newest).
	for i := 0; i < 3; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	c.Insert(Line{Addr: 3 * stride, Dirty: true})
	victim, wb := c.Insert(Line{Addr: 4 * stride})
	if !wb || victim.Addr != 3*stride {
		t.Fatalf("victim should be the only non-alias line: %+v", victim)
	}
	for i := 0; i < 3; i++ {
		if !c.Contains(uint64(i) * stride) {
			t.Fatalf("alias line %d evicted", i)
		}
	}
	if c.Telemetry().AliasPins == 0 {
		t.Fatal("alias pin not counted")
	}
}

func TestSetOverflowSpill(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 4; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	// Fifth alias: the set is fully pinned; LRU alias spills to overflow.
	victim, wb := c.Insert(Line{Addr: 4 * stride, Alias: true, Dirty: true})
	if wb || victim.Dirty {
		t.Fatal("spill must not produce a writeback")
	}
	if c.OverflowLen() != 1 {
		t.Fatalf("overflow len = %d", c.OverflowLen())
	}
	if c.Telemetry().Spills != 1 {
		t.Fatalf("stats: %+v", c.Telemetry())
	}
	// Every alias block is still reachable.
	for i := 0; i <= 4; i++ {
		if !c.Contains(uint64(i) * stride) {
			t.Fatalf("alias block %d lost after spill", i)
		}
	}
}

func TestOverflowLookupPromotes(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 5; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	// Address 0 was spilled (it was LRU). Looking it up must hit via the
	// overflow walk and promote it back, spilling another alias.
	l, _, wb, hit := c.Lookup(0)
	if !hit || l.Addr != 0 || !l.Alias {
		t.Fatalf("overflow lookup: hit=%v line=%+v", hit, l)
	}
	if wb {
		t.Fatal("promotion into an all-alias set spills — it must not write back")
	}
	st := c.Telemetry()
	if st.OverflowSearches != 1 || st.OverflowHits != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if c.OverflowLen() != 1 {
		t.Fatalf("overflow len = %d after promotion", c.OverflowLen())
	}
	for i := 0; i <= 4; i++ {
		if !c.Contains(uint64(i) * stride) {
			t.Fatalf("alias block %d lost after promotion", i)
		}
	}
}

func TestOverflowPromotionReturnsDirtyVictim(t *testing.T) {
	// Regression: a set driven to all-alias spills a line; a store then
	// clears one resident alias bit (in-place replacement), leaving an
	// evictable dirty line. Promoting the spilled line evicts it — and the
	// writeback used to be silently dropped inside Lookup.
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 5; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	// Address 0 is now in overflow. De-alias + dirty the line at stride.
	c.Insert(Line{Addr: stride, Alias: false, Dirty: true})
	l, victim, wb, hit := c.Lookup(0)
	if !hit || l.Addr != 0 {
		t.Fatalf("overflow lookup: hit=%v line=%+v", hit, l)
	}
	if !wb || victim.Addr != stride || !victim.Dirty {
		t.Fatalf("promotion must surface the dirty victim: wb=%v victim=%+v", wb, victim)
	}
	if c.Contains(stride) {
		t.Fatal("victim still resident after promotion eviction")
	}
}

func TestOverflowMissStillMiss(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 5; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	if _, _, _, hit := c.Lookup(100 * stride); hit {
		t.Fatal("unexpected hit")
	}
	if c.Telemetry().OverflowSearches != 1 {
		t.Fatalf("stats: %+v (miss in an overflowed set must search the list)", c.Telemetry())
	}
}

func TestInsertReplacesInPlace(t *testing.T) {
	c := newSmall()
	c.Insert(Line{Addr: 0x40, Dirty: false})
	victim, wb := c.Insert(Line{Addr: 0x40, Dirty: true})
	if wb || victim.Addr != 0 {
		t.Fatal("in-place replacement should not evict")
	}
	l, _, _, _ := c.Lookup(0x40)
	if !l.Dirty {
		t.Fatal("replacement did not update the line")
	}
}

func TestLineMutationThroughPointer(t *testing.T) {
	c := newSmall()
	c.Insert(Line{Addr: 0x80})
	l, _, _, _ := c.Lookup(0x80)
	l.Dirty = true
	l.WasUncompressed = true
	l.Ptr = 42
	l2, _, _, _ := c.Lookup(0x80)
	if !l2.Dirty || !l2.WasUncompressed || l2.Ptr != 42 {
		t.Fatal("mutation through Lookup pointer not visible")
	}
}

func TestEvict(t *testing.T) {
	c := newSmall()
	c.Insert(Line{Addr: 0xC0, Dirty: true})
	line, dirty, found := c.Evict(0xC0)
	if !found || !dirty || line.Addr != 0xC0 {
		t.Fatalf("evict: %+v %v %v", line, dirty, found)
	}
	if c.Contains(0xC0) {
		t.Fatal("line still present after Evict")
	}
	if _, _, found := c.Evict(0xC0); found {
		t.Fatal("double evict found a line")
	}
}

func TestFlushAll(t *testing.T) {
	c := newSmall()
	stride := uint64(4 * 64)
	for i := 0; i < 5; i++ {
		c.Insert(Line{Addr: uint64(i) * stride, Alias: true, Dirty: true})
	}
	c.Insert(Line{Addr: 0x40})
	seen := map[uint64]bool{}
	c.FlushAll(func(l Line) { seen[l.Addr] = true })
	if len(seen) != 6 {
		t.Fatalf("flushed %d lines, want 6 (including overflow)", len(seen))
	}
	if c.OverflowLen() != 0 {
		t.Fatal("overflow not drained")
	}
}

func TestDataCarriage(t *testing.T) {
	c := newSmall()
	data := make([]byte, 64)
	data[0] = 0xAB
	c.Insert(Line{Addr: 0x100, Data: data})
	l, _, _, _ := c.Lookup(0x100)
	if l.Data[0] != 0xAB {
		t.Fatal("data not carried")
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(100, 4, 64) },  // non power-of-two sets
		func() { New(4096, 4, 60) }, // non power-of-two block
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestStressRandomTraffic(t *testing.T) {
	c := New(1<<16, 8, 64) // 128 sets
	rng := rand.New(rand.NewSource(1))
	resident := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		addr := uint64(rng.Intn(4096)) * 64
		if _, _, _, hit := c.Lookup(addr); !hit {
			victim, _ := c.Insert(Line{Addr: addr, Dirty: rng.Intn(2) == 0})
			if victim.Addr != 0 || victim.Dirty {
				delete(resident, victim.Addr)
			}
			resident[addr] = true
		}
	}
	// Spot-check internal consistency: every Contains answer must agree
	// with a subsequent Lookup.
	for addr := range resident {
		if c.Contains(addr) {
			if _, _, _, hit := c.Lookup(addr); !hit {
				t.Fatalf("Contains/Lookup disagree for %#x", addr)
			}
		}
	}
}

func TestHitRateSanity(t *testing.T) {
	// A working-set smaller than the cache must converge to ~100% hits.
	c := New(1<<16, 8, 64)
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 512; i++ {
			addr := uint64(i) * 64
			if _, _, _, hit := c.Lookup(addr); !hit {
				c.Insert(Line{Addr: addr})
			}
		}
	}
	st := c.Telemetry()
	if st.Misses != 512 {
		t.Fatalf("expected 512 cold misses only, got %d", st.Misses)
	}
}

// refCache is an obviously-correct reference model: per-set slices kept in
// LRU order, alias lines pinned, overflow as an unordered side list.
type refCache struct {
	sets     [][]Line // index 0 = LRU
	overflow map[int][]Line
	nsets    int
	ways     int
}

func newRefCache(nsets, ways int) *refCache {
	return &refCache{sets: make([][]Line, nsets), overflow: map[int][]Line{}, nsets: nsets, ways: ways}
}

func (r *refCache) setIdx(addr uint64) int { return int(addr>>6) % r.nsets }

func (r *refCache) lookup(addr uint64) (*Line, Line, bool, bool) {
	si := r.setIdx(addr)
	for i := range r.sets[si] {
		if r.sets[si][i].Addr == addr {
			l := r.sets[si][i]
			r.sets[si] = append(append([]Line{}, r.sets[si][:i]...), r.sets[si][i+1:]...)
			r.sets[si] = append(r.sets[si], l) // move to MRU
			return &r.sets[si][len(r.sets[si])-1], Line{}, false, true
		}
	}
	for i, l := range r.overflow[si] {
		if l.Addr == addr {
			r.overflow[si] = append(r.overflow[si][:i], r.overflow[si][i+1:]...)
			victim, wb := r.insert(l) // promotion
			for j := range r.sets[si] {
				if r.sets[si][j].Addr == addr {
					return &r.sets[si][j], victim, wb, true
				}
			}
		}
	}
	return nil, Line{}, false, false
}

func (r *refCache) insert(line Line) (Line, bool) {
	si := r.setIdx(line.Addr)
	for i := range r.sets[si] {
		if r.sets[si][i].Addr == line.Addr {
			r.sets[si][i] = line
			l := r.sets[si][i]
			r.sets[si] = append(append([]Line{}, r.sets[si][:i]...), r.sets[si][i+1:]...)
			r.sets[si] = append(r.sets[si], l)
			return Line{}, false
		}
	}
	if len(r.sets[si]) < r.ways {
		r.sets[si] = append(r.sets[si], line)
		return Line{}, false
	}
	// Evict LRU non-alias.
	for i := 0; i < len(r.sets[si]); i++ {
		if !r.sets[si][i].Alias {
			victim := r.sets[si][i]
			r.sets[si] = append(r.sets[si][:i], r.sets[si][i+1:]...)
			r.sets[si] = append(r.sets[si], line)
			return victim, victim.Dirty
		}
	}
	// All alias: spill LRU alias.
	victim := r.sets[si][0]
	r.sets[si] = append(r.sets[si][1:], line)
	r.overflow[si] = append(r.overflow[si], victim)
	return Line{}, false
}

func (r *refCache) contains(addr uint64) bool {
	si := r.setIdx(addr)
	for _, l := range r.sets[si] {
		if l.Addr == addr {
			return true
		}
	}
	for _, l := range r.overflow[si] {
		if l.Addr == addr {
			return true
		}
	}
	return false
}

func TestModelBasedAgainstReference(t *testing.T) {
	const nsets, ways = 8, 4
	c := New(nsets*ways*64, ways, 64)
	ref := newRefCache(nsets, ways)
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 50000; step++ {
		addr := uint64(rng.Intn(128)) * 64
		switch rng.Intn(3) {
		case 0: // lookup
			_, vC, wbC, hitC := c.Lookup(addr)
			_, vR, wbR, hitR := ref.lookup(addr)
			if hitC != hitR {
				t.Fatalf("step %d: lookup(%#x) hit mismatch: impl=%v ref=%v", step, addr, hitC, hitR)
			}
			if wbC != wbR || (wbC && vC.Addr != vR.Addr) {
				t.Fatalf("step %d: lookup(%#x) promotion victim mismatch: impl=(%#x,%v) ref=(%#x,%v)",
					step, addr, vC.Addr, wbC, vR.Addr, wbR)
			}
		case 1: // insert
			line := Line{Addr: addr, Dirty: rng.Intn(2) == 0, Alias: rng.Intn(10) == 0}
			vC, wbC := c.Insert(line)
			vR, wbR := ref.insert(line)
			if wbC != wbR || (wbC && vC.Addr != vR.Addr) {
				t.Fatalf("step %d: insert(%#x) victim mismatch: impl=(%#x,%v) ref=(%#x,%v)",
					step, addr, vC.Addr, wbC, vR.Addr, wbR)
			}
		default: // containment probe
			if c.Contains(addr) != ref.contains(addr) {
				t.Fatalf("step %d: contains(%#x) mismatch", step, addr)
			}
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(4<<20, 16, 64)
	for i := 0; i < 1024; i++ {
		c.Insert(Line{Addr: uint64(i) * 64})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i%1024) * 64)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New(1<<16, 8, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(Line{Addr: uint64(i) * 64, Dirty: i%2 == 0})
	}
}
