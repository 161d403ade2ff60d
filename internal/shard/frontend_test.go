package shard

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cop/internal/memctrl"
	"cop/internal/trace"
)

// TestOpsCountsPerMethod pins the Ops() counted set documented on
// Batched.Ops: every state-affecting access counts (per covered block for
// range ops), pure queries and maintenance sweeps do not. The subtests
// split the two ways in: "sharded" runs the synchronous calls, each
// under the shard lock, and "batched" runs Group windows.
func TestOpsCountsPerMethod(t *testing.T) {
	block := make([]byte, BlockBytes)
	dst := make([]byte, BlockBytes)
	span := make([]byte, 3*BlockBytes)
	type opCase struct {
		name string
		want uint64
		call func(c *Batched)
	}
	run := func(t *testing.T, cases []opCase) {
		c := newBatched(t, memctrl.COP)
		// Seed a little state so reads/settles take their normal paths.
		for i := 0; i < 8; i++ {
			if err := c.Write(uint64(i)*BlockBytes, block); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range cases {
			before := c.Ops()
			tc.call(c)
			if got := c.Ops() - before; got != tc.want {
				t.Errorf("%s: Ops delta = %d, want %d", tc.name, got, tc.want)
			}
		}
	}
	t.Run("sharded", func(t *testing.T) {
		run(t, []opCase{
			{"Read", 1, func(c *Batched) { _, _ = c.Read(0) }},
			{"ReadWithInfo", 1, func(c *Batched) { _, _, _ = c.ReadWithInfo(0) }},
			{"ReadInto", 1, func(c *Batched) { _, _ = c.ReadInto(dst, 0) }},
			{"Write", 1, func(c *Batched) { _ = c.Write(0, block) }},
			{"Settle", 1, func(c *Batched) { _ = c.Settle(0) }},
			{"InjectBitFlip", 1, func(c *Batched) { _ = c.InjectBitFlip(0, 3) }},
			{"InjectChipFailure", 1, func(c *Batched) { _ = c.InjectChipFailure(0, 0, 0xFF) }},
			// Aligned 3-block range: 3 block updates.
			{"ReadBytes/3-blocks", 3, func(c *Batched) { _, _ = c.ReadBytes(0, 3*BlockBytes) }},
			{"ReadBytesInto/3-blocks", 3, func(c *Batched) { _ = c.ReadBytesInto(span, 0) }},
			{"WriteBytes/3-blocks", 3, func(c *Batched) { _ = c.WriteBytes(0, span) }},
			// Unaligned 1-byte-past-block range: touches 2 blocks.
			{"ReadBytes/straddle", 2, func(c *Batched) { _, _ = c.ReadBytes(BlockBytes-1, 2) }},
			{"WriteBytes/straddle", 2, func(c *Batched) { _ = c.WriteBytes(BlockBytes-1, span[:2]) }},
			// Pure queries are not counted.
			{"StoredKind", 0, func(c *Batched) { _ = c.StoredKind(0) }},
			{"InDRAM", 0, func(c *Batched) { _ = c.InDRAM(0) }},
			// Maintenance sweeps are not counted.
			{"Flush", 0, func(c *Batched) { _ = c.Flush() }},
		})
	})
	t.Run("batched", func(t *testing.T) {
		window := func(submit func(g *Group)) func(c *Batched) {
			return func(c *Batched) {
				g := c.NewGroup()
				submit(g)
				_ = g.Wait()
				c.PutGroup(g)
			}
		}
		run(t, []opCase{
			{"Group.Read", 1, window(func(g *Group) { g.Read(dst, 0) })},
			{"Group.Write", 1, window(func(g *Group) { g.Write(0, block) })},
			{"Group.ReadFlow", 1, window(func(g *Group) { g.ReadFlow(dst, 0, 7, &memctrl.ReadInfo{}) })},
			{"Group.WriteFlow", 1, window(func(g *Group) { g.WriteFlow(0, block, 7) })},
			// An invalid-length write is still one attempted access.
			{"Group.Write/raw", 1, window(func(g *Group) { g.Write(0, block[:3]) })},
			{"Group/3-blocks", 3, window(func(g *Group) {
				g.Write(0, block)
				g.Read(dst, BlockBytes)
				g.Write(2*BlockBytes, block)
			})},
		})
	})
}

// TestSetTracerUnderTraffic attaches and detaches a tracer while
// concurrent goroutines hammer the front-end — the /trace/start-style
// runtime toggle. "sharded" drives synchronous calls and "batched" drives
// Group windows, both under the shard locks. Run under -race this pins
// the SetTracer handle swap to the shard locks.
func TestSetTracerUnderTraffic(t *testing.T) {
	t.Run("sharded", func(t *testing.T) {
		c := newBatched(t, memctrl.COP)
		tr := trace.New(trace.Config{})
		tr.Start()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				data := compressibleData(rng)
				for i := 0; !stop.Load(); i++ {
					addr := uint64(rng.Intn(512)) * BlockBytes
					if i%3 == 0 {
						_ = c.Write(addr, data)
					} else {
						_, _ = c.Read(addr)
					}
				}
			}(g)
		}
		for i := 0; i < 200; i++ {
			c.SetTracer(tr)
			c.SetTracer(nil)
		}
		stop.Store(true)
		wg.Wait()
	})
	t.Run("batched", func(t *testing.T) {
		b := newBatched(t, memctrl.COP)
		tr := trace.New(trace.Config{})
		tr.Start()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				data := compressibleData(rng)
				grp := b.NewGroup()
				dst := make([]byte, 8*BlockBytes) // one buffer per in-flight slot
				for i := 0; !stop.Load(); i++ {
					addr := uint64(rng.Intn(512)) * BlockBytes
					if i%3 == 0 {
						grp.Write(addr, data)
					} else {
						w := i % 8
						grp.Read(dst[w*BlockBytes:(w+1)*BlockBytes], addr)
					}
					if i%8 == 7 {
						_ = grp.Wait()
					}
				}
				_ = grp.Wait()
			}(g)
		}
		for i := 0; i < 200; i++ {
			b.SetTracer(tr)
			b.SetTracer(nil)
		}
		stop.Store(true)
		wg.Wait()
	})
}

// TestShardZeroAllocRangeOps pins the allocation-free synchronous paths:
// over LLC-resident blocks, ReadInto, Write, WriteBytes and ReadBytesInto
// allocate nothing and ReadBytes allocates exactly its result.
func TestShardZeroAllocRangeOps(t *testing.T) {
	c := newBatched(t, memctrl.COP)
	block := make([]byte, BlockBytes)
	for i := 0; i < 16; i++ {
		if err := c.Write(uint64(i)*BlockBytes, block); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, BlockBytes)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		addr := uint64(i%16) * BlockBytes
		if err := c.Write(addr, block); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReadInto(dst, addr); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("ReadInto/Write hit path allocates %.1f allocs/op, want 0", n)
	}
	span := make([]byte, 3*BlockBytes)
	if n := testing.AllocsPerRun(200, func() {
		addr := uint64(i%4)*BlockBytes + 7 // unaligned: RMW at both ends
		if err := c.WriteBytes(addr, span[:2*BlockBytes+11]); err != nil {
			t.Fatal(err)
		}
		if err := c.ReadBytesInto(span, addr); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("range-op hit path allocates %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.ReadBytes(uint64(i%4)*BlockBytes, 2*BlockBytes); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 1 {
		t.Fatalf("ReadBytes allocates %.1f allocs/op, want exactly its result (1)", n)
	}
}

// FuzzRangeOps drives arbitrary byte-range traffic through the sharded
// front-end and an unsharded reference and requires byte-identical reads.
// The corpus bytes encode a little op program: each 4-byte group selects
// (op, addr, len) over a small striped address space.
func FuzzRangeOps(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x41, 0x7F, 0x81, 0x3F, 0x02, 0xFE})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x40, 0x13, 0x37, 0xBE, 0xEF, 0xCA, 0xFE, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, program []byte) {
		ref := newUnsharded(memctrl.COP)
		sh := newBatched(t, memctrl.COP)
		const span = 1 << 12
		payload := make([]byte, 2*BlockBytes+2)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		for p := 0; p+3 < len(program); p += 4 {
			addr := uint64(program[p+1])<<4 | uint64(program[p+2])&0xF
			if addr >= span {
				addr %= span
			}
			n := 1 + int(program[p+3])%(2*BlockBytes+1)
			if program[p]&1 == 0 {
				data := payload[:n]
				errR := ref.WriteBytes(addr, data)
				errS := sh.WriteBytes(addr, data)
				if (errR == nil) != (errS == nil) {
					t.Fatalf("WriteBytes(%#x,%d): ref err %v, sharded err %v", addr, n, errR, errS)
				}
			} else {
				want, errR := ref.ReadBytes(addr, n)
				got, errS := sh.ReadBytes(addr, n)
				if (errR == nil) != (errS == nil) {
					t.Fatalf("ReadBytes(%#x,%d): ref err %v, sharded err %v", addr, n, errR, errS)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("ReadBytes(%#x,%d): ref %x != sharded %x", addr, n, want, got)
				}
			}
		}
	})
}
