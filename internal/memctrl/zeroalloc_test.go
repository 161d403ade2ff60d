package memctrl

import (
	"encoding/binary"
	"testing"

	"cop/internal/trace"
)

// TestZeroAllocHotPaths pins the steady-state read/write path at zero
// allocations per op — both with no tracer and with a tracer attached but
// disabled, the configuration every non-debugging run uses. The sharded
// throughput benchmark guards the same property in wall-clock terms
// (BenchmarkShardedThroughput/sharded-8g-traceoff); this test fails fast
// and precisely when someone reintroduces an allocation.
func TestZeroAllocHotPaths(t *testing.T) {
	cases := []struct {
		name   string
		tracer *trace.Tracer
	}{
		{"no-tracer", nil},
		{"tracer-attached-disabled", trace.New(trace.Config{})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{Mode: COP, LLCBytes: 64 * 1024, LLCWays: 8, Tracer: tc.tracer})
			data := make([]byte, BlockBytes)
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(data[8*w:], 0x00007F00_00000000|uint64(w))
			}
			// Make the working set LLC-resident so the measured ops are
			// the hit paths (misses legitimately allocate the fill buffer).
			const resident = 16
			for i := 0; i < resident; i++ {
				if err := c.Write(uint64(i)*BlockBytes, data); err != nil {
					t.Fatal(err)
				}
			}
			dst := make([]byte, BlockBytes)
			i := 0
			if n := testing.AllocsPerRun(200, func() {
				addr := uint64(i%resident) * BlockBytes
				if err := c.Write(addr, data); err != nil {
					t.Fatal(err)
				}
				if _, err := c.ReadInto(dst, addr); err != nil {
					t.Fatal(err)
				}
				i++
			}); n != 0 {
				t.Fatalf("read/write hit path allocates %.1f allocs/op, want 0", n)
			}

			// Multi-block range ops over resident blocks: the per-call
			// scratch is stack-allocated, so ReadBytesInto and WriteBytes
			// (including the RMW at both unaligned ends) stay at zero.
			span := make([]byte, 3*BlockBytes)
			i = 0
			if n := testing.AllocsPerRun(200, func() {
				addr := uint64(i%4)*BlockBytes + 7 // unaligned, crosses blocks
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
		})
	}
}

// TestZeroAllocImageRewrite pins the one buffer rule: every scheme
// encodes in place, rewriting a block's existing image in its own buffer,
// and every line buffer is recycled, so a steady stream of LLC misses —
// each a fill plus a dirty victim's writeback — allocates nothing.
func TestZeroAllocImageRewrite(t *testing.T) {
	for _, m := range []Mode{Unprotected, COP, COPER, ECCRegion, ECCDIMM, COPAdaptive, COPChipkill} {
		c := New(Config{Mode: m, LLCBytes: 4096, LLCWays: 4})
		const blocks = 512 // 8× the LLC: every access misses
		data := make([]byte, BlockBytes)
		for w := 0; w < 8; w++ {
			binary.BigEndian.PutUint64(data[8*w:], 0x00007F00_00000000|uint64(w))
		}
		for i := 0; i < blocks; i++ {
			if err := c.Write(uint64(i)*BlockBytes, data); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, BlockBytes)
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			addr := uint64(i%blocks) * BlockBytes
			if err := c.Write(addr, data); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadInto(dst, (addr+blocks/2*BlockBytes)%(blocks*BlockBytes)); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%v: miss path allocates %.1f allocs/op, want 0", m, n)
		}
	}
}
