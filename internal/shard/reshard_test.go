package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cop/internal/memctrl"
)

// reshardOp is one entry of a worker's recorded traffic log: a write of
// version ver, or a read expecting the content of version ver (0 = block
// never written, content unchecked).
type reshardOp struct {
	write bool
	idx   int
	ver   uint32
}

// TestReshardEquivalence splits 4->8 and merges 8->4 stripes while eight
// workers drive recorded traffic over disjoint block ranges — odd workers
// through synchronous calls, even workers through one-op Group windows,
// which must be re-routed off retired shards — then replays the
// identical per-worker op logs single-threaded on a fresh memory built
// directly at the target shape. The final DRAM images must be
// byte-identical and Ops() must match exactly — stripe moves are not ops.
func TestReshardEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to int
	}{
		{"split-4-to-8", 4, 8},
		{"merge-8-to-4", 8, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const (
				workers   = 8
				perWorker = 192
				opsPer    = 2500
			)
			content := func(w, idx int, ver uint32) []byte {
				b := make([]byte, BlockBytes)
				for i := 0; i < 8; i++ {
					binary.BigEndian.PutUint64(b[8*i:],
						0x00001E00_00000000|uint64(w)<<32|uint64(idx)<<8|uint64(ver)&0xFF+uint64(i)<<16)
				}
				return b
			}
			logs := make([][]reshardOp, workers)
			for w := range logs {
				rng := rand.New(rand.NewSource(int64(w)*7919 + int64(tc.from)))
				vers := make([]uint32, perWorker)
				for idx := range vers {
					vers[idx] = 1 // the population pass below writes version 1
				}
				ops := make([]reshardOp, opsPer)
				for i := range ops {
					idx := rng.Intn(perWorker)
					if rng.Intn(3) == 0 {
						vers[idx]++
						ops[i] = reshardOp{write: true, idx: idx, ver: vers[idx]}
					} else {
						ops[i] = reshardOp{idx: idx, ver: vers[idx]}
					}
				}
				logs[w] = ops
			}
			addrOf := func(w, idx int) uint64 { return uint64(w*perWorker+idx) * BlockBytes }
			build := func(n int) *Batched {
				return NewBatched(Config{Mem: memctrl.Config{Mode: memctrl.COP, LLCBytes: 32 * 1024, LLCWays: 8}, Shards: n})
			}

			// populate writes version 1 of every block and settles it to
			// DRAM, so the reshard has resident stripes to move. It is part
			// of the recorded history and replayed identically below.
			populate := func(m *Batched) {
				for w := 0; w < workers; w++ {
					for idx := 0; idx < perWorker; idx++ {
						if err := m.Write(addrOf(w, idx), content(w, idx, 1)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if err := m.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			live := build(tc.from)
			defer live.Close()
			populate(live)
			var wg sync.WaitGroup
			werrs := make(chan error, workers)
			gate := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					write, read := live.Write, live.Read
					if w%2 == 0 {
						g := live.NewGroup()
						write = func(a uint64, data []byte) error {
							g.Write(a, data)
							return g.Wait()
						}
						read = func(a uint64) ([]byte, error) {
							got := make([]byte, BlockBytes)
							g.Read(got, a)
							return got, g.Wait()
						}
					}
					<-gate
					for _, op := range logs[w] {
						a := addrOf(w, op.idx)
						if op.write {
							if err := write(a, content(w, op.idx, op.ver)); err != nil {
								werrs <- fmt.Errorf("worker %d write %#x: %w", w, a, err)
								return
							}
							continue
						}
						got, err := read(a)
						if err != nil {
							werrs <- fmt.Errorf("worker %d read %#x: %w", w, a, err)
							return
						}
						if op.ver > 0 && !bytes.Equal(got, content(w, op.idx, op.ver)) {
							werrs <- fmt.Errorf("worker %d read %#x: stale or corrupt data mid-reshard", w, a)
							return
						}
					}
				}(w)
			}
			close(gate)
			if err := live.Reshard(tc.to); err != nil {
				t.Fatalf("Reshard(%d): %v", tc.to, err)
			}
			wg.Wait()
			close(werrs)
			for err := range werrs {
				t.Fatal(err)
			}
			if got := live.NumShards(); got != tc.to {
				t.Fatalf("NumShards = %d after Reshard(%d)", got, tc.to)
			}
			snap := live.Snapshot()
			if snap.Migration == nil || snap.Migration.Reshards != 1 {
				t.Fatalf("reshard telemetry missing or wrong: %+v", snap.Migration)
			}
			if snap.Migration.BlocksMoved == 0 {
				t.Fatal("reshard moved no blocks")
			}
			if err := live.Flush(); err != nil {
				t.Fatal(err)
			}

			replay := build(tc.to)
			defer replay.Close()
			populate(replay)
			for w := 0; w < workers; w++ {
				for _, op := range logs[w] {
					a := addrOf(w, op.idx)
					if op.write {
						if err := replay.Write(a, content(w, op.idx, op.ver)); err != nil {
							t.Fatal(err)
						}
					} else if _, err := replay.Read(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := replay.Flush(); err != nil {
				t.Fatal(err)
			}

			if lo, ro := live.Ops(), replay.Ops(); lo != ro {
				t.Fatalf("Ops: live=%d replay=%d — resharding leaked or swallowed operations", lo, ro)
			}
			liveImg, replayImg := live.DumpDRAM(), replay.DumpDRAM()
			if len(liveImg) != len(replayImg) {
				t.Fatalf("DRAM image count: live=%d replay=%d", len(liveImg), len(replayImg))
			}
			for a, img := range liveImg {
				ref, ok := replayImg[a]
				if !ok {
					t.Fatalf("block %#x present live, absent in replay", a)
				}
				if !bytes.Equal(img, ref) {
					t.Fatalf("block %#x: live image differs from replay-at-target-shape image", a)
				}
			}
		})
	}
}

// TestReshardRoundTripByteIdentical pins the acceptance criterion
// directly: 4 -> 8 -> 4 under single-threaded traffic must land on exactly
// the images a never-resharded memory holds.
func TestReshardRoundTripByteIdentical(t *testing.T) {
	build := func() *Batched {
		return NewBatched(Config{Mem: memctrl.Config{Mode: memctrl.COP, LLCBytes: 32 * 1024, LLCWays: 8}, Shards: 4})
	}
	a, b := build(), build()
	defer a.Close()
	defer b.Close()
	rng := rand.New(rand.NewSource(0x48A))
	const blocks = 1 << 10
	write := func(m *Batched, i int) {
		data := compressibleData(rng)
		if err := m.Write(uint64(i)*BlockBytes, data); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(uint64(i)*BlockBytes, data); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < blocks; i++ {
		write(a, i)
	}
	if err := a.Reshard(8); err != nil {
		t.Fatalf("Reshard(8): %v", err)
	}
	for i := 0; i < blocks; i += 2 {
		write(a, i)
	}
	if err := a.Reshard(4); err != nil {
		t.Fatalf("Reshard(4): %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	ai, bi := a.DumpDRAM(), b.DumpDRAM()
	if len(ai) != len(bi) {
		t.Fatalf("image counts diverged: resharded=%d straight=%d", len(ai), len(bi))
	}
	for addr, img := range ai {
		if !bytes.Equal(img, bi[addr]) {
			t.Fatalf("block %#x differs after 4->8->4 round trip", addr)
		}
	}
}

// TestReshardRejects pins the error paths: non-power-of-two and
// out-of-range stripe counts fail without disturbing the memory, and a
// closed front-end refuses outright.
func TestReshardRejects(t *testing.T) {
	m := NewBatched(Config{Mem: memctrl.Config{Mode: memctrl.COP, LLCBytes: 32 * 1024, LLCWays: 8}, Shards: 4})
	data := make([]byte, BlockBytes)
	data[0] = 0xAB
	if err := m.Write(0, data); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, -1, 3, 6, 1 << 20} {
		if err := m.Reshard(n); err == nil {
			t.Errorf("Reshard(%d) succeeded, want error", n)
		}
	}
	if got := m.NumShards(); got != 4 {
		t.Fatalf("failed reshards changed shard count to %d", got)
	}
	got, err := m.Read(0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("data disturbed by rejected reshards: %v", err)
	}
	m.Close()
	if err := m.Reshard(8); err == nil {
		t.Fatal("Reshard after Close succeeded")
	}
}
