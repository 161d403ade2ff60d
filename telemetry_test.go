package cop_test

// Tests for the unified telemetry API at the public surface: the
// sharded/unsharded snapshot byte-identity guarantee and the zero-alloc
// hot-path guarantee (telemetry always on).

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"cop"
)

// driveTrace replays one deterministic single-threaded trace — mixed
// compressible/incompressible writes over a footprint larger than the
// LLC, then a read sweep — through any memory front-end.
func driveTrace(t *testing.T, write func(uint64, []byte) error, read func(uint64) ([]byte, error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x7E1E))
	const blocks = 2048
	buf := make([]byte, cop.BlockBytes)
	for i := 0; i < blocks; i++ {
		if i%4 == 0 {
			rng.Read(buf)
		} else {
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(buf[8*w:], 0x00007F00_00000000|uint64(rng.Intn(1<<20)))
			}
		}
		if err := write(uint64(i)*cop.BlockBytes, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*blocks; i++ {
		addr := uint64(rng.Intn(blocks)) * cop.BlockBytes
		if _, err := read(addr); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedSnapshotByteIdentical pins the snapshot merge: a sharded and
// an unsharded run of the same single-threaded trace must produce
// byte-identical JSON snapshots (minus the sharded side's Batch section,
// which an unsharded memory has no rings to fill) — every counter and
// histogram bucket merges exactly, and derived rates are recomputed after
// the merge.
func TestShardedSnapshotByteIdentical(t *testing.T) {
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}

	single := cop.NewMemory(memCfg)
	driveTrace(t, single.Write, single.Read)
	want, err := single.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{2, 4, 8} {
		st, err := cop.Open(cop.WithMemoryConfig(memCfg), cop.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		sharded := st.(*cop.BatchedMemory)
		driveTrace(t, sharded.Write, sharded.Read)
		snap := sharded.Snapshot()
		sharded.Close()
		snap.Batch = nil
		got, err := snap.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d shards: snapshot JSON differs from unsharded:\n--- unsharded\n%s\n--- sharded\n%s", shards, want, got)
		}
	}
}

// TestSnapshotEquivalentAcrossFrontends checks that the controller and
// cache sections merge exactly in the region-backed modes too. (The region
// section itself is excluded: per-shard regions are independent instances,
// so their entry-block layout — and hence tree-block traffic and
// footprint — legitimately differs from one global region's.)
func TestSnapshotEquivalentAcrossFrontends(t *testing.T) {
	for _, mode := range []cop.MemoryMode{cop.ModeCOPER, cop.ModeCOPChipkill} {
		t.Run(mode.String(), func(t *testing.T) {
			memCfg := cop.MemoryConfig{Mode: mode, LLCBytes: 64 * 1024, LLCWays: 8}
			single := cop.NewMemory(memCfg)
			driveTrace(t, single.Write, single.Read)
			sharded := cop.NewBatchedMemory(cop.BatchedMemoryConfig{Shard: cop.ShardedMemoryConfig{Mem: memCfg, Shards: 4}})
			defer sharded.Close()
			driveTrace(t, sharded.Write, sharded.Read)

			a, b := single.Snapshot(), sharded.Snapshot()
			a.Region, b.Region, b.Batch = nil, nil, nil
			a.Finalize()
			b.Finalize()
			aj, _ := a.JSON()
			bj, _ := b.JSON()
			if !bytes.Equal(aj, bj) {
				t.Errorf("controller/cache sections differ:\n--- unsharded\n%s\n--- sharded\n%s", aj, bj)
			}
		})
	}
}

// TestReadHotPathAllocs is the memory-hierarchy half of the zero-alloc
// guarantee: with telemetry always on, an LLC-hit read performs exactly
// one allocation — the 64-byte result copy handed to the caller — i.e.
// the instrumentation itself allocates nothing. (The telemetry
// primitives' own 0-allocs guard lives in internal/telemetry.)
func TestReadHotPathAllocs(t *testing.T) {
	mem := cop.NewMemory(cop.MemoryConfig{Mode: cop.ModeCOP})
	data := make([]byte, cop.BlockBytes)
	if err := mem.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Read(0); err != nil { // warm the LLC
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := mem.Read(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("LLC-hit read: %v allocs/op, want 1 (the result copy)", allocs)
	}
}
