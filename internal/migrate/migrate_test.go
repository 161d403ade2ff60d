package migrate

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cop/internal/core"
	"cop/internal/faultsim"
	"cop/internal/memctrl"
	"cop/internal/reliability"
	"cop/internal/shard"
	"cop/internal/workload"
)

// compressibleWorkload registers (once) a fully compressible content
// profile: every block is small-integer data, inside every COP geometry's
// compression threshold, so plain COP protects the whole footprint and a
// single-bit campaign must contain zero silent corruptions even while the
// geometry is being migrated underneath it.
var compressibleOnce sync.Once

func compressibleWorkload(t *testing.T) string {
	t.Helper()
	compressibleOnce.Do(func() {
		if _, err := workload.RegisterCustom(workload.Profile{
			Name:            "migrate-smallint",
			Mix:             workload.ContentMix{SmallInt: 1},
			FootprintBlocks: 4096, MPKI: 1, PerfectIPC: 1,
		}); err != nil {
			panic(err)
		}
	})
	return "migrate-smallint"
}

func newBatched(s Scheme, shards int) *shard.Batched {
	return shard.NewBatched(shard.Config{
		Mem:    memctrl.Config{Mode: s.Mode, COPConfig: s.COP, LLCBytes: 32 * 1024, LLCWays: 8},
		Shards: shards,
	})
}

func mustScheme(t *testing.T, name string) Scheme {
	t.Helper()
	s, ok := Lookup(name)
	if !ok {
		t.Fatalf("scheme %q not registered", name)
	}
	return s
}

// TestMigrationUnderFire is the issue's acceptance campaign: a seeded
// single-bit fault-injection campaign runs THROUGH a live COP-4 -> COP-8
// migration with four concurrent workers. It must classify zero silent
// corruptions, the oracle must refute nothing, and the final DRAM image
// must be byte-identical to the image produced by running the same seeded
// campaign to completion first and migrating offline (drained,
// single-threaded) afterwards.
func TestMigrationUnderFire(t *testing.T) {
	type outcome struct {
		res  *faultsim.Result
		dump map[uint64][]byte
	}
	campaign := func(online bool) outcome {
		bm := newBatched(mustScheme(t, "cop-4"), 4)
		defer bm.Close()
		cfg := faultsim.Config{
			Mode:       memctrl.COP,
			Seed:       0xF14E,
			Blocks:     2048,
			Injections: 800,
			Workload:   compressibleWorkload(t),
			Modes:      []reliability.FailureMode{reliability.SingleBit},
			Workers:    4,
			Parallel:   online,
			Memory:     bm,
		}
		var migErr error
		var wg sync.WaitGroup
		if online {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Let the campaign get past footprint population so the
				// conversion walk overlaps live trials.
				time.Sleep(2 * time.Millisecond)
				migErr = MigrateTo(bm, "cop-8", Options{ChunkBlocks: 64})
			}()
		}
		res, err := faultsim.Run(cfg)
		wg.Wait()
		if err != nil {
			t.Fatalf("campaign (online=%v): %v", online, err)
		}
		if migErr != nil {
			t.Fatalf("live migration: %v", migErr)
		}
		if !online {
			// Offline reference: quiesce the memory to a fenced, flushed
			// state first, then convert single-threaded with no traffic.
			if err := bm.Drain(); err != nil {
				t.Fatalf("offline drain: %v", err)
			}
			if err := MigrateTo(bm, "cop-8", Options{ChunkBlocks: 64}); err != nil {
				t.Fatalf("offline migrate: %v", err)
			}
		}
		snap := bm.Snapshot()
		if snap.Migration == nil || snap.Migration.SchemeMigrations != 1 {
			t.Fatalf("online=%v: migration telemetry missing or wrong: %+v", online, snap.Migration)
		}
		if err := bm.Flush(); err != nil {
			t.Fatalf("final flush: %v", err)
		}
		return outcome{res: res, dump: bm.DumpDRAM()}
	}

	onl := campaign(true)
	off := campaign(false)

	for _, o := range []struct {
		name string
		outcome
	}{{"online", onl}, {"offline", off}} {
		if s, fa := o.res.Outcomes(faultsim.Silent), o.res.Outcomes(faultsim.FalseAlias); s != 0 || fa != 0 {
			t.Errorf("%s campaign: silent=%d false-alias=%d, want 0/0\n%s", o.name, s, fa, o.res.Table())
		}
		if om := o.res.OracleMismatches(); om != 0 {
			t.Errorf("%s campaign: oracle refuted %d reads", o.name, om)
		}
		if o.res.Outcomes(faultsim.Corrected) == 0 {
			t.Errorf("%s campaign corrected nothing — injection is not reaching live data", o.name)
		}
	}

	if len(onl.dump) != len(off.dump) {
		t.Fatalf("DRAM image count: online=%d offline=%d", len(onl.dump), len(off.dump))
	}
	for a, img := range onl.dump {
		ref, ok := off.dump[a]
		if !ok {
			t.Fatalf("block %#x present online, absent offline", a)
		}
		if !bytes.Equal(img, ref) {
			t.Fatalf("block %#x: online image %x != offline image %x", a, img, ref)
		}
	}
}

// TestMigrateAllSchemePairsUnderTraffic migrates between every ordered
// pair of registered schemes while two goroutines keep oracle-verified
// traffic flowing, then sweeps the whole footprint: every block must still
// read back its oracle content under the new scheme.
func TestMigrateAllSchemePairsUnderTraffic(t *testing.T) {
	names := Names()
	for fi, from := range names {
		for ti, to := range names {
			if from == to {
				continue
			}
			from, to, seed := from, to, int64(fi*16+ti+1)
			t.Run(from+"_to_"+to, func(t *testing.T) {
				t.Parallel()
				fs := mustScheme(t, from)
				bm := newBatched(fs, 2)
				defer bm.Close()

				const blocks = 512
				rng := rand.New(rand.NewSource(seed))
				content := make([][]byte, blocks)
				for i := range content {
					b := make([]byte, shard.BlockBytes)
					for w := 0; w < 8; w++ {
						binary.BigEndian.PutUint64(b[8*w:], 0x00003F00_00000000|uint64(rng.Intn(1<<16)))
					}
					content[i] = b
					if err := bm.Write(uint64(i)*shard.BlockBytes, b); err != nil {
						t.Fatal(err)
					}
				}
				if err := bm.Flush(); err != nil {
					t.Fatal(err)
				}

				stop := make(chan struct{})
				var wg sync.WaitGroup
				var bad atomic.Int64
				werrs := make(chan error, 2)
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						wr := rand.New(rand.NewSource(seed))
						for ops := 0; ; ops++ {
							select {
							case <-stop:
								return
							default:
							}
							idx := wr.Intn(blocks)
							addr := uint64(idx) * shard.BlockBytes
							if ops%3 == 0 {
								if err := bm.Write(addr, content[idx]); err != nil {
									werrs <- err
									return
								}
							} else {
								got, err := bm.Read(addr)
								if err != nil {
									werrs <- err
									return
								}
								if !bytes.Equal(got, content[idx]) {
									bad.Add(1)
								}
							}
						}
					}(seed*100 + int64(g))
				}

				err := MigrateTo(bm, to, Options{ChunkBlocks: 32})
				close(stop)
				wg.Wait()
				if err != nil {
					t.Fatalf("migrate %s -> %s: %v", from, to, err)
				}
				close(werrs)
				for err := range werrs {
					t.Fatal(err)
				}
				ts := mustScheme(t, to)
				if got := bm.Mode(); got != ts.Mode {
					t.Fatalf("Mode after migration = %v, want %v", got, ts.Mode)
				}
				for i, want := range content {
					got, err := bm.Read(uint64(i) * shard.BlockBytes)
					if err != nil {
						t.Fatalf("block %d after migration: %v", i, err)
					}
					if !bytes.Equal(got, want) {
						bad.Add(1)
					}
				}
				if n := bad.Load(); n != 0 {
					t.Fatalf("%d corrupted reads across %s -> %s", n, from, to)
				}
			})
		}
	}
}

// TestMigrateUnknownScheme pins the registry error path.
func TestMigrateUnknownScheme(t *testing.T) {
	bm := newBatched(mustScheme(t, "cop-4"), 2)
	defer bm.Close()
	err := MigrateTo(bm, "cop-42", Options{})
	if err == nil {
		t.Fatal("MigrateTo accepted an unknown scheme")
	}
	if want := "unknown scheme"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestRegistry pins the built-in scheme set and Register/Lookup behavior.
func TestRegistry(t *testing.T) {
	for _, want := range []string{"unprotected", "cop-4", "cop-8", "cop-adaptive", "ecc-region", "ecc-dimm"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("built-in scheme %q missing", want)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	Register(Scheme{Name: "test-cop-4", Mode: memctrl.COP, COP: core.NewConfig4()})
	if _, ok := Lookup("test-cop-4"); !ok {
		t.Fatal("Register did not add the scheme")
	}
	delete(schemes, "test-cop-4")
}

// TestMigrationTelemetryProgress: a migration must account its chunk count
// and block total in the Migration section of the snapshot.
func TestMigrationTelemetryProgress(t *testing.T) {
	bm := newBatched(mustScheme(t, "cop-4"), 2)
	defer bm.Close()
	const blocks = 256
	buf := make([]byte, shard.BlockBytes)
	for i := 0; i < blocks; i++ {
		binary.BigEndian.PutUint64(buf, uint64(i))
		if err := bm.Write(uint64(i)*shard.BlockBytes, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := bm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := MigrateTo(bm, "cop-8", Options{ChunkBlocks: 16}); err != nil {
		t.Fatal(err)
	}
	snap := bm.Snapshot()
	m := snap.Migration
	if m == nil {
		t.Fatal("snapshot has no migration section after a migration")
	}
	if m.SchemeMigrations != 1 {
		t.Errorf("SchemeMigrations = %d, want 1", m.SchemeMigrations)
	}
	// All footprint blocks sat in DRAM or dirty LLC lines; the conversion
	// walk plus organic writebacks must account every one of them.
	if m.BlocksMigrated == 0 {
		t.Errorf("BlocksMigrated = 0 after migrating a %d-block footprint", blocks)
	}
	if m.Chunks < m.BlocksMigrated/16 {
		t.Errorf("Chunks = %d too few for %d blocks at chunk size 16", m.Chunks, m.BlocksMigrated)
	}
	if got := snap.Controller.MigratedBlocks; got == 0 {
		t.Error("controller MigratedBlocks = 0 after a migration")
	}
}

func ExampleMigrate() {
	bm := shard.NewBatched(shard.Config{
		Mem:    memctrl.Config{Mode: memctrl.COP, COPConfig: core.NewConfig4(), LLCBytes: 16 * 1024, LLCWays: 4},
		Shards: 2,
	})
	defer bm.Close()
	_ = bm.Write(0, make([]byte, shard.BlockBytes))
	_ = bm.Flush()
	if err := MigrateTo(bm, "cop-8", Options{}); err != nil {
		fmt.Println("migrate:", err)
		return
	}
	fmt.Println("migrations:", bm.Snapshot().Migration.SchemeMigrations)
	// Output: migrations: 1
}
