package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
)

func compressibleData(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	base := uint64(0x00007F00_00000000)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(b[8*i:], base|uint64(rng.Intn(1<<20)))
	}
	return b
}

func randomData(rng *rand.Rand) []byte {
	b := make([]byte, BlockBytes)
	rng.Read(b)
	return b
}

// newBatched builds a 4-shard front-end whose aggregate LLC matches
// newUnsharded's, small enough that evictions happen fast. The test
// closes it.
func newBatched(t testing.TB, m memctrl.Mode) *Batched {
	b := NewBatched(BatchedConfig{
		Shard: Config{Mem: memctrl.Config{Mode: m, LLCBytes: 64 * 1024, LLCWays: 8}, Shards: 4},
	})
	t.Cleanup(b.Close)
	return b
}

func newUnsharded(m memctrl.Mode) *memctrl.Controller {
	return memctrl.New(memctrl.Config{Mode: m, LLCBytes: 64 * 1024, LLCWays: 8})
}

func TestShardCountNormalization(t *testing.T) {
	mem := memctrl.Config{Mode: memctrl.COP, LLCBytes: 64 * 1024, LLCWays: 8}
	open := func(cfg Config) (*Batched, error) {
		b, err := NewBatchedChecked(BatchedConfig{Shard: cfg})
		if err == nil {
			t.Cleanup(b.Close)
		}
		return b, err
	}
	// Valid explicit counts are taken exactly as given.
	for _, n := range []int{1, 2, 8, 128} {
		c, err := open(Config{Mem: mem, Shards: n})
		if err != nil {
			t.Fatalf("Shards=%d: unexpected error %v", n, err)
		}
		if got := c.NumShards(); got != n {
			t.Errorf("Shards=%d: got %d shards", n, got)
		}
	}
	// Invalid explicit counts are errors, never silently rounded:
	// non-powers of two, more shards than the 128 LLC sets, negatives.
	for _, n := range []int{3, 5, 6, 7, 256, 1024, -1} {
		if _, err := open(Config{Mem: mem, Shards: n}); err == nil {
			t.Errorf("Shards=%d: want error, got nil", n)
		}
	}
	// A non-power-of-two set geometry is also an error.
	bad := memctrl.Config{Mode: memctrl.COP, LLCBytes: 96 * 1024, LLCWays: 8}
	if _, err := open(Config{Mem: bad, Shards: 2}); err == nil {
		t.Error("non-power-of-two set count: want error, got nil")
	}
	// NewBatched panics where NewBatchedChecked errors.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBatched(Shards=3): want panic")
			}
		}()
		NewBatched(BatchedConfig{Shard: Config{Mem: mem, Shards: 3}})
	}()
	// Shards=0 auto-selects a power of two clamped to the set count.
	def, err := open(Config{Mem: memctrl.Config{Mode: memctrl.COP}})
	if err != nil {
		t.Fatalf("auto shard count: %v", err)
	}
	if n := def.NumShards(); n <= 0 || n&(n-1) != 0 {
		t.Errorf("default shard count %d is not a power of two", n)
	}
	// NextPow2 is the sanctioned rounding helper for free worker counts.
	for in, want := range map[int]int{0: 1, 1: 1, 3: 4, 5: 8, 8: 8} {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestShardedMatchesUnshardedReplay replays one deterministic trace through
// a plain memctrl.Controller and the sharded front-end and requires
// identical functional results. Accesses alternate between the two ways
// in — synchronous calls and one-op Group windows — so both are held to
// the same reference: every read returns the same bytes and decoder
// verdict (ReadWithInfo), Settle and InjectBitFlip agree, injected faults
// get the same corrected/uncorrectable classification, every block's DRAM
// residency and stored kind match, Ops counts every access, and the
// snapshot JSON is byte-identical (minus the Batch section; minus the ECC
// region section for COP-ER, whose per-shard regions lay out entries
// differently). The set-index-compatible striping makes even
// hit/miss/eviction behavior line up exactly.
func TestShardedMatchesUnshardedReplay(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			single := newUnsharded(m)
			sharded := newBatched(t, m)
			g := sharded.NewGroup()
			var ops uint64 // accesses Ops must count
			viaGroup := false

			write := func(addr uint64, d []byte) {
				t.Helper()
				ops++
				viaGroup = !viaGroup
				var err error
				if viaGroup {
					g.Write(addr, d)
					err = g.Wait()
				} else {
					err = sharded.Write(addr, d)
				}
				if errS := single.Write(addr, d); (err == nil) != (errS == nil) {
					t.Fatalf("write %#x: error mismatch: %v vs %v", addr, errS, err)
				}
			}
			read := func(addr uint64) {
				t.Helper()
				ops++
				viaGroup = !viaGroup
				a, ia, aerr := single.ReadWithInfo(addr)
				if viaGroup {
					b := make([]byte, BlockBytes)
					g.Read(b, addr)
					if berr := g.Wait(); (aerr == nil) != (berr == nil) {
						t.Fatalf("group read %#x: error mismatch: %v vs %v", addr, aerr, berr)
					}
					if aerr == nil && !bytes.Equal(a, b) {
						t.Fatalf("group read %#x: data mismatch", addr)
					}
					return
				}
				b, ib, berr := sharded.ReadWithInfo(addr)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("read %#x: error mismatch: %v vs %v", addr, aerr, berr)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("read %#x: data mismatch", addr)
				}
				if m == memctrl.COPER {
					// Raw COP-ER images embed region pointers, which the
					// per-shard regions assign differently, so the
					// incidental valid-codeword count over those bits may
					// differ. Every verdict field must still agree.
					ia.ValidCodewords, ib.ValidCodewords = 0, 0
				}
				if ia != ib {
					t.Fatalf("read %#x: ReadWithInfo mismatch %+v vs %+v", addr, ia, ib)
				}
			}
			flush := func() {
				t.Helper()
				if errA, errB := single.Flush(), sharded.Flush(); (errA == nil) != (errB == nil) {
					t.Fatalf("flush: error mismatch: %v vs %v", errA, errB)
				}
			}

			// Mixed-content working set far larger than the LLC.
			blocks, mixOps := 4096, 8000
			if testing.Short() {
				blocks, mixOps = 1024, 2000
			}
			for i := 0; i < blocks; i++ {
				addr := uint64(i) * BlockBytes
				if i%3 == 0 {
					write(addr, randomData(rng))
				} else {
					write(addr, compressibleData(rng))
				}
			}
			// Interleave reads, rewrites, settles and the odd flush.
			for i := 0; i < mixOps; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				switch {
				case i%4 == 0:
					write(addr, compressibleData(rng))
				case i%16 == 7:
					ops++
					if errA, errB := single.Settle(addr), sharded.Settle(addr); (errA == nil) != (errB == nil) {
						t.Fatalf("settle %#x: error mismatch: %v vs %v", addr, errA, errB)
					}
				case i%512 == 9:
					flush()
				default:
					read(addr)
				}
			}
			flush()

			// Same single-bit fault campaign on both; same classification.
			injected := 0
			for i := 0; i < 512; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				bit := rng.Intn(8 * BlockBytes)
				ops++
				ia := single.InjectBitFlip(addr, bit)
				ib := sharded.InjectBitFlip(addr, bit)
				if ia != ib {
					t.Fatalf("inject %#x bit %d: residency mismatch %v vs %v", addr, bit, ia, ib)
				}
				if ia {
					injected++
					read(addr)
				}
			}
			if injected == 0 {
				t.Fatal("fault campaign never hit DRAM-resident blocks")
			}
			flush()
			if got := sharded.Ops(); got != ops {
				t.Fatalf("Ops() = %d, want %d", got, ops)
			}

			// DRAM ground truth, block by block.
			for blk := 0; blk < blocks; blk++ {
				addr := uint64(blk) * BlockBytes
				if inA, inB := single.InDRAM(addr), sharded.InDRAM(addr); inA != inB {
					t.Fatalf("InDRAM(%#x): %v vs %v", addr, inA, inB)
				}
				if kA, kB := single.StoredKind(addr), sharded.StoredKind(addr); kA != kB {
					t.Fatalf("StoredKind(%#x): %v vs %v", addr, kA, kB)
				}
			}

			sa, sb := single.Snapshot(), sharded.Snapshot()
			if sb.Batch == nil || sb.Batch.Enqueued == 0 {
				t.Fatalf("group windows left no batch counters: %+v", sb.Batch)
			}
			sb.Batch = nil
			if m == memctrl.COPER {
				sa.Region, sb.Region = nil, nil
				sa.Finalize()
				sb.Finalize()
			}
			ja, err := sa.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jb, err := sb.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ja, jb) {
				t.Fatalf("snapshot JSON diverged:\n--- unsharded\n%s\n--- sharded\n%s", ja, jb)
			}
		})
	}
}

// TestShardedConcurrentStress hammers one sharded controller with readers,
// writers, and fault injectors on overlapping addresses. Run under -race
// this is the concurrency-safety proof; functionally it checks that every
// op completes, errors are only the expected uncorrectable kind, and the
// op accounting adds up.
func TestShardedConcurrentStress(t *testing.T) {
	const (
		goroutines = 12
		blocks     = 512
	)
	opsPerG := 2500
	if testing.Short() {
		opsPerG = 600
	}
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER} {
		t.Run(m.String(), func(t *testing.T) {
			c := newBatched(t, m)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					buf := compressibleData(rng)
					for i := 0; i < opsPerG; i++ {
						addr := uint64(rng.Intn(blocks)) * BlockBytes
						switch rng.Intn(4) {
						case 0: // writer: compressible
							if err := c.Write(addr, buf); err != nil {
								errs <- fmt.Errorf("write %#x: %w", addr, err)
								return
							}
						case 1: // writer: random (exercises raw/region paths)
							if err := c.Write(addr, randomData(rng)); err != nil {
								errs <- fmt.Errorf("write %#x: %w", addr, err)
								return
							}
						case 2: // injector
							c.InjectBitFlip(addr, rng.Intn(8*BlockBytes))
						default: // reader
							if _, err := c.Read(addr); err != nil && !errors.Is(err, memctrl.ErrUncorrectable) {
								errs <- fmt.Errorf("read %#x: %w", addr, err)
								return
							}
						}
					}
				}(int64(1000 + g))
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if got, want := c.Ops(), uint64(goroutines*opsPerG); got != want {
				t.Fatalf("Ops() = %d, want %d", got, want)
			}
			st := c.Snapshot().Controller
			if st.Loads+st.Stores == 0 || st.Loads+st.Stores > uint64(goroutines*opsPerG) {
				t.Fatalf("implausible load/store accounting: %+v", st)
			}
		})
	}
}

// TestShardedConcurrentByteRanges drives WriteBytes/ReadBytes spans that
// straddle shard boundaries from many goroutines. Each goroutine owns a
// disjoint range, so data must round-trip exactly even under concurrency.
func TestShardedConcurrentByteRanges(t *testing.T) {
	c := newBatched(t, memctrl.COPER)
	const (
		goroutines = 8
		spanBytes  = 1000 // not block-aligned: exercises RMW + crossing
		rounds     = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + id)))
			base := uint64(id)*8192 + 37 // unaligned on purpose
			want := make([]byte, spanBytes)
			for r := 0; r < rounds; r++ {
				rng.Read(want)
				if err := c.WriteBytes(base, want); err != nil {
					errs <- err
					return
				}
				got, err := c.ReadBytes(base, spanBytes)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d round %d: byte range mismatch", id, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestShardedFlushSettlesAllShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := newBatched(t, memctrl.COP)
	var addrs []uint64
	for i := 0; i < 64; i++ {
		addr := uint64(i) * BlockBytes // touches every shard in turn
		addrs = append(addrs, addr)
		if err := c.Write(addr, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, addr := range addrs {
		if !c.InDRAM(addr) {
			t.Fatalf("block %#x not in DRAM after Flush", addr)
		}
	}
}

// TestShardedFlushUnderContention runs Flush concurrently with writers and
// readers. Flush must never lose a write: after the storm every
// goroutine's final data is what its blocks hold, and a last Flush leaves
// everything resident in DRAM.
func TestShardedFlushUnderContention(t *testing.T) {
	const (
		writers     = 8
		blocksPer   = 64
		rounds      = 30
		flushers    = 2
		flushesEach = 25
	)
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER} {
		t.Run(m.String(), func(t *testing.T) {
			c := newBatched(t, m)
			final := make([][][]byte, writers)
			var wg sync.WaitGroup
			errs := make(chan error, writers+flushers)
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(4000 + id)))
					last := make([][]byte, blocksPer)
					for r := 0; r < rounds; r++ {
						for b := 0; b < blocksPer; b++ {
							addr := uint64(id*blocksPer+b) * BlockBytes
							var d []byte
							if (r+b)%3 == 0 {
								d = randomData(rng)
							} else {
								d = compressibleData(rng)
							}
							last[b] = d
							if err := c.Write(addr, d); err != nil {
								errs <- fmt.Errorf("writer %d: %w", id, err)
								return
							}
							if b%7 == 0 {
								if _, err := c.Read(addr); err != nil {
									errs <- fmt.Errorf("reader %d: %w", id, err)
									return
								}
							}
						}
					}
					final[id] = last
				}(g)
			}
			for f := 0; f < flushers; f++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < flushesEach; i++ {
						if err := c.Flush(); err != nil {
							errs <- fmt.Errorf("flush: %w", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for id, last := range final {
				for b, want := range last {
					addr := uint64(id*blocksPer+b) * BlockBytes
					got, err := c.Read(addr)
					if err != nil {
						t.Fatalf("read %#x after contended flushes: %v", addr, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("block %#x lost its last write under contended flushes", addr)
					}
				}
			}
		})
	}
}

// TestShardedInjectedErrorEquivalence drives correctable AND uncorrectable
// injections through a sharded and an unsharded controller in lockstep:
// the error class, returned bytes, decoder observations (ReadWithInfo),
// and stored-form ground truth (StoredKind) must agree access for access.
func TestShardedInjectedErrorEquivalence(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER, memctrl.ECCDIMM} {
		t.Run(m.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			single := newUnsharded(m)
			sharded := newBatched(t, m)
			const blocks = 1024
			for i := 0; i < blocks; i++ {
				addr := uint64(i) * BlockBytes
				var d []byte
				if i%3 == 0 {
					d = randomData(rng)
				} else {
					d = compressibleData(rng)
				}
				if err := single.Write(addr, d); err != nil {
					t.Fatal(err)
				}
				if err := sharded.Write(addr, d); err != nil {
					t.Fatal(err)
				}
			}
			uncorrectable := 0
			for i := 0; i < 400; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				if err := single.Settle(addr); err != nil {
					t.Fatal(err)
				}
				if err := sharded.Settle(addr); err != nil {
					t.Fatal(err)
				}
				if ka, kb := single.StoredKind(addr), sharded.StoredKind(addr); ka != kb {
					t.Fatalf("StoredKind(%#x): %v vs %v", addr, ka, kb)
				}
				// Even trials: one flip (correctable). Odd trials: two flips
				// in the same 64-bit word (uncorrectable for SECDED).
				bit := rng.Intn(8 * BlockBytes)
				bits := []int{bit}
				if i%2 == 1 {
					bits = append(bits, bit^1)
				}
				for _, b := range bits {
					ia := single.InjectBitFlip(addr, b)
					ib := sharded.InjectBitFlip(addr, b)
					if ia != ib {
						t.Fatalf("inject %#x bit %d: residency %v vs %v", addr, b, ia, ib)
					}
					if !ia {
						break
					}
				}
				da, ia, aerr := single.ReadWithInfo(addr)
				db, ib, berr := sharded.ReadWithInfo(addr)
				if (aerr == nil) != (berr == nil) {
					t.Fatalf("read %#x: error mismatch %v vs %v", addr, aerr, berr)
				}
				if aerr != nil {
					uncorrectable++
					continue
				}
				if !bytes.Equal(da, db) {
					t.Fatalf("read %#x: data mismatch", addr)
				}
				if m == memctrl.COPER {
					// Raw COP-ER images embed region pointers, and the
					// sharded controller's per-shard regions assign
					// different pointer values than the unsharded one — so
					// the incidental valid-codeword count over those image
					// bits may differ. Every verdict field must still agree.
					ia.ValidCodewords, ib.ValidCodewords = 0, 0
				}
				if ia != ib {
					t.Fatalf("read %#x: ReadWithInfo mismatch %+v vs %+v", addr, ia, ib)
				}
			}
			if uncorrectable == 0 {
				t.Fatal("double-bit campaign produced no uncorrectable reads")
			}
			sa, sb := single.Snapshot().Controller, sharded.Snapshot().Controller
			if sa.CorrectedErrors != sb.CorrectedErrors || sa.UncorrectableErrors != sb.UncorrectableErrors {
				t.Fatalf("classification mismatch: single corrected=%d uncorrectable=%d, sharded corrected=%d uncorrectable=%d",
					sa.CorrectedErrors, sa.UncorrectableErrors, sb.CorrectedErrors, sb.UncorrectableErrors)
			}
		})
	}
}

// TestShardedChipFailure checks InjectChipFailure routing: in COPChipkill
// mode every sharded block must survive a whole-chip failure.
func TestShardedChipFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := newBatched(t, memctrl.COPChipkill)
	ref := map[uint64][]byte{}
	for i := 0; i < 32; i++ {
		addr := uint64(i) * BlockBytes
		d := randomData(rng)
		ref[addr] = d
		if err := c.Write(addr, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr, want := range ref {
		if !c.InjectChipFailure(addr, int(addr/BlockBytes)%8, 0xA5) {
			t.Fatalf("chip failure injection missed %#x", addr)
		}
		got, err := c.Read(addr)
		if err != nil {
			t.Fatalf("read %#x after chip failure: %v", addr, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %#x corrupted by chip failure", addr)
		}
	}
	if c.Snapshot().Controller.CorrectedErrors == 0 {
		t.Fatal("chip-failure corrections not counted")
	}
}

// TestShardedStatsAggregation checks that per-shard counters sum into the
// aggregate view and that the lock-free op counter tracks the call count.
func TestShardedStatsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newBatched(t, memctrl.COP)
	const n = 256
	for i := 0; i < n; i++ {
		if err := c.Write(uint64(i)*BlockBytes, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := c.Read(uint64(i) * BlockBytes); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	st := snap.Controller
	if st.Stores != n || st.Loads != n {
		t.Fatalf("aggregate stats wrong: %+v", st)
	}
	if c.Ops() != 2*n {
		t.Fatalf("Ops() = %d, want %d", c.Ops(), 2*n)
	}
	var manual telemetry.ControllerStats
	for i := 0; i < c.NumShards(); i++ {
		manual.Merge(c.Shard(i).Snapshot().Controller)
	}
	if !reflect.DeepEqual(manual, st) {
		t.Fatalf("Snapshot().Controller != sum of shard snapshots:\n%+v\n%+v", st, manual)
	}
	if snap.Scheme != memctrl.COP.String() {
		t.Fatalf("scheme = %q", snap.Scheme)
	}
}

// TestShardedSnapshotUnderTraffic drives concurrent mixed traffic while
// other goroutines repeatedly take merged snapshots — the race detector
// (CI race job) verifies the lock-free counter reads, and monotonicity of
// the observed load count verifies snapshots never go backwards.
func TestShardedSnapshotUnderTraffic(t *testing.T) {
	c := newBatched(t, memctrl.COP)
	rng := rand.New(rand.NewSource(11))
	const blocks = 512
	for i := 0; i < blocks; i++ {
		if err := c.Write(uint64(i)*BlockBytes, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}
	ops := 4000
	if testing.Short() {
		ops = 800
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				if _, err := c.Read(uint64(wr.Intn(blocks)) * BlockBytes); err != nil {
					errc <- err
					return
				}
			}
		}(int64(g))
	}
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var last uint64
		for {
			s := c.Snapshot()
			if s.Controller.Loads < last {
				snapErr = fmt.Errorf("loads went backwards: %d -> %d", last, s.Controller.Loads)
				return
			}
			last = s.Controller.Loads
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if got := c.Snapshot().Controller.Loads; got != uint64(4*ops) {
		t.Fatalf("final loads = %d, want %d", got, 4*ops)
	}
}
