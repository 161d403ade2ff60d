package shard

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cop/internal/memctrl"
)

// TestBatchedMatchesShardedReplay drives the same single-threaded mixed
// trace (writes, reads, settles, injections, flushes) through two
// identical front-ends in lockstep: one takes every access as a
// synchronous call ("sharded"), the other takes full-block reads and
// writes as one-op Group windows ("batched"). Both paths must leave
// byte-identical results: every read and its error, the decoder verdicts
// of ReadWithInfo and of a window's ReadFlow (against the synchronous
// ReadWithInfo), Settle and InjectBitFlip, the DRAM residency and
// stored-kind ground truth of every block, the op counter, and the full
// telemetry snapshot (minus the Batch section, which only counts window
// holds).
func TestBatchedMatchesShardedReplay(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.COP, memctrl.COPER} {
		t.Run(m.String(), func(t *testing.T) {
			sh := newBatched(t, m)
			ba := newBatched(t, m)
			g := ba.NewGroup()
			rng := rand.New(rand.NewSource(0xBA7C4))
			const blocks = 1 << 11 // 8x the aggregate LLC: plenty of evictions
			got := make([]byte, BlockBytes)

			for i := 0; i < 20000; i++ {
				addr := uint64(rng.Intn(blocks)) * BlockBytes
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					var data []byte
					if rng.Intn(4) == 0 {
						data = randomData(rng)
					} else {
						data = compressibleData(rng)
					}
					errS := sh.Write(addr, data)
					g.Write(addr, data)
					if errB := g.Wait(); (errS == nil) != (errB == nil) {
						t.Fatalf("op %d: Write(%#x) err sharded=%v batched=%v", i, addr, errS, errB)
					}
				case 4:
					want, errS := sh.Read(addr)
					g.Read(got, addr)
					errB := g.Wait()
					if (errS == nil) != (errB == nil) || (errS == nil && !bytes.Equal(want, got)) {
						t.Fatalf("op %d: Read(%#x) diverged: err %v/%v", i, addr, errS, errB)
					}
				case 5:
					want, infoS, errS := sh.ReadWithInfo(addr)
					var infoB memctrl.ReadInfo
					g.ReadFlow(got, addr, 0, &infoB)
					errB := g.Wait()
					if (errS == nil) != (errB == nil) || infoS != infoB || (errS == nil && !bytes.Equal(want, got)) {
						t.Fatalf("op %d: ReadFlow(%#x) diverged: err %v/%v info %+v/%+v", i, addr, errS, errB, infoS, infoB)
					}
				case 6:
					gotS, infoS, errS := sh.ReadWithInfo(addr)
					gotB, infoB, errB := ba.ReadWithInfo(addr)
					if (errS == nil) != (errB == nil) || infoS != infoB || !bytes.Equal(gotS, gotB) {
						t.Fatalf("op %d: ReadWithInfo(%#x) diverged: err %v/%v info %+v/%+v", i, addr, errS, errB, infoS, infoB)
					}
				case 7:
					errS := sh.Settle(addr)
					errB := ba.Settle(addr)
					if (errS == nil) != (errB == nil) {
						t.Fatalf("op %d: Settle(%#x) err sharded=%v batched=%v", i, addr, errS, errB)
					}
				case 8:
					bit := rng.Intn(8 * BlockBytes)
					okS := sh.InjectBitFlip(addr, bit)
					okB := ba.InjectBitFlip(addr, bit)
					if okS != okB {
						t.Fatalf("op %d: InjectBitFlip(%#x,%d) sharded=%v batched=%v", i, addr, bit, okS, okB)
					}
				case 9:
					if rng.Intn(50) == 0 {
						errS := sh.Flush()
						errB := ba.Flush()
						if (errS == nil) != (errB == nil) {
							t.Fatalf("op %d: Flush err sharded=%v batched=%v", i, errS, errB)
						}
					}
				}
			}

			if errS, errB := sh.Flush(), ba.Flush(); (errS == nil) != (errB == nil) {
				t.Fatalf("final Flush err sharded=%v batched=%v", errS, errB)
			}
			if sh.Ops() != ba.Ops() {
				t.Fatalf("Ops: sharded=%d batched=%d", sh.Ops(), ba.Ops())
			}

			// Telemetry snapshots must match byte-for-byte once the batch
			// section, which counts only window holds, is removed.
			snapS, snapB := sh.Snapshot(), ba.Snapshot()
			if snapB.Batch == nil || snapB.Batch.Enqueued == 0 || snapB.Batch.Batches == 0 {
				t.Fatalf("batched snapshot is missing batch counters: %+v", snapB.Batch)
			}
			snapS.Batch, snapB.Batch = nil, nil
			jsS, err := snapS.JSON()
			if err != nil {
				t.Fatal(err)
			}
			jsB, err := snapB.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsS, jsB) {
				t.Fatalf("telemetry snapshots diverged:\nsharded: %s\nbatched: %s", jsS, jsB)
			}

			// DRAM ground truth, block by block.
			for blk := 0; blk < blocks; blk++ {
				addr := uint64(blk) * BlockBytes
				if inS, inB := sh.InDRAM(addr), ba.InDRAM(addr); inS != inB {
					t.Fatalf("InDRAM(%#x): sharded=%v batched=%v", addr, inS, inB)
				}
				if kS, kB := sh.StoredKind(addr), ba.StoredKind(addr); kS != kB {
					t.Fatalf("StoredKind(%#x): sharded=%v batched=%v", addr, kS, kB)
				}
			}
		})
	}
}

// TestBatchedRangeOpsMatchUnsharded drives random non-aligned,
// shard-straddling byte ranges through an unsharded reference and the
// sharded front-end, and demands identical bytes from ReadBytes and
// ReadBytesInto.
func TestBatchedRangeOpsMatchUnsharded(t *testing.T) {
	ref := newUnsharded(memctrl.COP)
	ba := newBatched(t, memctrl.COP)
	rng := rand.New(rand.NewSource(0x0B17E5))
	const span = 1 << 16 // bytes of address space

	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(span))
		n := 1 + rng.Intn(4*BlockBytes) // up to 4 blocks: RMW at both ends
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if err := ref.WriteBytes(addr, data); err != nil {
				t.Fatalf("op %d: ref WriteBytes: %v", i, err)
			}
			if err := ba.WriteBytes(addr, data); err != nil {
				t.Fatalf("op %d: sharded WriteBytes: %v", i, err)
			}
		} else {
			want, err := ref.ReadBytes(addr, n)
			if err != nil {
				t.Fatalf("op %d: ref ReadBytes: %v", i, err)
			}
			gotS, err := ba.ReadBytes(addr, n)
			if err != nil {
				t.Fatalf("op %d: sharded ReadBytes: %v", i, err)
			}
			gotB := make([]byte, n)
			if err := ba.ReadBytesInto(gotB, addr); err != nil {
				t.Fatalf("op %d: sharded ReadBytesInto: %v", i, err)
			}
			if !bytes.Equal(want, gotS) || !bytes.Equal(want, gotB) {
				t.Fatalf("op %d: ReadBytes(%#x,%d) diverged\nref:           %x\nReadBytes:     %x\nReadBytesInto: %x",
					i, addr, n, want, gotS, gotB)
			}
		}
	}
}

// TestBatchedGroupAsync checks the asynchronous window API: writes and
// reads issued through groups land exactly like synchronous ones.
func TestBatchedGroupAsync(t *testing.T) {
	ba := newBatched(t, memctrl.COP)

	const blocks = 512
	want := make([][]byte, blocks)
	g := ba.NewGroup()
	for i := range want {
		want[i] = compressibleData(rand.New(rand.NewSource(int64(i))))
		g.Write(uint64(i)*BlockBytes, want[i])
		if i%64 == 63 {
			if err := g.Wait(); err != nil {
				t.Fatalf("write window %d: %v", i/64, err)
			}
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}

	got := make([][]byte, blocks)
	for i := range got {
		got[i] = make([]byte, BlockBytes)
		g.Read(got[i], uint64(i)*BlockBytes)
		if i%64 == 63 {
			if err := g.Wait(); err != nil {
				t.Fatalf("read window %d: %v", i/64, err)
			}
		}
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("block %d: got %x want %x", i, got[i], want[i])
		}
	}
}

// TestPutGroupDiscardsOpenWindow checks that returning a group to the
// pool with a window that was never waited on discards the window: the
// group keeps no operation for its next user to execute and pins none of
// the caller's buffers.
func TestPutGroupDiscardsOpenWindow(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	g := ba.NewGroup()
	dst := make([]byte, BlockBytes)
	g.Write(0, compressibleData(rand.New(rand.NewSource(5))))
	g.Read(dst, BlockBytes)
	ba.PutGroup(g)
	if n := len(g.txns); n != 0 {
		t.Fatalf("pooled group carries %d operations", n)
	}
	for i, tx := range g.txns[:cap(g.txns)] {
		if tx.dst != nil {
			t.Fatalf("pooled group slot %d pins a caller buffer", i)
		}
	}
	// The group's next window must run only what its next user issues.
	before := ba.Ops()
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := ba.Ops() - before; got != 0 {
		t.Fatalf("empty window executed %d operations", got)
	}
}

// TestBatchedConcurrentStress hammers the batched controller from many
// goroutines through group windows, then checks the exact op count and
// that a final Drain fences everything.
func TestBatchedConcurrentStress(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	const goroutines = 8
	const opsPerG = 3000

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			grp := ba.NewGroup()
			// One destination buffer per window slot: every read of a
			// window lands before its Wait returns.
			dst := make([]byte, 16*BlockBytes)
			inflight := 0
			for i := 0; i < opsPerG; i++ {
				addr := uint64(rng.Intn(1<<10)) * BlockBytes
				if i%3 == 0 {
					grp.Write(addr, compressibleData(rng))
				} else {
					grp.Read(dst[inflight*BlockBytes:(inflight+1)*BlockBytes], addr)
				}
				inflight++
				if inflight == 16 {
					if err := grp.Wait(); err != nil && errs[gi] == nil {
						errs[gi] = err
					}
					inflight = 0
				}
			}
			if err := grp.Wait(); err != nil && errs[gi] == nil {
				errs[gi] = err
			}
		}(gi)
	}
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", gi, err)
		}
	}
	if got, want := ba.Ops(), uint64(goroutines*opsPerG); got != want {
		t.Fatalf("Ops() = %d, want %d", got, want)
	}
	if err := ba.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !ba.Quiesced() {
		t.Fatal("not quiesced after Drain")
	}
	ba.Resume()
}

// TestBatchedDrainFence checks the drain state machine: Drain quiesces
// every shard, synchronous calls and Group windows issued during the
// drain block until Resume, and the shard modes read back as expected
// throughout.
func TestBatchedDrainFence(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	rng := rand.New(rand.NewSource(0xD7A1))
	for i := 0; i < 500; i++ {
		addr := uint64(rng.Intn(256)) * BlockBytes
		if err := ba.Write(addr, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}

	if err := ba.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !ba.Quiesced() {
		t.Fatal("not quiesced after Drain")
	}
	for i := 0; i < ba.NumShards(); i++ {
		if m := ba.ShardMode(i); m != ModeDraining {
			t.Fatalf("shard %d mode = %v, want draining", i, m)
		}
	}

	// Producers entering now — a synchronous write and a one-op Group
	// window — must block until Resume, then complete.
	done, groupDone := make(chan error, 1), make(chan error, 1)
	go func() {
		done <- ba.Write(0, compressibleData(rand.New(rand.NewSource(1))))
	}()
	go func() {
		g := ba.NewGroup()
		g.Write(BlockBytes, compressibleData(rand.New(rand.NewSource(2))))
		groupDone <- g.Wait()
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed during drain (err=%v)", err)
	case err := <-groupDone:
		t.Fatalf("group write completed during drain (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	ba.Resume()
	for name, ch := range map[string]chan error{"write": done, "group write": groupDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s after resume: %v", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked after Resume", name)
		}
	}
	for i := 0; i < ba.NumShards(); i++ {
		if m := ba.ShardMode(i); m != ModeEnabled {
			t.Fatalf("shard %d mode = %v, want enabled", i, m)
		}
	}
}

// TestBatchedPauseResume checks that ModePaused holds synchronous calls
// and Group windows unexecuted until the shard is re-enabled.
func TestBatchedPauseResume(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(7)))); err != nil {
		t.Fatal(err)
	}
	ba.SetMode(ModePaused)
	done, groupDone := make(chan error, 1), make(chan error, 1)
	go func() {
		done <- ba.Write(BlockBytes, compressibleData(rand.New(rand.NewSource(8))))
	}()
	go func() {
		g := ba.NewGroup()
		g.Write(2*BlockBytes, compressibleData(rand.New(rand.NewSource(9))))
		groupDone <- g.Wait()
	}()
	select {
	case err := <-done:
		t.Fatalf("write completed while paused (err=%v)", err)
	case err := <-groupDone:
		t.Fatalf("group write completed while not enabled (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	ba.Resume()
	if err := <-done; err != nil {
		t.Fatalf("write after resume: %v", err)
	}
	if err := <-groupDone; err != nil {
		t.Fatalf("group write after resume: %v", err)
	}
}

// TestBatchedDrainShard drains one shard while the others keep serving —
// the live-migration shape.
func TestBatchedDrainShard(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	rng := rand.New(rand.NewSource(0x51))
	for i := 0; i < 256; i++ {
		if err := ba.Write(uint64(i)*BlockBytes, compressibleData(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ba.DrainShard(0); err != nil {
		t.Fatalf("DrainShard(0): %v", err)
	}
	if m := ba.ShardMode(0); m != ModeDraining {
		t.Fatalf("shard 0 mode = %v, want draining", m)
	}
	// Shard 0 is striped over block indices ≡ 0 (mod 4); the other shards
	// must still serve. Block index 1 lives on shard 1.
	if err := ba.Write(1*BlockBytes, compressibleData(rng)); err != nil {
		t.Fatalf("write to live shard during per-shard drain: %v", err)
	}
	ba.SetShardMode(0, ModeEnabled)
	if err := ba.Write(4*BlockBytes, compressibleData(rng)); err != nil {
		t.Fatalf("write to re-enabled shard: %v", err)
	}
}

// TestDrainFencesInFlightWrites checks the drain fence against writes
// caught waiting for the shard, for Drain and for DrainShard + WithShard
// (the sequence a live migration runs to switch one shard's machinery).
// Shard 0's slot lock is held while goroutines issue one-op Group windows
// and synchronous Writes at it, so every one of them queues on that lock.
// The drain then flips the mode and the hold ends. When the drain
// returns, the shard must be quiesced, and no write may execute on it
// until it is resumed.
func TestDrainFencesInFlightWrites(t *testing.T) {
	for _, tc := range []struct {
		name   string
		drain  func(b *Batched) error
		resume func(b *Batched)
	}{
		{"Drain", (*Batched).Drain, (*Batched).Resume},
		{"DrainShard+WithShard", func(b *Batched) error {
			if err := b.DrainShard(0); err != nil {
				return err
			}
			return b.WithShard(0, func(c *memctrl.Controller) error {
				if !c.Quiesced() {
					return errors.New("shard 0 not quiesced inside WithShard")
				}
				return nil
			})
		}, func(b *Batched) { b.SetShardMode(0, ModeEnabled) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ba := newBatched(t, memctrl.COP)
			bs := ba.topo.Load().bshards[0]
			data := compressibleData(rand.New(rand.NewSource(1)))

			hold, held := make(chan struct{}), make(chan struct{})
			go func() {
				_ = ba.WithShard(0, func(*memctrl.Controller) error {
					close(held)
					<-hold
					return nil
				})
			}()
			<-held

			const groupWriters, syncWriters = 32, 8
			var wg sync.WaitGroup
			for w := 0; w < groupWriters+syncWriters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					addr := uint64(4*w) * BlockBytes // block index = 0 mod 4: shard 0
					if w < groupWriters {
						g := ba.NewGroup()
						g.Write(addr, data)
						_ = g.Wait()
					} else {
						_ = ba.Write(addr, data)
					}
				}(w)
			}
			// Wait until every writer is parked on shard 0's slot lock.
			for mutexWaiters() < groupWriters+syncWriters {
				runtime.Gosched()
			}

			done := make(chan error, 1)
			go func() { done <- tc.drain(ba) }()
			for ba.ShardMode(0) != ModeDraining {
				runtime.Gosched()
			}
			close(hold)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !ba.Quiesced() {
				t.Fatal("not quiesced when the drain returned")
			}
			before := bs.slot.ops.Load()
			time.Sleep(5 * time.Millisecond)
			if got := bs.slot.ops.Load(); got != before {
				t.Fatalf("%d writes executed after the drain returned", got-before)
			}
			if !ba.Quiesced() {
				t.Fatal("a write landed between the drain and the resume")
			}
			tc.resume(ba)
			wg.Wait()
			if got := ba.Ops(); got != groupWriters+syncWriters {
				t.Fatalf("Ops() = %d after resume, want %d", got, groupWriters+syncWriters)
			}
		})
	}
}

// mutexWaiters counts the goroutines parked in sync.Mutex.Lock.
func mutexWaiters() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("[sync.Mutex.Lock"))
}

// TestBatchedCloseRejects checks that submissions after Close fail with
// ErrClosed instead of deadlocking.
func TestBatchedCloseRejects(t *testing.T) {
	ba := newBatched(t, memctrl.COP)
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	ba.Close()
	if err := ba.Write(0, compressibleData(rand.New(rand.NewSource(4)))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if _, err := ba.Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close = %v, want ErrClosed", err)
	}
}

// TestBatchedRejectsInvalidConfig pins NewBatchedChecked's error case: a
// stripe count that is not a power of two.
func TestBatchedRejectsInvalidConfig(t *testing.T) {
	mem := memctrl.Config{Mode: memctrl.COP, LLCBytes: 64 * 1024, LLCWays: 8}
	cfg := Config{Mem: mem, Shards: 3}
	if _, err := NewBatchedChecked(cfg); err == nil {
		t.Errorf("config %+v: want error, got nil", cfg)
	}
}

// TestBatchedModeString pins the mode names used in logs and errors.
func TestBatchedModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeEnabled:  "enabled",
		ModePaused:   "paused",
		ModeDraining: "draining",
		modeClosed:   "closed",
		Mode(42):     "mode(42)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int32(m), got, want)
		}
	}
}

// TestBatchReorderKeepsSameBlockOrder pins the FR-FCFS reorder contract:
// same-block order is preserved, raw writes act as barriers. The flow
// field carries each transaction's issue sequence number.
func TestBatchReorderKeepsSameBlockOrder(t *testing.T) {
	mk := func(op txnOp, inner, seq uint64) Txn {
		return Txn{op: op, inner: inner, flow: seq}
	}
	row := uint64(1) << batchRowShift
	txns := []Txn{
		mk(opRead, 3*row, 0),
		mk(opWrite, 0, 1),
		mk(opRead, 0, 2),
		mk(opWriteRaw, 5*row, 3), // barrier
		mk(opWrite, 4*row, 4),
		mk(opRead, 2*row, 5),
	}
	batch := make([]*Txn, len(txns))
	for i := range txns {
		batch[i] = &txns[i]
	}
	new(rowSorter).reorder(batch)
	// First run sorts to rows {0,0,3}; same-block pair (1 then 2) stays
	// ordered. Barrier stays put. Second run sorts to rows {2,4}.
	wantSeq := []uint64{1, 2, 0, 3, 5, 4}
	for i, want := range wantSeq {
		if batch[i].flow != want {
			got := make([]uint64, len(batch))
			for j := range batch {
				got[j] = batch[j].flow
			}
			t.Fatalf("reordered sequence = %v, want %v", got, wantSeq)
		}
	}
}

// TestBatchReorderScatteredRows drives the insertion-sort fallback (row
// span past the counting-sort window) and cross-checks both sorters
// against each other on the same shuffled run.
func TestBatchReorderScatteredRows(t *testing.T) {
	rng := rand.New(rand.NewSource(0x50F7))
	const n = 64
	txns := make([]Txn, n)
	for i := range txns {
		// Rows scattered over a 4096-row span force the fallback path.
		row := uint64(rng.Intn(4096))
		txns[i] = Txn{op: opRead, inner: row<<batchRowShift | uint64(i), flow: uint64(i)}
	}
	batch := make([]*Txn, n)
	for i := range txns {
		batch[i] = &txns[i]
	}
	new(rowSorter).reorder(batch)
	for i := 1; i < n; i++ {
		prev, cur := batch[i-1].inner>>batchRowShift, batch[i].inner>>batchRowShift
		if prev > cur {
			t.Fatalf("rows out of order at %d: %d > %d", i, prev, cur)
		}
		if prev == cur && batch[i-1].flow > batch[i].flow {
			t.Fatalf("stability broken at %d: seq %d before %d", i, batch[i-1].flow, batch[i].flow)
		}
	}
}
