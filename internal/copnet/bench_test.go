package copnet

// BenchmarkServeThroughput measures the full networked datapath: client
// batch encode → HTTP over a loopback listener → server decode → one
// group window per frame → response decode. The traffic shape matches
// BenchmarkBatchedThroughput/batched-8g (8 clients, 1/3 writes, window
// of 128 ops per frame) so the delta between the two is the wire cost.
// scripts/benchsmoke.sh gates serve-8g against regressions.

import (
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
)

func BenchmarkServeThroughput(b *testing.B) {
	const (
		goroutines = 8
		footprint  = 1 << 13 // blocks: 512 KB, 8x the bench LLC
		window     = 128     // ops per batch frame
	)

	srv := NewServer()
	if _, err := srv.CreateTenant("bench", TenantConfig{
		Scheme:   "cop",
		Shards:   goroutines,
		LLCBytes: 64 * 1024,
		LLCWays:  8,
	}); err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer func() { hs.Close(); _ = srv.Close() }()

	blocks := make([][]byte, footprint)
	rng := rand.New(rand.NewSource(1))
	for i := range blocks {
		blk := make([]byte, BlockBytes)
		rng.Read(blk)
		blocks[i] = blk
	}

	b.Run("serve-8g", func(b *testing.B) {
		b.SetBytes(BlockBytes)
		b.ReportAllocs()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64, ops int) {
				defer wg.Done()
				c, err := Dial(hs.URL, WithTenant("bench"))
				if err != nil {
					errs <- err
					return
				}
				rng := rand.New(rand.NewSource(seed))
				batch := c.NewBatch()
				for i := 0; i < ops; i++ {
					idx := rng.Intn(footprint)
					addr := uint64(idx) * BlockBytes
					if i%3 == 0 {
						batch.Write(addr, blocks[idx])
					} else {
						batch.Read(addr)
					}
					if batch.Len() == window {
						if _, err := batch.Do(); err != nil {
							errs <- err
							return
						}
					}
				}
				if batch.Len() > 0 {
					if _, err := batch.Do(); err != nil {
						errs <- err
					}
				}
			}(int64(g+1), (b.N+goroutines-1)/goroutines)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	})

	// serve-pipelined-8g overlaps frames: each goroutine keeps depth
	// windows in flight via Batch.Start/Wait instead of blocking on every
	// Do, hiding the request round trip behind encode/decode work. The
	// address space is strided per pipeline slot (addr ≡ slot mod depth)
	// so concurrent frames never carry ops for the same block.
	b.Run("serve-pipelined-8g", func(b *testing.B) {
		const depth = 4
		b.SetBytes(BlockBytes)
		b.ReportAllocs()
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64, ops int) {
				defer wg.Done()
				c, err := Dial(hs.URL, WithTenant("bench"))
				if err != nil {
					errs <- err
					return
				}
				rng := rand.New(rand.NewSource(seed))
				batches := make([]*Batch, depth)
				inflight := make([]*PendingBatch, depth)
				for i := range batches {
					batches[i] = c.NewBatch()
				}
				reap := func(slot int) error {
					if inflight[slot] == nil {
						return nil
					}
					_, err := inflight[slot].Wait()
					inflight[slot] = nil
					return err
				}
				slots := footprint / depth
				for i, slot := 0, 0; i < ops; slot = (slot + 1) % depth {
					if err := reap(slot); err != nil {
						errs <- err
						return
					}
					batch := batches[slot]
					for j := 0; j < window && i < ops; j, i = j+1, i+1 {
						idx := slot + rng.Intn(slots)*depth
						addr := uint64(idx) * BlockBytes
						if i%3 == 0 {
							batch.Write(addr, blocks[idx])
						} else {
							batch.Read(addr)
						}
					}
					inflight[slot] = batch.Start()
				}
				for slot := 0; slot < depth; slot++ {
					if err := reap(slot); err != nil {
						errs <- err
						return
					}
				}
			}(int64(g+1), (b.N+goroutines-1)/goroutines)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	})
}
