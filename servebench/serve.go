package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"cop/internal/copnet"
	"cop/internal/telemetry"
	"cop/internal/workload"
)

const (
	frameOps   = 64 // ops per client frame (one server-side group window)
	tenantName = "bench"
	scheme     = "cop-er" // the service default: protects incompressible blocks too
	shards     = 2
	llcWays    = 16
)

// config is one run's parameters. The smoke test shrinks the sizes; the
// workload shape (footprint in LLCs, mix, content) never changes.
type config struct {
	spec       workloadSpec
	seed       uint64
	seconds    float64
	llcBytes   int
	warmFrames int // warm-up frames per worker after prefill
	setups     int // set-ups per run; setup_s is their median
	workers    int
	spansDir   string
}

func (c *config) keys() int { return int(float64(c.llcBytes/blockBytes) * c.spec.llcMult) }

func (c *config) tenantConfig() copnet.TenantConfig {
	return copnet.TenantConfig{Scheme: scheme, Shards: shards, LLCBytes: c.llcBytes, LLCWays: llcWays}
}

// contentBase derives the content version offset from the seed, so every
// block's bytes depend on the seed as well as on its address.
func (c *config) contentBase() uint32 {
	s := splitmix(c.seed)
	return uint32(s.next())
}

// partition returns worker w's key range: contiguous halves, so every
// worker's frames stripe across both shards.
func (c *config) partition(w int) (lo, n int) {
	per := c.keys() / c.workers
	return w * per, per
}

func (c *config) profile() *workload.Profile { return workload.MustGet(c.spec.content) }

// env is one stood-up service: a copnet server with one tenant behind a
// plaintext loopback listener, and one client connection per worker.
type env struct {
	cfg       *config
	srv       *copnet.Server
	tenant    *copnet.Tenant
	hs        *http.Server
	serveDone chan struct{}
	trs       []*http.Transport
	batches   []*copnet.Batch
	streams   []*stream
}

// setup stands the service up, prefills every key once and warms up, so
// the timed window starts with a full LLC and a populated ECC region. With
// record set, the streams log every op from the start of warm-up.
func setup(cfg *config, record bool) (*env, error) {
	e := &env{cfg: cfg, srv: copnet.NewServer(), serveDone: make(chan struct{})}
	t, err := e.srv.CreateTenant(tenantName, cfg.tenantConfig())
	if err != nil {
		return nil, err
	}
	e.tenant = t
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = e.srv.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() {
		defer close(e.serveDone)
		_ = e.hs.Serve(ln)
	}()
	base := "http://" + ln.Addr().String()
	prof := cfg.profile()
	for w := 0; w < cfg.workers; w++ {
		// One connection per worker: the benchmark opens no more
		// connections than it has closed-loop workers.
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		c, err := copnet.Dial(base, copnet.WithTenant(tenantName), copnet.WithHTTPClient(&http.Client{Transport: tr}))
		if err != nil {
			e.close()
			return nil, err
		}
		e.trs = append(e.trs, tr)
		e.batches = append(e.batches, c.NewBatch())
		lo, n := cfg.partition(w)
		e.streams = append(e.streams, newStream(newOracle(prof, cfg.contentBase(), lo, n), cfg.spec, cfg.seed, w))
	}
	if err := e.prefill(); err != nil {
		e.close()
		return nil, err
	}
	for _, s := range e.streams {
		s.record = record
	}
	if _, err := e.loop(time.Time{}, cfg.warmFrames); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// prefill writes every key once at its version-0 content, each worker its
// own partition in full frames.
func (e *env) prefill() error {
	return forWorkers(e.cfg.workers, func(w int) error {
		o, b := e.streams[w].o, e.batches[w]
		for i := 0; i < o.keys(); {
			for j := 0; j < frameOps && i < o.keys(); j, i = j+1, i+1 {
				b.Write(keyAddr(uint32(o.lo+i)), o.block(i))
			}
			res, err := b.Do()
			if err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			for _, r := range res {
				if r.Err != nil {
					return fmt.Errorf("prefill: %w", r.Err)
				}
			}
		}
		return nil
	})
}

func (e *env) close() {
	_ = e.hs.Close()
	<-e.serveDone
	for _, tr := range e.trs {
		tr.CloseIdleConnections()
	}
	_ = e.srv.Close()
}

// snapshot is the service-wide telemetry tree (one tenant, plus the global
// wire section with the scratch-pool counters).
func (e *env) snapshot() telemetry.Snapshot { return e.srv.Snapshot() }

// frameSample is one client frame: completion time since the window start
// and the client-observed round trip (Batch.Do), both in nanoseconds.
type frameSample struct{ end, dur int64 }

// loopResult is one closed-loop window.
type loopResult struct {
	start    time.Time
	elapsed  time.Duration // window start to the last frame's completion
	frames   uint64
	samples  []frameSample
	frameNs  int64 // client frame spans summed over workers
	genNs    int64 // op generation and oracle checks summed over workers
	workerNs int64 // each worker's start-to-last-completion, summed
	spans    [][]frameSample
}

func (r *loopResult) ops() uint64 { return r.frames * frameOps }

// loop runs every worker closed-loop, each sending its next frame only after
// the previous reply, until deadline (zero: none) or maxFrames frames per
// worker (0: no limit). Every frame's latency is recorded.
func (e *env) loop(deadline time.Time, maxFrames int) (*loopResult, error) {
	// Sized for frames of at least 100 us per worker; faster frames append.
	capHint := maxFrames
	if capHint == 0 {
		capHint = int(time.Until(deadline)/(100*time.Microsecond)) + 1024
	}
	r := &loopResult{spans: make([][]frameSample, e.cfg.workers)}
	for w := range r.spans {
		r.spans[w] = make([]frameSample, 0, capHint)
	}
	gen := make([]int64, e.cfg.workers)
	work := make([]int64, e.cfg.workers)
	r.start = time.Now()
	err := forWorkers(e.cfg.workers, func(w int) error {
		s, b := e.streams[w], e.batches[w]
		tg := time.Now()
		for n := 0; maxFrames == 0 || n < maxFrames; n++ {
			if !deadline.IsZero() && !tg.Before(deadline) {
				break
			}
			s.build(b)
			t0 := time.Now()
			res, err := b.Do()
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("worker %d: %w", w, err)
			}
			s.verify(res)
			t2 := time.Now()
			r.spans[w] = append(r.spans[w], frameSample{end: int64(t1.Sub(r.start)), dur: int64(t1.Sub(t0))})
			gen[w] += int64(t0.Sub(tg) + t2.Sub(t1))
			tg = t2
		}
		work[w] = int64(tg.Sub(r.start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w, sp := range r.spans {
		r.frames += uint64(len(sp))
		r.samples = append(r.samples, sp...)
		for _, f := range sp {
			r.frameNs += f.dur
			if d := time.Duration(f.end); d > r.elapsed {
				r.elapsed = d
			}
		}
		r.genNs += gen[w]
		r.workerNs += work[w]
	}
	return r, nil
}

// oracleTotals sums the workers' oracle verdicts.
func (e *env) oracleTotals() (verified, mismatches, failed uint64) {
	for _, s := range e.streams {
		verified += s.verified
		mismatches += s.mismatches
		failed += s.failed
	}
	return
}

// storedBytesPerUserByte flushes the LLC and divides the DRAM image bytes
// plus the ECC-region bytes by the live user bytes (every key holds one
// 64-byte block): the paper's Fig. 12 space quantity.
func (e *env) storedBytesPerUserByte() (float64, error) {
	b := e.tenant.Batched()
	if err := b.Flush(); err != nil {
		return 0, fmt.Errorf("flush: %w", err)
	}
	sh := b.Sharded()
	images := 0
	for k := 0; k < e.cfg.keys(); k++ {
		if sh.InDRAM(keyAddr(uint32(k))) {
			images++
		}
	}
	snap := b.Snapshot()
	region := 0
	if snap.Region != nil {
		region = int(snap.Region.BlocksUsed)
	}
	return float64(images+region) / float64(e.cfg.keys()), nil
}

// forWorkers runs fn once per worker concurrently and, after all have
// returned, returns their errors joined.
func forWorkers(n int, fn func(w int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// counts are the telemetry counter deltas over one timed window.
type counts struct {
	ops                     uint64
	hits, misses, evictions uint64
	fills, writebacks       uint64
	compressed, raw         uint64
	regionAccesses          uint64
	bytesIn, bytesOut       uint64
	poolHits, poolMisses    uint64
	enqueued, batches       uint64
	serveFrames             uint64
	frameSum                uint64
	stageSum                map[string]uint64
	histObservations        uint64
}

func (c counts) per(n uint64) float64 { return ratio(n, c.ops) }

func (c counts) hitRate() float64 { return ratio(c.hits, c.hits+c.misses) }

func (c counts) compressedFrac() float64 { return ratio(c.compressed, c.compressed+c.raw) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stageMeanUs is a serve stage's exact mean per frame (Sum/Count).
func (c counts) stageMeanUs(name string) float64 {
	return ratio(c.stageSum[name], c.serveFrames) / 1e3
}

// delta computes the counter deltas between two snapshots of one service.
func delta(a, b telemetry.Snapshot, ops uint64) counts {
	c := counts{
		ops:        ops,
		hits:       b.Cache.Hits - a.Cache.Hits,
		misses:     b.Cache.Misses - a.Cache.Misses,
		evictions:  b.Cache.Evictions - a.Cache.Evictions,
		fills:      b.Controller.Fills - a.Controller.Fills,
		writebacks: b.Controller.Writebacks - a.Controller.Writebacks,
		compressed: b.Controller.StoredCompressed - a.Controller.StoredCompressed,
		raw:        b.Controller.StoredRaw - a.Controller.StoredRaw,
		stageSum:   map[string]uint64{},
	}
	c.histObservations = histCount(b) - histCount(a)
	if a.Region != nil && b.Region != nil {
		c.regionAccesses = b.Region.Reads + b.Region.Writes - a.Region.Reads - a.Region.Writes
	}
	if a.Net != nil && b.Net != nil {
		c.bytesIn = b.Net.BytesIn - a.Net.BytesIn
		c.bytesOut = b.Net.BytesOut - a.Net.BytesOut
		c.poolHits = b.Net.PoolHits - a.Net.PoolHits
		c.poolMisses = b.Net.PoolMisses - a.Net.PoolMisses
	}
	if a.Batch != nil && b.Batch != nil {
		c.enqueued = b.Batch.Enqueued - a.Batch.Enqueued
		c.batches = b.Batch.Batches - a.Batch.Batches
	}
	if a.Serve != nil && b.Serve != nil {
		c.serveFrames = b.Serve.Frame.Count - a.Serve.Frame.Count
		c.frameSum = b.Serve.Frame.Sum - a.Serve.Frame.Sum
		for _, st := range b.Serve.Stages {
			c.stageSum[st.Name] = st.Nanos.Sum
		}
		for _, st := range a.Serve.Stages {
			c.stageSum[st.Name] -= st.Nanos.Sum
		}
	}
	return c
}

// histCount totals the observations of every always-on histogram in a
// snapshot: the serve frame, stage and per-op series, the shard batch
// depth, the decoder's valid-code-word count and the LLC overflow
// occupancy.
func histCount(s telemetry.Snapshot) uint64 {
	n := s.Controller.ValidCodewords.Count + s.Cache.OverflowOccupancy.Count
	if s.Batch != nil {
		n += s.Batch.Depth.Count
	}
	if s.Serve != nil {
		n += s.Serve.Frame.Count
		for _, h := range s.Serve.Stages {
			n += h.Nanos.Count
		}
		for _, h := range s.Serve.Ops {
			n += h.Nanos.Count
		}
	}
	return n
}

// heapInuseMB forces a collection and reports the live heap in MiB.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}
