package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"cop/internal/bitio"
	"cop/internal/cli"
	"cop/internal/compress"
	"cop/internal/core"
	"cop/internal/ecc"
	"cop/internal/memctrl"
	"cop/internal/shard"
	"cop/internal/telemetry"
)

// The traced run measures the serve path end to end with a span around
// every client frame, then replays the same recorded op stream one level
// lower at a time: through shard.Batched group windows with no wire, op by
// op into per-shard memctrl controllers, and through the core, compress and
// ecc calls on the same block contents. A layer's self time is its level's
// time minus the level below it; the residual is what no level explains.

// windowTolerance bounds |replay window / server window - 1|: the replay's
// shard windows run without the wire competing for the CPUs, so they agree
// with the server's own window stage only within this share.
const windowTolerance = 0.5

// maxTracedOps caps the traced window's recorded ops, bounding the
// recording's memory and the replays' length on fast workloads.
const maxTracedOps = 2 << 20

// minMicro is how long each codec micro-measurement runs.
const minMicro = 40 * time.Millisecond

// replayResult is one replay level's timing over the traced window's ops.
type replayResult struct {
	ops, frames        uint64
	ringWaitNs, execNs int64 // execNs: group Wait (shard) or the op calls (memctrl)
	mismatches         uint64
	before, after      telemetry.Snapshot // memctrl level: counters around the timed frames
	samples            [][]byte           // block contents the codec saw (memctrl level)
	spans              []replaySpan
}

type replaySpan struct {
	Layer    string `json:"layer"`
	Worker   int    `json:"w"`
	StartNs  int64  `json:"start_ns"`
	WaitNs   int64  `json:"ring_wait_ns,omitempty"`
	DurNs    int64  `json:"dur_ns"`
	OpsCount int    `json:"ops"`
}

// replayStream walks one worker's recorded frames against its own oracle,
// materializing each frame's write payloads and expected reads before the
// frame is timed.
type replayStream struct {
	o         *oracle
	log       []op
	timedFrom int // index of the traced window's first op
	pos       int
	ops       []op
	timed     bool
	payload   []byte // per op: the content a write stores or a get must read
}

func newReplayStream(cfg *config, w int, log []op, timedFrom int) *replayStream {
	lo, n := cfg.partition(w)
	return &replayStream{
		o:         newOracle(cfg.profile(), cfg.contentBase(), lo, n),
		log:       log,
		timedFrom: timedFrom,
		payload:   make([]byte, frameOps*blockBytes),
	}
}

// next advances to the following recorded frame, false after the last.
func (rs *replayStream) next() bool {
	if rs.pos >= len(rs.log) {
		return false
	}
	rs.ops = rs.log[rs.pos : rs.pos+frameOps]
	rs.timed = rs.pos >= rs.timedFrom
	for j, x := range rs.ops {
		copy(rs.block(j), rs.o.apply(x))
	}
	rs.pos += frameOps
	return true
}

func (rs *replayStream) block(j int) []byte { return rs.payload[j*blockBytes : (j+1)*blockBytes] }

// mismatches compares the frame's reads, landed in dst, with the oracle.
func (rs *replayStream) mismatches(dst []byte) uint64 {
	var n uint64
	for j, x := range rs.ops {
		if x.kind == opGet && !bytes.Equal(dst[j*blockBytes:(j+1)*blockBytes], rs.block(j)) {
			n++
		}
	}
	return n
}

// replayShard replays the recorded stream through a fresh tenant store
// opened from the same TenantConfig, one goroutine per worker, each frame
// one group window: the server's execution path without the wire.
func replayShard(cfg *config, logs [][]op, timedFrom []int) (*replayResult, error) {
	b, err := cfg.tenantConfig().Open()
	if err != nil {
		return nil, err
	}
	defer b.Close()
	streams := make([]*replayStream, cfg.workers)
	for w := range streams {
		streams[w] = newReplayStream(cfg, w, logs[w], timedFrom[w])
		if err := prefillGroup(b, streams[w].o); err != nil {
			return nil, err
		}
	}
	r := &replayResult{}
	var mu sync.Mutex
	start := time.Now()
	err = forWorkers(cfg.workers, func(w int) error {
		rs := streams[w]
		dst := make([]byte, frameOps*blockBytes)
		var ringWait, exec int64
		var nFrames, mism uint64
		var spans []replaySpan
		for rs.next() {
			t0 := time.Now()
			g := b.NewGroup()
			for j, x := range rs.ops {
				if x.kind == opGet {
					g.Read(dst[j*blockBytes:(j+1)*blockBytes], keyAddr(x.key))
				} else {
					g.Write(keyAddr(x.key), rs.block(j))
				}
			}
			tw := time.Now()
			err := g.Wait()
			t1 := time.Now()
			b.PutGroup(g)
			if err != nil {
				return fmt.Errorf("shard replay: %w", err)
			}
			mism += rs.mismatches(dst)
			if rs.timed {
				ringWait += int64(tw.Sub(t0))
				exec += int64(t1.Sub(tw))
				nFrames++
				spans = append(spans, replaySpan{Layer: "shard", Worker: w, StartNs: int64(t0.Sub(start)),
					WaitNs: int64(tw.Sub(t0)), DurNs: int64(t1.Sub(t0)), OpsCount: len(rs.ops)})
			}
		}
		mu.Lock()
		r.ringWaitNs += ringWait
		r.execNs += exec
		r.frames += nFrames
		r.mismatches += mism
		r.spans = append(r.spans, spans...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.ops = r.frames * frameOps
	return r, nil
}

// prefillGroup writes every key of o's partition at its version-0 content.
func prefillGroup(b *shard.Batched, o *oracle) error {
	g := b.NewGroup()
	defer b.PutGroup(g)
	for i := 0; i < o.keys(); i++ {
		g.Write(keyAddr(uint32(o.lo+i)), o.block(i))
		if (i+1)%frameOps == 0 || i == o.keys()-1 {
			if err := g.Wait(); err != nil {
				return fmt.Errorf("replay prefill: %w", err)
			}
		}
	}
	return nil
}

// replayMemctrl replays the recorded stream op by op into per-shard
// memctrl controllers with the same per-shard LLC and the shard package's
// address striping, interleaving the workers' frames round-robin.
func replayMemctrl(cfg *config, logs [][]op, timedFrom []int) (*replayResult, error) {
	sc, err := cli.SingleScheme(scheme)
	if err != nil {
		return nil, err
	}
	ctrls := make([]*memctrl.Controller, shards)
	for i := range ctrls {
		ctrls[i] = memctrl.New(memctrl.Config{Mode: sc.Mode, LLCBytes: cfg.llcBytes / shards, LLCWays: llcWays})
	}
	route := func(key uint32) (*memctrl.Controller, uint64) {
		return ctrls[key%shards], keyAddr(key / shards)
	}
	snapshot := func() telemetry.Snapshot {
		s := ctrls[0].Snapshot()
		for _, c := range ctrls[1:] {
			s.Merge(c.Snapshot())
		}
		return s
	}
	streams := make([]*replayStream, cfg.workers)
	timedOps := 0
	for w := range streams {
		rs := newReplayStream(cfg, w, logs[w], timedFrom[w])
		for i := 0; i < rs.o.keys(); i++ {
			c, a := route(uint32(rs.o.lo + i))
			if err := c.Write(a, rs.o.block(i)); err != nil {
				return nil, fmt.Errorf("memctrl replay prefill: %w", err)
			}
		}
		streams[w] = rs
		timedOps += len(logs[w]) - timedFrom[w]
	}
	r := &replayResult{}
	dst := make([]byte, frameOps*blockBytes)
	sampleEvery := max(1, timedOps/maxSamples)
	seen := 0
	started := false
	start := time.Now()
	for live := true; live; {
		live = false
		for w, rs := range streams {
			if !rs.next() {
				continue
			}
			live = true
			if rs.timed && !started {
				r.before, started = snapshot(), true
			}
			t0 := time.Now()
			for j, x := range rs.ops {
				c, a := route(x.key)
				var err error
				if x.kind == opGet {
					_, err = c.ReadInto(dst[j*blockBytes:(j+1)*blockBytes], a)
				} else {
					err = c.Write(a, rs.block(j))
				}
				if err != nil {
					return nil, fmt.Errorf("memctrl replay: %w", err)
				}
			}
			t1 := time.Now()
			r.mismatches += rs.mismatches(dst)
			if !rs.timed {
				continue
			}
			r.execNs += int64(t1.Sub(t0))
			r.frames++
			r.spans = append(r.spans, replaySpan{Layer: "memctrl", Worker: w, StartNs: int64(t0.Sub(start)),
				DurNs: int64(t1.Sub(t0)), OpsCount: len(rs.ops)})
			for j := range rs.ops {
				if seen%sampleEvery == 0 && len(r.samples) < maxSamples {
					r.samples = append(r.samples, append([]byte(nil), rs.block(j)...))
				}
				seen++
			}
		}
	}
	r.after = snapshot()
	r.ops = r.frames * frameOps
	return r, nil
}

// maxSamples caps the block contents the codec level is measured on.
const maxSamples = 4096

// codecCosts are the per-call costs of the layers under memctrl, measured
// on the block contents the memctrl replay carried.
type codecCosts struct {
	encodeNs, decodeNs       float64 // core: COP-ER Write / Read per block
	compressNs, decompressNs float64 // compress: combined scheme at the COP-4 budget
	syndromeNs               float64 // ecc: one (128,120) code-word syndrome
	segments                 int
}

// sink keeps measured results observable so no call is optimized away.
var sink uint64

// timeLoop runs body over n items repeatedly for at least minMicro and
// returns the mean nanoseconds per item.
func timeLoop(n int, body func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for time.Since(start) < minMicro {
		for i := 0; i < n; i++ {
			body(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

func measureCodec(samples [][]byte) (codecCosts, error) {
	cfg := core.NewConfig4()
	er := core.NewERCodec(cfg)
	n := len(samples)
	images := make([][]byte, n)
	prev := make([]uint32, n)
	for i := range prev {
		prev[i] = core.NoPointer
	}
	var werr error
	cc := codecCosts{segments: cfg.Segments}
	cc.encodeNs = timeLoop(n, func(i int) {
		img, ptr, _, err := er.Write(samples[i], prev[i])
		if err != nil && werr == nil {
			werr = err
		}
		images[i], prev[i] = img, ptr
	})
	if werr != nil {
		return cc, fmt.Errorf("core encode: %w", werr)
	}
	var rerr error
	cc.decodeNs = timeLoop(n, func(i int) {
		blk, _, err := er.Read(images[i])
		if err != nil && rerr == nil {
			rerr = err
		}
		if len(blk) > 0 {
			sink += uint64(blk[0])
		}
	})
	if rerr != nil {
		return cc, fmt.Errorf("core decode: %w", rerr)
	}
	capBits := cfg.DataCapacityBits()
	var w bitio.Writer
	var payloads [][]byte
	cc.compressNs = timeLoop(n, func(i int) {
		w.Reset(capBits)
		nbits, ok := compress.CompressToWriter(cfg.Scheme, &w, samples[i], capBits)
		sink += uint64(nbits)
		if ok && len(payloads) < n {
			p := make([]byte, (capBits+7)/8)
			copy(p, w.Bytes()[:(nbits+7)/8])
			payloads = append(payloads, p)
		}
	})
	var r bitio.Reader
	dst := make([]byte, blockBytes)
	var derr error
	cc.decompressNs = timeLoop(len(payloads), func(i int) {
		r.Reset(payloads[i])
		if err := compress.DecompressIntoBlock(cfg.Scheme, dst, &r, capBits, capBits); err != nil && derr == nil {
			derr = err
		}
	})
	if derr != nil {
		return cc, fmt.Errorf("decompress: %w", derr)
	}
	code := ecc.SECDED128120
	cc.syndromeNs = timeLoop(n*cfg.Segments, func(i int) {
		img := images[i/cfg.Segments]
		off := (i % cfg.Segments) * 16
		sink += uint64(code.SyndromeWords(binary.BigEndian.Uint64(img[off:]), binary.BigEndian.Uint64(img[off+8:])))
	})
	return cc, nil
}

// observeNs is the uncontended cost of one always-on histogram observation.
func observeNs() float64 {
	var h telemetry.Histogram
	const n = 1 << 16
	ns := timeLoop(n, func(i int) { h.Observe(uint64(i) * 977) })
	sink += h.Count()
	return ns
}

// runtimeStats samples the allocator and GC CPU counters.
type runtimeStats struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rs := runtimeStats{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = s[1].Value.Float64()
	}
	return rs
}

// ledgerLine is one layer's self time per op.
type ledgerLine struct {
	name string
	ns   float64
}

// tracedRun is the per-layer view of one workload.
type tracedRun struct {
	metrics    map[string]float64
	lines      []ledgerLine
	attempted  uint64
	failed     uint64
	mismatches uint64
	verified   uint64
	regimeErr  error
}

// runTraced stands the service up with op recording on, times a traced
// window (client frame spans, stream recorded) and then an untraced one of
// the same length, replays the traced window's stream one level lower at a
// time, and assembles the ledger.
func runTraced(cfg *config) (*tracedRun, error) {
	half := time.Duration(cfg.seconds * float64(time.Second) / 2)
	e, err := setup(cfg, true)
	if err != nil {
		return nil, err
	}
	timedFrom := make([]int, cfg.workers)
	for w, s := range e.streams {
		timedFrom[w] = len(s.log)
	}
	v0, m0, f0 := e.oracleTotals()
	snapW0 := e.snapshot()
	lw, err := e.loop(time.Now().Add(half), maxTracedOps/frameOps/cfg.workers)
	if err != nil {
		e.close()
		return nil, err
	}
	snapW1 := e.snapshot()
	cw := delta(snapW0, snapW1, lw.ops())
	logs := make([][]op, cfg.workers)
	for w, s := range e.streams {
		s.record = false
		logs[w] = s.log
	}

	rt0 := readRuntime()
	lu, err := e.loop(time.Now().Add(half), 0)
	rt1 := readRuntime()
	if err != nil {
		e.close()
		return nil, err
	}
	v1, m1, f1 := e.oracleTotals()
	e.close()
	runtime.GC()

	tr := &tracedRun{
		attempted:  lw.ops() + lu.ops(),
		failed:     f1 - f0,
		mismatches: m1 - m0,
		verified:   v1 - v0,
		regimeErr:  cfg.spec.check(cw),
	}
	rs, err := replayShard(cfg, logs, timedFrom)
	if err != nil {
		return nil, err
	}
	rm, err := replayMemctrl(cfg, logs, timedFrom)
	if err != nil {
		return nil, err
	}
	tr.mismatches += rs.mismatches + rm.mismatches
	cc, err := measureCodec(rm.samples)
	if err != nil {
		return nil, err
	}
	obsNs := observeNs()

	if err := writeSpans(cfg, lw, rs, rm); err != nil {
		return nil, err
	}

	opsW := float64(lw.ops())
	perOp := func(ns int64) float64 { return float64(ns) / opsW }
	mc := delta(rm.before, rm.after, rm.ops)
	fills, wbs := mc.per(mc.fills), mc.per(mc.writebacks)
	cf := mc.compressedFrac()
	serveObs, shardObs, memObs := splitObservations(snapW0, snapW1)

	wall := perOp(lw.workerNs)
	gen := perOp(lw.genNs)
	frame := perOp(lw.frameNs)
	serverExec := float64(cw.stageSum["ring-wait"]+cw.stageSum["window"]) / opsW
	telServe := float64(serveObs) / opsW * obsNs
	telShard := float64(shardObs) / opsW * obsNs
	telMem := float64(memObs) / opsW * obsNs
	shardLevel := float64(rs.ringWaitNs+rs.execNs) / float64(rs.ops)
	memLevel := float64(rm.execNs) / float64(rm.ops)
	coreLevel := fills*cc.decodeNs + wbs*cc.encodeNs
	compressOp := wbs*cc.compressNs + fills*cf*cc.decompressNs
	seg := float64(cc.segments)
	// A COP-ER fill counts valid code words, and a compressed one decodes
	// them again; a raw writeback checks each candidate image for aliasing.
	eccOp := (fills*(seg+seg*cf) + wbs*(1-cf)*seg) * cc.syndromeNs

	tr.lines = []ledgerLine{
		{"loadgen", gen},
		{"copnet", frame - serverExec - telServe},
		{"telemetry", telServe + telShard + telMem},
		{"shard", shardLevel - memLevel - telShard},
		{"memctrl", memLevel - coreLevel - telMem},
		{"core", coreLevel - compressOp - eccOp},
		{"compress", compressOp},
		{"ecc", eccOp},
	}
	explained := 0.0
	for _, l := range tr.lines {
		explained += l.ns
	}
	residual := wall - explained
	wallU := float64(lu.workerNs) / float64(lu.ops())
	serverWindowUs := cw.stageMeanUs("window")
	replayWindowUs := float64(rs.execNs) / float64(rs.frames) / 1e3
	frames := float64(lw.frames)

	m := map[string]float64{
		"copnet.client_us_per_frame":     (float64(lw.frameNs) - float64(cw.frameSum)) / frames / 1e3,
		"copnet.read_us":                 cw.stageMeanUs("read"),
		"copnet.parse_us":                cw.stageMeanUs("parse"),
		"copnet.encode_us":               cw.stageMeanUs("encode"),
		"copnet.write_us":                cw.stageMeanUs("write"),
		"copnet.bytes_per_op":            cw.per(cw.bytesIn + cw.bytesOut),
		"copnet.pool_miss_frac":          ratio(cw.poolMisses, cw.poolHits+cw.poolMisses),
		"copnet.self_ns_per_op":          tr.lines[1].ns,
		"copnet.share_of_wall":           tr.lines[1].ns / wall,
		"shard.ring_wait_us":             cw.stageMeanUs("ring-wait"),
		"shard.window_us":                serverWindowUs,
		"shard.ops_per_batch":            ratio(cw.enqueued, cw.batches),
		"shard.self_ns_per_op":           tr.lines[3].ns,
		"shard.replay_window_us":         replayWindowUs,
		"shard.replay_window_ratio":      replayWindowUs / serverWindowUs,
		"cache.hit_rate":                 cw.hitRate(),
		"cache.evictions_per_op":         cw.per(cw.evictions),
		"memctrl.fills_per_op":           cw.per(cw.fills),
		"memctrl.writebacks_per_op":      cw.per(cw.writebacks),
		"memctrl.self_ns_per_op":         tr.lines[4].ns,
		"core.decode_ns":                 cc.decodeNs,
		"core.encode_ns":                 cc.encodeNs,
		"core.compressed_frac":           cw.compressedFrac(),
		"core.self_ns_per_op":            tr.lines[5].ns,
		"compress.ns_per_block":          cc.compressNs,
		"compress.decompress_ns":         cc.decompressNs,
		"compress.ns_per_op":             compressOp,
		"ecc.syndrome_ns":                cc.syndromeNs,
		"ecc.ns_per_op":                  eccOp,
		"eccregion.accesses_per_op":      cw.per(cw.regionAccesses),
		"eccregion.blocks_used":          float64(regionBlocks(snapW1)),
		"runtime.allocs_per_op":          float64(rt1.mallocs-rt0.mallocs) / float64(lu.ops()),
		"runtime.bytes_per_op":           float64(rt1.allocBytes-rt0.allocBytes) / float64(lu.ops()),
		"runtime.gc_cpu_frac":            safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU),
		"telemetry.observe_ns_per_frame": float64(cw.histObservations) / frames * obsNs,
		"telemetry.ns_per_op":            tr.lines[2].ns,
		"loadgen.ns_per_op":              gen,
		"ledger.wall_ns_per_op":          wall,
		"ledger.residual_ns_per_op":      residual,
		"ledger.residual_frac":           residual / wall,
		"ledger.trace_overhead_frac":     (wall - wallU) / wallU,
	}
	tr.metrics = m
	if r := m["shard.replay_window_ratio"]; r < 1-windowTolerance || r > 1+windowTolerance {
		return tr, fmt.Errorf("replay window %.1f us vs server window stage %.1f us: outside the %.0f%% tolerance",
			replayWindowUs, serverWindowUs, 100*windowTolerance)
	}
	return tr, nil
}

// splitObservations attributes the window's histogram observations to the
// layer that makes them: the serve path, the shard workers, and the memory
// controller with its LLC.
func splitObservations(a, b telemetry.Snapshot) (serve, shardObs, mem uint64) {
	mem = b.Controller.ValidCodewords.Count + b.Cache.OverflowOccupancy.Count -
		a.Controller.ValidCodewords.Count - a.Cache.OverflowOccupancy.Count
	if a.Batch != nil && b.Batch != nil {
		shardObs = b.Batch.Depth.Count - a.Batch.Depth.Count
	}
	return histCount(b) - histCount(a) - shardObs - mem, shardObs, mem
}

func regionBlocks(s telemetry.Snapshot) uint64 {
	if s.Region == nil {
		return 0
	}
	return s.Region.BlocksUsed
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced window's client frame spans and the
// replays' frame spans as JSON lines, one file per workload (overwritten by
// the next traced run of that workload).
func writeSpans(cfg *config, lw *loopResult, rs, rm *replayResult) error {
	if cfg.spansDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spansDir, "spans-"+cfg.spec.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for w, sp := range lw.spans {
		for _, s := range sp {
			if err := enc.Encode(replaySpan{Layer: "client", Worker: w, StartNs: s.end - s.dur, DurNs: s.dur, OpsCount: frameOps}); err != nil {
				f.Close()
				return err
			}
		}
	}
	for _, rr := range []*replayResult{rs, rm} {
		for _, s := range rr.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
