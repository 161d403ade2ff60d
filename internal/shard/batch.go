package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// This file is the front-end. Every operation runs on the goroutine that
// issues it, under the owning shard's lock: synchronous calls take the
// lock once per access, and a Group buffers a window of reads and writes
// and executes it when its owner calls Wait — one lock acquisition per
// touched shard for up to holdMax accesses, FR-FCFS-friendly reordering
// within each hold, and the word-parallel codec run back-to-back so parity
// masks and codec scratch stay hot. Each shard carries an explicit Mode
// (Enabled / Paused / Draining) that both paths check under the shard
// lock; Draining quiesces the shard to a fenced, flushed state — the
// handoff point live scheme migration needs.

// ErrClosed is returned for operations submitted after Close.
var ErrClosed = errors.New("shard: batched controller is closed")

// Mode is a batched shard's controller state.
type Mode int32

const (
	// ModeEnabled executes requests (the normal state).
	ModeEnabled Mode = iota
	// ModePaused executes nothing: synchronous calls and Group windows
	// that reach the shard wait until it is re-enabled.
	ModePaused
	// ModeDraining executes nothing, like ModePaused; Drain and DrainShard
	// set it and then flush the shard to a fenced state (memctrl.Flush).
	// The fence covers every operation that took the shard lock before
	// the flip: every synchronous call and Group.Wait that has returned.
	ModeDraining
	// modeClosed is the terminal state set by Close.
	modeClosed
	// modeRetired is the terminal state a reshard leaves a shard in after
	// its stripes have been cut over to new shards: callers waiting on it
	// re-resolve the topology instead.
	modeRetired
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeEnabled:
		return "enabled"
	case ModePaused:
		return "paused"
	case ModeDraining:
		return "draining"
	case modeClosed:
		return "closed"
	case modeRetired:
		return "retired"
	}
	return fmt.Sprintf("mode(%d)", int32(m))
}

// txnOp selects what a buffered Txn does when its window executes.
type txnOp uint8

const (
	opRead     txnOp = iota // full-block read into t.dst
	opWrite                 // full-block write of t.data
	opWriteRaw              // write of t.dst (invalid-length passthrough)
)

// Txn is one buffered window operation: pure data, no closures. dst and
// info point into the issuing caller's memory and are written before Wait
// returns; inner, the shard-local address, is filled in when Wait routes
// the window.
type Txn struct {
	op    txnOp
	addr  uint64
	inner uint64
	flow  uint64            // externally supplied trace flow id; 0 = allocate
	data  [BlockBytes]byte  // write payload (copied at issue)
	dst   []byte            // read destination / raw write payload
	info  *memctrl.ReadInfo // read verdict destination; nil discards it
}

// holdMax caps how many window operations execute under one acquisition
// of a shard lock, bounding how long one window keeps synchronous callers
// and other windows off that shard.
const holdMax = 64

// Group is a window of asynchronous reads and writes owned by one
// goroutine. Read and Write only buffer the operation; Wait executes the
// whole window on the calling goroutine: it routes the buffered
// operations through the current topology, then visits each touched
// shard in first-touch order, taking its lock once per up to holdMax
// operations and row-reordering each hold for DRAM locality. Issuing a
// window and calling Wait once is the front-end's memory-level-parallelism
// API — the deeper the window, the fewer lock acquisitions per access. A
// Group must not be used from two goroutines at once.
type Group struct {
	b    *Batched
	txns []Txn // the open window, in issue order
	err  error // first error of the window being executed

	// Wait's scratch, reused across windows.
	in    []*Txn     // operations still to execute
	byRun []*Txn     // in, bucketed by owning shard
	runOf []int32    // in[i]'s index into runs
	runs  []shardRun // touched shards, in first-touch order
	rs    rowSorter
}

// shardRun is one touched shard's part of a routed window:
// byRun[off:off+n], in issue order.
type shardRun struct {
	bs  *batchShard
	off int
	n   int
}

func (g *Group) setErr(err error) {
	if g.err == nil {
		g.err = err
	}
}

// Wait executes every operation issued since the last Wait, then returns
// the first error any of them produced (nil if none) and resets the group
// for reuse. Operations whose shard is Paused or Draining wait until it is
// re-enabled, or — if a reshard retires it meanwhile — run on whichever
// shard owns their block by then; after Close they fail with ErrClosed.
func (g *Group) Wait() error {
	in := g.in[:0]
	for i := range g.txns {
		in = append(in, &g.txns[i])
	}
	for len(in) > 0 {
		g.route(in)
		in = in[:0] // refilled with the refused operations; route copied every pointer out
		for _, r := range g.runs {
			in = g.execRun(r.bs, g.byRun[r.off:r.off+r.n], in)
		}
	}
	g.in = in
	err := g.err
	g.reset()
	return err
}

// route resolves each operation of in through the current topology,
// filling its shard-local address, and buckets in by owning shard into
// g.byRun, keeping issue order within each shard.
func (g *Group) route(in []*Txn) {
	topo := g.b.topo.Load()
	g.runs = g.runs[:0]
	g.runOf = g.runOf[:0]
	for _, t := range in {
		var bs *batchShard
		bs, t.inner = topo.route(t.addr)
		k := 0
		for k < len(g.runs) && g.runs[k].bs != bs {
			k++
		}
		if k == len(g.runs) {
			g.runs = append(g.runs, shardRun{bs: bs})
		}
		g.runs[k].n++
		g.runOf = append(g.runOf, int32(k))
	}
	off := 0
	for k := range g.runs {
		g.runs[k].off, off = off, off+g.runs[k].n
		g.runs[k].n = 0
	}
	g.byRun = slices.Grow(g.byRun[:0], len(in))[:len(in)]
	for i, t := range in {
		r := &g.runs[g.runOf[i]]
		g.byRun[r.off+r.n] = t
		r.n++
	}
}

// execRun executes one shard's operations, holdMax per lock hold. When the
// shard turns out not to be Enabled, the rest of ops waits in await and is
// appended to retry for a fresh route — or, after Close, fails with
// ErrClosed. Returns retry.
func (g *Group) execRun(bs *batchShard, ops, retry []*Txn) []*Txn {
	for len(ops) > 0 {
		hold := ops[:min(len(ops), holdMax)]
		g.rs.reorder(hold)
		ok, err := bs.execHold(hold)
		if !ok {
			if bs.await() == awaitClosed {
				g.setErr(ErrClosed)
				return retry
			}
			return append(retry, ops...)
		}
		g.setErr(err)
		ops = ops[len(hold):]
	}
	return retry
}

// reset discards the window and its error. It drops the caller buffers
// the buffered operations reference, so a pooled group pins nothing.
func (g *Group) reset() {
	for i := range g.txns {
		g.txns[i].dst, g.txns[i].info = nil, nil
	}
	g.txns = g.txns[:0]
	g.err = nil
}

// next appends a slot to the window and returns it. Its value fields hold
// whatever a previous window left there: the caller sets every field the
// operation's execution reads.
func (g *Group) next() *Txn {
	if len(g.txns) == cap(g.txns) {
		g.txns = append(g.txns, Txn{})
	} else {
		g.txns = g.txns[:len(g.txns)+1]
	}
	return &g.txns[len(g.txns)-1]
}

// routeEntry maps one stripe to its owning shard. logN rides per entry
// because mid-reshard different stripes are owned by shards built for
// different stripe counts, and the inner (shard-local) address depends on
// the stripe count the OWNER was built for.
type routeEntry struct {
	bs   *batchShard
	logN uint
}

// topology is the front-end's immutable routing state. Callers load it
// once per route resolution (one atomic pointer read), so a reshard can
// cut stripes over to new shards by publishing a fresh topology — the
// datapath never takes a reconfiguration lock. entries is indexed by
// blockIdx & mask and always covers every stripe; bshards lists each
// distinct live shard once (the iteration set for whole-memory sweeps);
// n is the logical stripe count (NumShards); scheme is the committed
// protection mode.
type topology struct {
	mask    uint64
	entries []routeEntry
	bshards []*batchShard
	n       int
	scheme  memctrl.Mode
}

// route resolves addr to its owning shard and shard-local address.
func (t *topology) route(addr uint64) (*batchShard, uint64) {
	blockIdx := addr / BlockBytes
	e := t.entries[blockIdx&t.mask]
	return e.bs, (blockIdx>>e.logN)*BlockBytes | addr%BlockBytes
}

// Batched is the concurrency-safe front-end; all methods may be called
// from any number of goroutines. Every operation runs on the calling
// goroutine under the owning shard's lock, and there are two ways in:
//
//   - Synchronous calls (Read, Write, ReadInto, Flush, the byte-range and
//     fault-injection methods, ...) resolve the route, take the owning
//     shard's lock and execute. A synchronous call is ordered after every
//     operation whose Group.Wait has returned, but not after operations
//     still buffered in the caller's own window — wait the window out
//     first when order matters. Synchronous calls do not appear in the
//     Snapshot's Batch section.
//   - NewGroup exposes the window API that makes batching pay: a Group
//     buffers reads and writes, and its Wait executes them with one lock
//     acquisition per touched shard for up to holdMax operations.
//
// Both paths run the same per-block sequences, so a single-threaded
// replay through either matches an unsharded memctrl.Controller of the
// same total configuration: same read results and hit/miss behavior,
// and (for schemes without an ECC region) a snapshot byte-identical
// apart from the Batch section.
//
// Batched is also the substrate for online reconfiguration: Reshard grows
// or shrinks the stripe count under live traffic, and the hooks consumed
// by the migrate package (Reconfigure, WithShard, CommitScheme) let a
// live scheme migration re-encode resident blocks shard by shard. Both
// work by swapping the topology pointer; in-flight and future requests
// re-resolve their route instead of failing.
type Batched struct {
	topo  atomic.Pointer[topology]
	gpool sync.Pool

	// reconfMu serializes reconfiguration (Reshard, Reconfigure,
	// SetTracer, Close). Never taken on the datapath.
	reconfMu sync.Mutex
	cfg      Config        // normalized current logical config (reconfMu)
	tracer   *trace.Tracer // attached flight recorder (reconfMu)
	closed   bool          // set by Close (reconfMu)

	// Retired-shard accumulators: when a reshard retires a shard its final
	// counters fold in here, keeping Ops/Snapshot monotonic across topology
	// swaps.
	retiredOps   atomic.Uint64
	retiredMu    sync.Mutex
	retiredTel   telemetry.Snapshot
	haveRetired  bool
	retiredBatch telemetry.BatchStats

	// migTel counts reconfiguration progress (scheme migrations, reshards,
	// chunks, blocks); surfaced as the Migration snapshot section.
	migTel telemetry.MigrationCounters
}

// batchShard is one shard's slot plus its mode and window telemetry.
type batchShard struct {
	slot *shardSlot
	idx  int          // stripe index within the topology the shard was built for
	logN uint         // log2 of that topology's stripe count
	mode atomic.Int32 // Mode; read under slot.mu, written under mu
	mu   sync.Mutex   // guards mode transitions
	cond *sync.Cond   // broadcast on mode change
	tel  telemetry.BatchCounters
}

// NewBatched builds a batched controller, panicking on an invalid config
// (NewBatchedChecked reports the error instead).
func NewBatched(cfg Config) *Batched {
	b, err := NewBatchedChecked(cfg)
	if err != nil {
		panic(err.Error())
	}
	return b
}

// NewBatchedChecked builds a batched controller, returning an error for an
// invalid config instead of panicking.
func NewBatchedChecked(cfg Config) (*Batched, error) {
	// The stored config carries the resolved stripe count and LLC
	// geometry a later Reshard scales from.
	scfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	b := &Batched{
		cfg:    scfg,
		tracer: scfg.Mem.Tracer,
	}
	b.gpool.New = func() any { return new(Group) }
	bshards := b.buildShards(scfg)
	b.topo.Store(&topology{
		mask:    uint64(scfg.Shards - 1),
		entries: compactRoutes(bshards),
		bshards: bshards,
		n:       scfg.Shards,
		scheme:  scfg.Mem.Mode,
	})
	return b, nil
}

// buildShards builds the scfg.Shards shards of a normalized config — each
// a fresh controller over LLCBytes/Shards of the cache, recording into
// its own flight-recorder ring when a tracer is attached. They serve
// nothing until a topology routes stripes at them.
func (b *Batched) buildShards(scfg Config) []*batchShard {
	n := scfg.Shards
	perShard := scfg.Mem
	perShard.LLCBytes = scfg.Mem.LLCBytes / n
	// Each shard gets its own single-writer trace handle below;
	// memctrl.New would bind every shard to ring 0.
	perShard.Tracer = nil
	if b.tracer != nil {
		b.tracer.EnsureShards(n)
	}
	logN := log2(n)
	bshards := make([]*batchShard, n)
	for i := range bshards {
		slot := &shardSlot{ctrl: memctrl.New(perShard)}
		if b.tracer != nil {
			slot.th = b.tracer.Handle(i)
			slot.ctrl.AttachTracer(slot.th)
		}
		bs := &batchShard{slot: slot, idx: i, logN: logN}
		bs.cond = sync.NewCond(&bs.mu)
		bshards[i] = bs
	}
	return bshards
}

// compactRoutes is the route table of a settled topology: stripe i is
// owned by shard i.
func compactRoutes(bshards []*batchShard) []routeEntry {
	entries := make([]routeEntry, len(bshards))
	for i, bs := range bshards {
		entries[i] = routeEntry{bs, bs.logN}
	}
	return entries
}

// --- execution ----------------------------------------------------------

// lockShard resolves addr through the current topology and returns the
// owning shard's slot locked, with the shard-local address, once that
// shard is Enabled. Returns ErrClosed after Close.
//
// The mode is checked while holding the slot lock, and that check alone
// fences the caller: Drain, DrainShard and Reshard flip the mode before
// they take the same lock for their final flush (quiesceShard), so a
// call either runs before that flush or observes the flip, waits in
// await, and re-resolves the route (a retired shard's stripes live
// elsewhere by then). Window holds (execHold) check the mode the same way.
func (b *Batched) lockShard(addr uint64) (*shardSlot, uint64, error) {
	for {
		bs, inner := b.topo.Load().route(addr)
		s := bs.slot
		s.mu.Lock()
		if Mode(bs.mode.Load()) == ModeEnabled {
			return s, inner, nil
		}
		s.mu.Unlock()
		if bs.await() == awaitClosed {
			return nil, 0, ErrClosed
		}
	}
}

// execHold executes ops under one acquisition of the shard lock if the
// shard is Enabled once the lock is held; ok=false means nothing ran.
// err is the first error the operations produced.
func (bs *batchShard) execHold(ops []*Txn) (ok bool, err error) {
	s := bs.slot
	depth := uint64(len(ops))
	s.mu.Lock()
	if Mode(bs.mode.Load()) != ModeEnabled {
		s.mu.Unlock()
		return false, nil
	}
	if s.th.Enabled() {
		s.th.ResetFlow()
		s.th.Record(trace.KindBatchBegin, 0, uint32(depth), 0, 0, 0, 0)
	}
	for _, t := range ops {
		if e := s.execOne(t); e != nil && err == nil {
			err = e
		}
	}
	if s.th.Enabled() {
		s.th.ResetFlow()
		s.th.Record(trace.KindBatchEnd, 0, uint32(depth), 0, 0, 0, 0)
	}
	s.mu.Unlock()
	bs.tel.Enqueued.Add(depth)
	bs.tel.Batches.Inc()
	bs.tel.Depth.Observe(depth)
	bs.tel.MaxDepth.Observe(depth)
	return true, err
}

// execOne executes one window operation through the slot's per-block
// sequences — the same ones the synchronous calls run. s.mu must be held.
func (s *shardSlot) execOne(t *Txn) error {
	switch t.op {
	case opRead:
		info, err := s.read(t.dst, t.addr, t.inner, t.flow)
		if t.info != nil {
			*t.info = info
		}
		return err
	case opWrite:
		return s.write(t.addr, t.inner, t.data[:], t.flow)
	default: // opWriteRaw
		return s.write(t.addr, t.inner, t.dst, t.flow)
	}
}

// awaitVerdict is await's outcome.
type awaitVerdict int

const (
	awaitReady   awaitVerdict = iota // shard re-enabled; retry
	awaitReroute                     // shard retired; re-resolve topology
	awaitClosed                      // front-end closed; fail the op
)

// await blocks while the shard is Paused or Draining.
func (bs *batchShard) await() awaitVerdict {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for {
		switch Mode(bs.mode.Load()) {
		case ModeEnabled:
			return awaitReady
		case modeRetired:
			return awaitReroute
		case modeClosed:
			return awaitClosed
		}
		bs.cond.Wait()
	}
}

// --- FR-FCFS batch reordering ------------------------------------------

// batchRowShift approximates DRAM row granularity for batch scheduling:
// blocks within the same 8 KB span share a row, so sorting a batch by row
// id turns scattered accesses into row-buffer-friendly runs.
const batchRowShift = 13

// rowSorter is one group's reusable scratch for reordering a hold: a
// scatter buffer and a counting array. It allocates nothing.
type rowSorter struct {
	out    [holdMax]*Txn
	counts [257]uint32
}

// reorder stable-sorts runs of plain reads/writes (at most holdMax
// operations) by DRAM row id. Same-block accesses keep their issue order
// (every pass is stable and a block never spans rows), preserving
// single-block linearizability; a raw write is a scheduling barrier that
// pins the runs around it. Only the pointers move.
func (rs *rowSorter) reorder(batch []*Txn) {
	for i := 0; i < len(batch); {
		if op := batch[i].op; op != opRead && op != opWrite {
			i++
			continue
		}
		j := i + 1
		for j < len(batch) && (batch[j].op == opRead || batch[j].op == opWrite) {
			j++
		}
		rs.sortRunByRow(batch[i:j])
		i = j
	}
}

// sortRunByRow sorts one run on the shard-local row id. A batch of
// neighborly traffic touches a handful of nearby rows, so the common case
// is a stable counting sort over the run's row range — three linear
// passes, no comparisons. Runs scattered over more than 256 distinct rows
// fall back to a stable insertion sort.
func (rs *rowSorter) sortRunByRow(run []*Txn) {
	if len(run) < 2 {
		return
	}
	minRow := run[0].inner >> batchRowShift
	maxRow := minRow
	for _, t := range run[1:] {
		switch r := t.inner >> batchRowShift; {
		case r < minRow:
			minRow = r
		case r > maxRow:
			maxRow = r
		}
	}
	if minRow == maxRow {
		return
	}
	if span := maxRow - minRow; span < 256 {
		counts := rs.counts[:span+2]
		for i := range counts {
			counts[i] = 0
		}
		for _, t := range run {
			counts[(t.inner>>batchRowShift)-minRow+1]++
		}
		for i := 1; i < len(counts); i++ {
			counts[i] += counts[i-1]
		}
		out := rs.out[:len(run)]
		for _, t := range run {
			k := (t.inner >> batchRowShift) - minRow
			out[counts[k]] = t
			counts[k]++
		}
		copy(run, out)
		return
	}
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && run[j-1].inner>>batchRowShift > run[j].inner>>batchRowShift; j-- {
			run[j-1], run[j] = run[j], run[j-1]
		}
	}
}

// --- synchronous API ----------------------------------------------------

// Read loads the 64-byte block at addr.
func (b *Batched) Read(addr uint64) ([]byte, error) {
	out := make([]byte, BlockBytes)
	if _, err := b.ReadInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadWithInfo is Read plus the owning controller's decoder observations.
func (b *Batched) ReadWithInfo(addr uint64) ([]byte, memctrl.ReadInfo, error) {
	out := make([]byte, BlockBytes)
	info, err := b.ReadInto(out, addr)
	if err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// ReadInto reads the block holding addr into dst (at least BlockBytes
// long) without allocating on the steady-state hit path (see
// memctrl.ReadInto).
func (b *Batched) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return memctrl.ReadInfo{}, err
	}
	defer s.mu.Unlock()
	return s.read(dst, addr, inner, 0)
}

// Write stores a full 64-byte block at addr.
func (b *Batched) Write(addr uint64, data []byte) error {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	return s.write(addr, inner, data, 0)
}

// Settle forces the block holding addr out of its shard's LLC and into
// DRAM (see memctrl.Settle) — the per-block fault-injection hook, usable
// while other goroutines drive other blocks.
func (b *Batched) Settle(addr uint64) error {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	s.ops.Add(1)
	return s.ctrl.Settle(inner)
}

// StoredKind returns the ground-truth form of addr's DRAM image (see
// memctrl.StoredKind); the zero kind after Close.
func (b *Batched) StoredKind(addr uint64) memctrl.StoredKind {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return 0
	}
	defer s.mu.Unlock()
	return s.ctrl.StoredKind(inner)
}

// InDRAM reports whether addr has a DRAM image (false after Close).
func (b *Batched) InDRAM(addr uint64) bool {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return false
	}
	defer s.mu.Unlock()
	return s.ctrl.InDRAM(inner)
}

// InjectBitFlip flips one bit of the DRAM image holding addr (bit 0..511),
// returning false when the block is not resident in DRAM.
func (b *Batched) InjectBitFlip(addr uint64, bit int) bool {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return false
	}
	defer s.mu.Unlock()
	s.ops.Add(1)
	return s.ctrl.InjectBitFlip(inner, bit)
}

// InjectChipFailure corrupts every byte one chip contributes to the DRAM
// image holding addr, returning false when the block is not resident.
func (b *Batched) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	s, inner, err := b.lockShard(addr)
	if err != nil {
		return false
	}
	defer s.mu.Unlock()
	s.ops.Add(1)
	return s.ctrl.InjectChipFailure(inner, chip, pattern)
}

// ReadBytes reads an arbitrary byte range, crossing block (and hence
// shard) boundaries as needed. It allocates only the result; use
// ReadBytesInto for the allocation-free form.
func (b *Batched) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := b.ReadBytesInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto fills dst with len(dst) bytes starting at addr, one
// covered block at a time. A read over LLC-resident blocks performs no
// allocations.
func (b *Batched) ReadBytesInto(dst []byte, addr uint64) error {
	for len(dst) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := min(BlockBytes-off, len(dst))
		s, inner, err := b.lockShard(base)
		if err != nil {
			return err
		}
		err = s.readPart(dst[:take], off, base, inner)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		addr += uint64(take)
		dst = dst[take:]
	}
	return nil
}

// WriteBytes writes an arbitrary byte range, performing read-modify-write
// on partially covered blocks. Each covered block is updated atomically
// (its shard is locked across the read-modify-write); the range as a whole
// is not. Writes over LLC-resident blocks perform no allocations.
func (b *Batched) WriteBytes(addr uint64, data []byte) error {
	for len(data) > 0 {
		base := addr &^ (BlockBytes - 1)
		off := int(addr - base)
		take := min(BlockBytes-off, len(data))
		s, inner, err := b.lockShard(base)
		if err != nil {
			return err
		}
		err = s.writePart(off, data[:take], base, inner)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		addr += uint64(take)
		data = data[take:]
	}
	return nil
}

// Flush drains every shard's dirty LLC lines to DRAM (first error wins),
// taking each shard's lock once it is Enabled. It fences every operation
// whose synchronous call or Group.Wait returned before Flush was called —
// not operations still buffered in an open window. If a concurrent
// reshard retires a shard mid-Flush, the pass restarts on the new
// topology (flushing a shard twice is harmless).
func (b *Batched) Flush() error {
	var ferr error
	topo := b.topo.Load()
	for i := 0; i < len(topo.bshards); {
		bs := topo.bshards[i]
		s := bs.slot
		s.mu.Lock()
		if Mode(bs.mode.Load()) == ModeEnabled {
			if err := s.ctrl.Flush(); err != nil && ferr == nil {
				ferr = err
			}
			s.mu.Unlock()
			i++
			continue
		}
		s.mu.Unlock()
		switch bs.await() {
		case awaitReroute:
			topo, i = b.topo.Load(), 0
		case awaitClosed:
			if ferr == nil {
				ferr = ErrClosed
			}
			i++
		}
	}
	return ferr
}

// --- asynchronous API ---------------------------------------------------

// NewGroup returns a window for asynchronous reads and writes: issue a
// window of Read/Write calls, then Wait once; the deeper the window, the
// more operations share each shard-lock acquisition. The group is
// reusable after Wait.
func (b *Batched) NewGroup() *Group {
	g := b.gpool.Get().(*Group)
	g.b = b
	return g
}

// PutGroup returns a group to the front-end's pool for reuse. Callers
// that issue one window per request (the networked serve datapath) would
// otherwise allocate a fresh group — and its window buffers — per frame.
// A window not waited on is discarded unexecuted, so a pooled group never
// carries one caller's operations to the next. The group must not be
// used after the call.
func (b *Batched) PutGroup(g *Group) {
	if g == nil || g.b != b {
		return
	}
	g.reset()
	b.gpool.Put(g)
}

// Read buffers an asynchronous full-block read of addr into dst (at least
// BlockBytes long), executed by the next Wait. dst must stay untouched
// until Wait returns.
func (g *Group) Read(dst []byte, addr uint64) { g.ReadFlow(dst, addr, 0, nil) }

// ReadFlow is Read with an explicit flight-recorder flow id and a
// destination for the read's decoder verdict. The shard route record and
// everything the controller performs underneath (cache lookup, decode,
// DRAM commands) join the given flow instead of allocating a fresh one;
// the networked serve datapath passes wire-derived span ids here, and
// flow 0 allocates a fresh one as Read does. A non-nil info receives the
// same memctrl.ReadInfo the synchronous ReadInto returns, written under
// the shard lock before Wait returns; nil discards it.
func (g *Group) ReadFlow(dst []byte, addr uint64, flow uint64, info *memctrl.ReadInfo) {
	t := g.next()
	t.op, t.addr, t.flow, t.dst, t.info = opRead, addr, flow, dst, info
}

// Write buffers an asynchronous full-block write, executed by the next
// Wait. data is copied into the window before Write returns, so the
// caller may reuse the buffer immediately.
func (g *Group) Write(addr uint64, data []byte) { g.WriteFlow(addr, data, 0) }

// WriteFlow is Write with an explicit flight-recorder flow id (see
// ReadFlow).
func (g *Group) WriteFlow(addr uint64, data []byte, flow uint64) {
	t := g.next()
	t.addr, t.flow = addr, flow
	if len(data) == BlockBytes {
		t.op, t.dst = opWrite, nil
		copy(t.data[:], data)
	} else {
		// Invalid-length passthrough: carry the caller's slice so the
		// controller's length validation produces the identical error.
		t.op, t.dst = opWriteRaw, data
	}
}

// --- mode control -------------------------------------------------------

// setMode publishes m to one shard and wakes every caller waiting on it.
// Terminal states (retired, closed) are never overwritten: a retired
// shard's stripes live elsewhere, and a closed front-end serves nothing.
func (b *Batched) setMode(bs *batchShard, m Mode) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	switch Mode(bs.mode.Load()) {
	case modeRetired, modeClosed:
		return
	}
	bs.mode.Store(int32(m))
	bs.cond.Broadcast()
}

// terminate moves bs to a terminal mode (modeClosed or modeRetired) and
// wakes every caller waiting on it.
func (bs *batchShard) terminate(m Mode) {
	bs.mu.Lock()
	bs.mode.Store(int32(m))
	bs.cond.Broadcast()
	bs.mu.Unlock()
}

// SetShardMode moves shard i to m. Operations targeting a non-Enabled
// shard block until it is re-enabled.
func (b *Batched) SetShardMode(i int, m Mode) { b.setMode(b.topo.Load().bshards[i], m) }

// ShardMode returns shard i's current mode.
func (b *Batched) ShardMode(i int) Mode { return Mode(b.topo.Load().bshards[i].mode.Load()) }

// SetMode moves every shard to m.
func (b *Batched) SetMode(m Mode) {
	for _, bs := range b.topo.Load().bshards {
		b.setMode(bs, m)
	}
}

// Drain moves every shard to ModeDraining, then fences each one
// (quiesceShard): every operation that took a shard lock before the flip
// — every synchronous call and Group.Wait that has returned — has
// executed and been flushed (memctrl.Flush), and nothing executes
// afterwards. Returns the first flush error. The shards stay Draining —
// and operations on them wait — until Resume.
func (b *Batched) Drain() error {
	bshards := b.topo.Load().bshards
	// Flip every shard first, so traffic stops everywhere before the
	// first flush runs.
	for _, bs := range bshards {
		b.setMode(bs, ModeDraining)
	}
	var ferr error
	for _, bs := range bshards {
		if err := b.quiesceShard(bs); err != nil && ferr == nil {
			ferr = err
		}
	}
	return ferr
}

// DrainShard is Drain for a single shard — the per-shard quiesce the live
// migration path uses while the other shards keep serving.
func (b *Batched) DrainShard(i int) error {
	return b.quiesceShard(b.topo.Load().bshards[i])
}

// Resume re-enables every shard after a Pause or Drain, unblocking any
// waiting operations.
func (b *Batched) Resume() { b.SetMode(ModeEnabled) }

// Quiesced reports whether every shard holds no dirty non-alias LLC lines
// (true after a successful Drain with no concurrent producers).
func (b *Batched) Quiesced() bool {
	for _, bs := range b.topo.Load().bshards {
		bs.slot.mu.Lock()
		q := bs.slot.ctrl.Quiesced()
		bs.slot.mu.Unlock()
		if !q {
			return false
		}
	}
	return true
}

// Close marks every shard closed, then takes each shard's lock, so an
// operation already executing finishes before Close returns and none
// executes afterwards. Operations issued after Close — and window
// operations still buffered when it is called — fail with ErrClosed.
// Close waits out any reconfiguration in progress (and fails subsequent
// ones).
func (b *Batched) Close() {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, bs := range b.topo.Load().bshards {
		bs.terminate(modeClosed)
		// Taking the lock waits out an operation still executing.
		bs.slot.mu.Lock()
		bs.slot.mu.Unlock()
	}
}

// --- delegation ---------------------------------------------------------

// NumShards returns the stripe count.
func (b *Batched) NumShards() int { return b.topo.Load().n }

// Mode returns the protection mode (the memctrl scheme, not the batch
// Mode — see ShardMode for that). After a committed live migration it
// reports the new scheme.
func (b *Batched) Mode() memctrl.Mode { return b.topo.Load().scheme }

// Ops returns the total operations routed through the front-end, summed
// lock-free from per-shard atomic counters and including operations
// executed by shards that a reshard has since retired. Counted: every
// state-affecting access — reads (Read, ReadWithInfo, ReadInto, Group
// reads), writes, per-block ReadBytes/ReadBytesInto/WriteBytes updates,
// Settle, and fault injections. Not counted: pure queries (StoredKind,
// InDRAM) and maintenance sweeps (Flush), which touch no per-block access
// path. The counted set is pinned by TestOpsCountsPerMethod.
func (b *Batched) Ops() uint64 {
	n := b.retiredOps.Load()
	for _, bs := range b.topo.Load().bshards {
		n += bs.slot.ops.Load()
	}
	return n
}

// Snapshot merges every shard's telemetry tree and attaches the batch
// section (window-hold and drain counters merged across shards;
// synchronous calls do not appear there). All hierarchy section
// fields are monotonic sums (histograms merge bucket-wise) and derived
// rates are recomputed after the merge, so for the same single-threaded
// access sequence every hierarchy section is byte-identical to what one
// unsharded controller reports (the per-shard ECC regions of region-backed
// schemes aside). The Batch section is the only unconditional addition,
// and a Migration section appears once any reconfiguration has run.
// Shards are snapshotted lock-free (the counters are atomics), so a
// snapshot never stalls traffic; the result is per-shard consistent, not
// globally instantaneous. Counters from shards retired by a reshard stay
// included via the retired accumulators; a snapshot taken while a reshard
// is mid-cutover may transiently miss the shard being folded in.
func (b *Batched) Snapshot() telemetry.Snapshot {
	topo := b.topo.Load()
	var snap telemetry.Snapshot
	batch := &telemetry.BatchStats{}
	for i, bs := range topo.bshards {
		s := bs.slot.ctrl.Snapshot()
		if i == 0 {
			snap = s
		} else {
			snap.Merge(s)
		}
		batch.Merge(bs.tel.Snapshot())
	}
	b.retiredMu.Lock()
	if b.haveRetired {
		snap.Merge(b.retiredTel)
		batch.Merge(b.retiredBatch)
	}
	b.retiredMu.Unlock()
	snap.Batch = batch
	if m := b.migTel.Snapshot(); !m.Zero() {
		snap.Migration = &m
	}
	return snap
}

// MigrationTel exposes the reconfiguration counters for the migrate
// package to advance (chunk and block progress land here and surface in
// Snapshot's Migration section).
func (b *Batched) MigrationTel() *telemetry.MigrationCounters { return &b.migTel }

// SetTracer attaches an execution-trace flight recorder: the ring set is
// grown to cover every live shard and each shard records into its own
// ring through its own single-writer handle (the shard lock serializes
// writers). Safe under live traffic — each handle swap happens under the
// owning shard's lock, so the telemetry handler's /trace/start and
// /trace/stop endpoints can toggle tracing on a live instance. Pass nil
// to detach. Shards built by later reshards inherit the tracer.
func (b *Batched) SetTracer(t *trace.Tracer) {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	b.tracer = t
	b.cfg.Mem.Tracer = t
	topo := b.topo.Load()
	if t != nil {
		maxIdx := 0
		for _, bs := range topo.bshards {
			if bs.idx > maxIdx {
				maxIdx = bs.idx
			}
		}
		t.EnsureShards(maxIdx + 1)
	}
	for _, bs := range topo.bshards {
		var h *trace.Handle
		if t != nil {
			h = t.Handle(bs.idx)
		}
		bs.slot.mu.Lock()
		bs.slot.th = h
		bs.slot.ctrl.AttachTracer(h)
		bs.slot.mu.Unlock()
	}
}

// Shard exposes one per-shard controller for diagnostics and tests. The
// caller owns synchronization: using it while other goroutines issue
// operations is racy — Drain (or Close) the front-end first.
func (b *Batched) Shard(i int) *memctrl.Controller { return b.topo.Load().bshards[i].slot.ctrl }

// Sharded returns b itself: b's synchronous methods are the lock-per-op
// path. It stays for code outside this module that reaches that path
// through it (the serve benchmark counts DRAM images with
// Sharded().InDRAM).
func (b *Batched) Sharded() *Batched { return b }
