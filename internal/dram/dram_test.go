package dram

import (
	"math/rand"
	"testing"

	"cop/internal/telemetry"
)

// addrFor builds a byte address hitting the given channel, bank, row, and
// column by inverting the location mapping.
func addrFor(s *System, ch int, bankIdx, row, col uint64) uint64 {
	t := row
	t = t*s.banksPerChan + bankIdx
	t = t*s.blocksPerRow + col
	blk := t*uint64(s.cfg.Channels) + uint64(ch)
	return blk * BlockBytes
}

func TestLocationRoundTrip(t *testing.T) {
	s := New(DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		ch := rng.Intn(s.cfg.Channels)
		bi := uint64(rng.Intn(int(s.banksPerChan)))
		row := uint64(rng.Intn(1 << 16))
		col := uint64(rng.Intn(int(s.blocksPerRow)))
		addr := addrFor(s, ch, bi, row, col)
		gch, gbi, grow := s.location(addr)
		if gch != ch || gbi != bi || grow != int64(row) {
			t.Fatalf("location(%#x) = (%d,%d,%d), want (%d,%d,%d)", addr, gch, gbi, grow, ch, bi, row)
		}
	}
}

func TestChannelStriping(t *testing.T) {
	s := New(DefaultConfig())
	ch0, _, _ := s.location(0)
	ch1, _, _ := s.location(64)
	if ch0 == ch1 {
		t.Fatal("consecutive blocks should stripe across channels")
	}
}

func TestRowMissThenHitLatency(t *testing.T) {
	s := New(DefaultConfig())
	tm := s.cfg.Timing
	addr := addrFor(s, 0, 0, 5, 0)
	finish := s.Access(0, addr, false)
	if want := tm.RCD + tm.CAS + tm.Burst; finish != want {
		t.Fatalf("closed-bank read latency = %d, want %d", finish, want)
	}
	st := s.Telemetry()
	if st.RowMisses != 1 || st.RowHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
	// Same row again after the bank is free: pure hit.
	now := finish + tm.RAS
	finish2 := s.Access(now, addrFor(s, 0, 0, 5, 1), false)
	if want := now + tm.CAS + tm.Burst; finish2 != want {
		t.Fatalf("open-row read latency = %d, want %d", finish2-now, tm.CAS+tm.Burst)
	}
	if s.Telemetry().RowHits != 1 {
		t.Fatalf("stats: %+v", s.Telemetry())
	}
}

func TestRowConflictLatency(t *testing.T) {
	s := New(DefaultConfig())
	tm := s.cfg.Timing
	f1 := s.Access(0, addrFor(s, 0, 0, 5, 0), false)
	now := f1 + tm.RAS + tm.WR // bank certainly idle
	f2 := s.Access(now, addrFor(s, 0, 0, 9, 0), false)
	if want := now + tm.RP + tm.RCD + tm.CAS + tm.Burst; f2 != want {
		t.Fatalf("conflict latency = %d, want %d", f2-now, want-now)
	}
	if s.Telemetry().RowConflicts != 1 {
		t.Fatalf("stats: %+v", s.Telemetry())
	}
}

func TestBusSerializationSameChannel(t *testing.T) {
	s := New(DefaultConfig())
	// Two reads, same channel, different banks, same cycle: data
	// transfers cannot overlap on the shared bus.
	f1 := s.Access(0, addrFor(s, 0, 0, 1, 0), false)
	f2 := s.Access(0, addrFor(s, 0, 1, 1, 0), false)
	if f2 < f1+s.cfg.Timing.Burst {
		t.Fatalf("second transfer overlaps the bus: f1=%d f2=%d", f1, f2)
	}
}

func TestChannelsOperateInParallel(t *testing.T) {
	s := New(DefaultConfig())
	f1 := s.Access(0, addrFor(s, 0, 0, 1, 0), false)
	f2 := s.Access(0, addrFor(s, 1, 0, 1, 0), false)
	if f1 != f2 {
		t.Fatalf("independent channels should finish together: %d vs %d", f1, f2)
	}
}

func TestWriteRecoveryDelaysBank(t *testing.T) {
	s := New(DefaultConfig())
	tm := s.cfg.Timing
	fw := s.Access(0, addrFor(s, 0, 0, 1, 0), true)
	// Next access to the same bank waits for write recovery.
	f2 := s.Access(fw, addrFor(s, 0, 0, 1, 1), false)
	if f2 < fw+tm.WR {
		t.Fatalf("write recovery not respected: fw=%d f2=%d", fw, f2)
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	s := New(DefaultConfig())
	// Open row 5 in bank 0.
	warm := s.Access(0, addrFor(s, 0, 0, 5, 0), false)
	now := warm + 100
	reqs := []Request{
		{Addr: addrFor(s, 0, 0, 9, 0)}, // conflict (arrives first)
		{Addr: addrFor(s, 0, 0, 5, 1)}, // row hit
	}
	finish := s.ServiceBatch(now, reqs)
	if finish[1] >= finish[0] {
		t.Fatalf("row hit should be serviced first: hit=%d conflict=%d", finish[1], finish[0])
	}
}

func TestServiceBatchReturnsInputOrder(t *testing.T) {
	s := New(DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	reqs := make([]Request, 32)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(rng.Intn(1<<28)) * BlockBytes, Write: rng.Intn(4) == 0}
	}
	finish := s.ServiceBatch(0, reqs)
	if len(finish) != len(reqs) {
		t.Fatalf("got %d results", len(finish))
	}
	for i, f := range finish {
		if f == 0 {
			t.Fatalf("request %d has no finish time", i)
		}
	}
}

func TestContentionIncreasesLatency(t *testing.T) {
	// 64 independent single reads vs 64 reads slammed into one batch:
	// average batch latency must be strictly higher.
	cfgA := DefaultConfig()
	rng := rand.New(rand.NewSource(3))
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<24)) * BlockBytes
	}

	solo := New(cfgA)
	var soloTotal uint64
	for _, a := range addrs {
		soloTotal += solo.Access(0, a, false) // fresh "time 0" per access? no: reuse state
		solo = New(cfgA)                      // isolate each access
	}

	batch := New(cfgA)
	reqs := make([]Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = Request{Addr: a}
	}
	var batchTotal uint64
	for _, f := range batch.ServiceBatch(0, reqs) {
		batchTotal += f
	}
	if batchTotal <= soloTotal {
		t.Fatalf("no contention modeled: solo=%d batch=%d", soloTotal, batchTotal)
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	s := New(DefaultConfig())
	s.Access(0, 0, false)
	s.Access(0, 64, true)
	st := s.Telemetry()
	if st.Reads != 1 || st.Writes != 1 || st.TotalLatency == 0 {
		t.Fatalf("stats: %+v", st)
	}
	// The counters are monotonic: an interval is measured by differencing
	// two snapshots, and a taken snapshot is a frozen copy.
	s.Access(1000, 128, false)
	next := s.Telemetry()
	if next.Reads-st.Reads != 1 || next.Writes != st.Writes || st.Reads != 1 {
		t.Fatalf("interval: before %+v after %+v", st, next)
	}
}

func TestUnloadedReadLatency(t *testing.T) {
	s := New(DefaultConfig())
	if got := s.UnloadedReadLatency(); got != 15 {
		t.Fatalf("unloaded latency = %d mem cycles, want 15 (CAS 11 + burst 4)", got)
	}
}

func TestZeroConfigFallsBackToDefault(t *testing.T) {
	s := New(Config{})
	if s.Config().Channels != 2 || s.Config().CapacityBytes != 8<<30 {
		t.Fatalf("default config not applied: %+v", s.Config())
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	tm := DDR31600()
	if tm.REFI != 0 {
		t.Fatal("refresh should default off")
	}
	if got := tm.refreshDelay(5); got != 5 {
		t.Fatalf("disabled refresh delayed a command: %d", got)
	}
}

func TestRefreshWindowDelays(t *testing.T) {
	tm := DDR31600().WithRefresh()
	// Inside the window at cycle 0: pushed to RFC.
	if got := tm.refreshDelay(0); got != tm.RFC {
		t.Fatalf("delay(0) = %d, want %d", got, tm.RFC)
	}
	if got := tm.refreshDelay(tm.RFC - 1); got != tm.RFC {
		t.Fatalf("delay(RFC-1) = %d", got)
	}
	// Just outside: untouched.
	if got := tm.refreshDelay(tm.RFC); got != tm.RFC {
		t.Fatalf("delay(RFC) = %d", got)
	}
	// Next interval.
	at := tm.REFI + 10
	if got := tm.refreshDelay(at); got != tm.REFI+tm.RFC {
		t.Fatalf("delay(REFI+10) = %d, want %d", got, tm.REFI+tm.RFC)
	}
}

func TestRefreshSlowsAccesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Timing = DDR31600().WithRefresh()
	s := New(cfg)
	// An access issued inside a refresh window completes later than the
	// unrefreshed equivalent.
	fRef := s.Access(0, 0, false)
	s2 := New(DefaultConfig())
	fNone := s2.Access(0, 0, false)
	if fRef <= fNone {
		t.Fatalf("refresh should delay the time-0 access: %d vs %d", fRef, fNone)
	}
}

func TestRefreshThroughputCost(t *testing.T) {
	// A long stream of accesses loses roughly RFC/REFI of throughput.
	run := func(tm Timing) uint64 {
		cfg := DefaultConfig()
		cfg.Timing = tm
		s := New(cfg)
		now := uint64(0)
		for i := 0; i < 5000; i++ {
			now = s.Access(now, uint64(i)*BlockBytes, false)
		}
		return now
	}
	base := run(DDR31600())
	ref := run(DDR31600().WithRefresh())
	overhead := float64(ref-base) / float64(base)
	if overhead <= 0 || overhead > 0.15 {
		t.Fatalf("refresh overhead %.3f out of plausible range", overhead)
	}
}

func TestEnergyAccountScalesWithChips(t *testing.T) {
	st := telemetry.DRAMStats{Reads: 1000, Writes: 200, RowMisses: 300}
	p := DDR3Energy()
	x8 := NewEnergyAccount(p, 8)
	x8.Charge(st, 100000, 4)
	x9 := NewEnergyAccount(p, 9)
	x9.Charge(st, 100000, 4)
	ratio := x9.TotalNJ() / x8.TotalNJ()
	if ratio < 1.124 || ratio > 1.126 {
		t.Fatalf("9-chip energy ratio %.4f, want exactly 9/8", ratio)
	}
	if x8.TotalNJ() <= 0 {
		t.Fatal("no energy accumulated")
	}
}

func TestClosedPageNeverHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Page = ClosedPage
	s := New(cfg)
	addr := addrFor(s, 0, 0, 5, 0)
	f1 := s.Access(0, addr, false)
	// Same row, immediately after: still a "miss" (auto-precharged).
	s.Access(f1+100, addrFor(s, 0, 0, 5, 1), false)
	st := s.Telemetry()
	if st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("closed-page stats: %+v", st)
	}
	// But also never a conflict (no row is ever left open).
	s.Access(f1+500, addrFor(s, 0, 0, 9, 0), false)
	if s.Telemetry().RowConflicts != 0 {
		t.Fatalf("closed-page conflict: %+v", s.Telemetry())
	}
}

func TestFCFSKeepsArrivalOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sched = FCFS
	s := New(cfg)
	warm := s.Access(0, addrFor(s, 0, 0, 5, 0), false)
	now := warm + 100
	reqs := []Request{
		{Addr: addrFor(s, 0, 0, 9, 0)}, // conflict, arrives first
		{Addr: addrFor(s, 0, 0, 5, 1)}, // row hit, arrives second
	}
	finish := s.ServiceBatch(now, reqs)
	if finish[0] >= finish[1] {
		t.Fatalf("FCFS must keep arrival order: first=%d second=%d", finish[0], finish[1])
	}
}

func TestOpenPageBeatsClosedPageOnStreams(t *testing.T) {
	run := func(page PagePolicy) uint64 {
		cfg := DefaultConfig()
		cfg.Page = page
		s := New(cfg)
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			now = s.Access(now, uint64(i)*BlockBytes, false) // sequential stream
		}
		return now
	}
	open := run(OpenPage)
	closed := run(ClosedPage)
	if open >= closed {
		t.Fatalf("open-page (%d) should beat closed-page (%d) on sequential streams", open, closed)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	s := New(DefaultConfig())
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		now = s.Access(now, uint64(i)*BlockBytes, false)
	}
}

func BenchmarkServiceBatch(b *testing.B) {
	s := New(DefaultConfig())
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i*977) * BlockBytes}
	}
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		f := s.ServiceBatch(now, reqs)
		now = f[len(f)-1]
	}
}

func TestTable1Configuration(t *testing.T) {
	// The paper's Table 1 memory system, literally.
	cfg := DefaultConfig()
	if cfg.Channels != 2 {
		t.Error("channels != 2")
	}
	if cfg.RanksPerChan != 2 { // 1 DIMM/channel × 2 ranks/DIMM
		t.Error("ranks per channel != 2")
	}
	if cfg.CapacityBytes != 8<<30 {
		t.Error("capacity != 8 GB")
	}
	// 1600 MT/s bus at 3.2 GHz core: 4 CPU cycles per bus cycle.
	if CPUCyclesPerMemCycle != 4 {
		t.Error("clock ratio wrong")
	}
}

// TestLocationRoundTrip: AddrAt inverts Location for every block of a
// small geometry, and the channel/column bits sit where the address-map
// comment promises (channel above offset, then column, bank, row).
func TestExportedLocationRoundTrip(t *testing.T) {
	s := New(Config{Channels: 2, RanksPerChan: 1, BanksPerRank: 4,
		RowBytes: 1024, CapacityBytes: 1 << 24, Timing: DDR31600()})
	seen := map[Location]bool{}
	for blk := uint64(0); blk < 4096; blk++ {
		addr := blk * BlockBytes
		loc := s.Location(addr)
		if got := s.AddrAt(loc); got != addr {
			t.Fatalf("AddrAt(Location(%#x)) = %#x", addr, got)
		}
		if seen[loc] {
			t.Fatalf("duplicate location %+v", loc)
		}
		seen[loc] = true
		if loc.Channel != int(blk%2) {
			t.Fatalf("addr %#x: channel %d, want %d", addr, loc.Channel, blk%2)
		}
	}
}

// TestGeometryEnumerators: SameRow/SameColumn/SameBank return exactly the
// addresses whose Location agrees in the respective fields, all below the
// limit, and always include the probe address itself.
func TestGeometryEnumerators(t *testing.T) {
	s := New(Config{Channels: 2, RanksPerChan: 1, BanksPerRank: 4,
		RowBytes: 1024, CapacityBytes: 1 << 24, Timing: DDR31600()})
	const limit = 4096 * BlockBytes
	probe := uint64(1234) * BlockBytes
	ploc := s.Location(probe)

	check := func(name string, got []uint64, same func(Location) bool) {
		t.Helper()
		want := map[uint64]bool{}
		for blk := uint64(0); blk < 4096; blk++ {
			addr := blk * BlockBytes
			if same(s.Location(addr)) {
				want[addr] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d addresses, want %d", name, len(got), len(want))
		}
		found := false
		for _, a := range got {
			if !want[a] {
				t.Fatalf("%s: unexpected address %#x", name, a)
			}
			if a >= limit {
				t.Fatalf("%s: address %#x past limit", name, a)
			}
			found = found || a == probe
		}
		if !found {
			t.Fatalf("%s: probe address missing", name)
		}
	}
	check("SameRow", s.SameRow(probe, limit), func(l Location) bool {
		return l.Channel == ploc.Channel && l.Bank == ploc.Bank && l.Row == ploc.Row
	})
	check("SameColumn", s.SameColumn(probe, limit), func(l Location) bool {
		return l.Channel == ploc.Channel && l.Bank == ploc.Bank && l.Col == ploc.Col
	})
	check("SameBank", s.SameBank(probe, limit), func(l Location) bool {
		return l.Channel == ploc.Channel && l.Bank == ploc.Bank
	})
}
