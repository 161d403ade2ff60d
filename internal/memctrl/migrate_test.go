package memctrl

import (
	"bytes"
	"math/rand"
	"testing"

	"cop/internal/core"
	"cop/internal/trace"
)

// TestMigrationPendingBlocks drives the mid-migration paths directly, with
// no concurrency: a pending block's fill, DecodeResident and ScrubBlock all
// decode it with the retiring scheme, MigrateChunk converts the rest in
// bounded steps, and the converted DRAM is byte-identical to that of the
// same memory converted with no traffic in between.
func TestMigrationPendingBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		to   Mode
		cfg  core.Config
	}{
		{"cop-4->cop-8", COP, core.NewConfig8()},
		{"cop-4->ecc-region", ECCRegion, core.Config{}},
		{"cop-4->ecc-dimm", ECCDIMM, core.Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const blocks = 64
			rng := rand.New(rand.NewSource(66))
			content := make([][]byte, blocks)
			for i := range content {
				if i%4 == 3 {
					content[i] = randomData(rng)
				} else {
					content[i] = compressibleData(rng)
				}
			}
			addrOf := func(i int) uint64 { return uint64(i) * BlockBytes }
			// populate writes the content under COP-4, flushes it to DRAM
			// and begins the migration: every DRAM image is pending.
			populate := func() *Controller {
				c := newCtrl(COP)
				for i, d := range content {
					mustWrite(t, c, addrOf(i), d)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := c.BeginMigration(tc.to, tc.cfg); err != nil {
					t.Fatal(err)
				}
				if got, want := c.MigrationPending(), len(c.AppendDRAMAddrs(nil)); got != want {
					t.Fatalf("pending = %d, want every DRAM image (%d)", got, want)
				}
				return c
			}
			c := populate()
			tr := trace.New(trace.Config{})
			c.AttachTracer(tr.Handle(0))
			tr.Start()

			// A fault in a pending image corrects through the retiring
			// COP-4 decoder and reports that decoder's verdict.
			const flipped = 0
			if !c.InjectBitFlip(addrOf(flipped), 17) {
				t.Fatal("flipped block has no DRAM image")
			}
			_, want, err := core.NewCodec(core.NewConfig4()).Decode(c.DumpDRAM()[addrOf(flipped)])
			if err != nil || len(want.CorrectedSegments) != 1 {
				t.Fatalf("reference COP-4 decode: %+v, %v", want, err)
			}
			pending := c.MigrationPending()
			before := c.Snapshot().Controller
			got, info, err := c.ReadWithInfo(addrOf(flipped))
			if err != nil || !bytes.Equal(got, content[flipped]) {
				t.Fatalf("pending read: %v", err)
			}
			if !info.FromDRAM || info.DecodedCompressed != want.Compressed ||
				info.ValidCodewords != want.ValidCodewords || info.Corrected != 1 {
				t.Fatalf("pending read info %+v, want the COP-4 verdict %+v", info, want)
			}
			after := c.Snapshot().Controller
			if after.CorrectedErrors != before.CorrectedErrors+1 ||
				after.ValidCodewords.Count != before.ValidCodewords.Count+1 {
				t.Fatalf("pending read counters: %+v -> %+v", before, after)
			}
			if c.MigrationPending() != pending {
				t.Fatal("a read converted its block")
			}
			var sawRead, sawDecode bool
			for _, r := range tr.Snapshot() {
				if r.Addr != addrOf(flipped) {
					continue
				}
				switch r.Kind {
				case trace.KindDRAMRead:
					sawRead = true
				case trace.KindDecode:
					sawDecode = r.Arg0 == 1 && r.Arg1 == uint64(COP) && r.Arg2 != 0
				}
			}
			if !sawRead || !sawDecode {
				t.Fatalf("pending fill trace: dram-read %v, decode with corrected-segment mask %v", sawRead, sawDecode)
			}

			// DecodeResident returns a pending block's content, compressed
			// or raw, without reading it.
			for _, i := range []int{1, 3} {
				got, ok, err := c.DecodeResident(addrOf(i))
				if err != nil || !ok || !bytes.Equal(got, content[i]) {
					t.Fatalf("DecodeResident(block %d): ok=%v err=%v", i, ok, err)
				}
			}
			if c.MigrationPending() != pending || c.Snapshot().Controller.Fills != after.Fills {
				t.Fatal("DecodeResident converted or filled a block")
			}

			// ScrubBlock of a pending block converts it.
			if scanned, err := c.ScrubBlock(addrOf(2)); err != nil || !scanned {
				t.Fatalf("scrub of a pending block: scanned=%v err=%v", scanned, err)
			}
			if got := c.MigrationPending(); got != pending-1 {
				t.Fatalf("pending after scrub = %d, want %d", got, pending-1)
			}
			pending--

			// MigrateChunk converts in bounded steps, then to completion.
			for _, n := range []int{5, 7} {
				rem, err := c.MigrateChunk(n)
				if err != nil || rem != pending-n {
					t.Fatalf("MigrateChunk(%d) = %d, %v; want %d remaining", n, rem, err, pending-n)
				}
				pending = rem
			}
			if rem, err := c.MigrateChunk(blocks); err != nil || rem != 0 || c.Migrating() {
				t.Fatalf("final MigrateChunk = %d, %v (migrating %v)", rem, err, c.Migrating())
			}
			if c.Mode() != tc.to {
				t.Fatalf("mode after migration = %v, want %v", c.Mode(), tc.to)
			}

			ref := populate()
			if rem, err := ref.MigrateChunk(blocks); err != nil || rem != 0 {
				t.Fatalf("reference migration = %d, %v", rem, err)
			}
			gotDRAM, refDRAM := c.DumpDRAM(), ref.DumpDRAM()
			if len(gotDRAM) != len(refDRAM) {
				t.Fatalf("DRAM holds %d images, reference %d", len(gotDRAM), len(refDRAM))
			}
			for addr, img := range refDRAM {
				if !bytes.Equal(gotDRAM[addr], img) {
					t.Fatalf("image %#x differs from the reference conversion", addr)
				}
			}
			for i, d := range content {
				if got, err := c.Read(addrOf(i)); err != nil || !bytes.Equal(got, d) {
					t.Fatalf("block %d after migration: %v", i, err)
				}
			}
		})
	}
}

// TestEverRawSurvivesMigrationDrop: when the LLC holds newer data for a
// pending block, MigrateChunk drops the block's stale image. The drop
// keeps the block's ever-raw bit, so the raw rewrite that follows does not
// count the block ever-incompressible a second time.
func TestEverRawSurvivesMigrationDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	c := newCtrl(COP)
	raw := func() []byte { // raw under the current scheme's codec
		for {
			if d := randomData(rng); c.cur.codec.Classify(d) == core.StoredRaw {
				return d
			}
		}
	}
	const addr = 0x40
	mustWrite(t, c, addr, raw())
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if k, n := c.StoredKind(addr), c.Snapshot().Controller.EverIncompressible; k != StoredKindRaw || n != 1 {
		t.Fatalf("after the first raw store: kind %v, ever_incompressible %d", k, n)
	}
	if err := c.BeginMigration(COP, core.NewConfig8()); err != nil {
		t.Fatal(err)
	}
	want := raw()
	mustWrite(t, c, addr, want) // a dirty LLC line over the pending image
	if rem, err := c.MigrateChunk(1); err != nil || rem != 0 {
		t.Fatalf("MigrateChunk = %d, %v", rem, err)
	}
	if k := c.StoredKind(addr); k != StoredNone || c.InDRAM(addr) {
		t.Fatalf("after the drop: kind %v, in DRAM %v; want no image", k, c.InDRAM(addr))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot().Controller
	if k := c.StoredKind(addr); k != StoredKindRaw || st.StoredRaw != 2 {
		t.Fatalf("after the rewrite: kind %v, stored_raw %d; want a second raw store", k, st.StoredRaw)
	}
	if st.EverIncompressible != 1 {
		t.Fatalf("ever_incompressible = %d after the drop and rewrite, want 1", st.EverIncompressible)
	}
	if got, err := c.Read(addr); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after the rewrite: %v", err)
	}
}
