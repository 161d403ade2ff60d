package migrate

import (
	"bytes"
	"testing"

	"cop/internal/core"
	"cop/internal/memctrl"
	"cop/internal/shard"
)

// scrubSweep runs one synchronous patrol pass over every shard (the
// deterministic stand-in for a background Scrubber sweep).
func scrubSweep(b *shard.Batched) error {
	var addrs []uint64
	for i := 0; i < b.NumShards(); i++ {
		err := b.WithShard(i, func(c *memctrl.Controller) error {
			addrs = c.AppendDRAMAddrs(addrs[:0])
			for _, a := range addrs {
				if _, err := c.ScrubBlock(a); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// FuzzMigrateRangeOps extends FuzzRangeOps across reconfigurations: the
// corpus bytes encode an op program mixing shard-straddling byte-range
// reads and writes with live scheme migrations, elastic reshards, and
// synchronous scrub sweeps, differentially checked after every op against
// an unsharded reference whose scheme never changes. Whatever the engine
// does to the encodings underneath, the bytes must never move.
func FuzzMigrateRangeOps(f *testing.F) {
	// write, migrate(cop-8), read back.
	f.Add([]byte{0x00, 0x10, 0x41, 0x7F, 0x06, 0x00, 0x02, 0x00, 0x03, 0x10, 0x41, 0x7F})
	// writes, reshard up, scrub, reshard down, reads.
	f.Add([]byte{
		0x01, 0x22, 0x10, 0xFF, 0x00, 0x80, 0x03, 0x3F,
		0x07, 0x03, 0x00, 0x00, 0x06, 0x01, 0x00, 0x00,
		0x07, 0x01, 0x00, 0x00, 0x04, 0x22, 0x10, 0xFF,
	})
	// migration chain through every registered scheme with traffic between.
	f.Add([]byte{
		0x00, 0x01, 0x02, 0x40, 0x06, 0x00, 0x00, 0x00,
		0x03, 0x01, 0x02, 0x40, 0x06, 0x00, 0x01, 0x00,
		0x04, 0x01, 0x02, 0x40, 0x06, 0x00, 0x03, 0x00,
		0x05, 0x01, 0x02, 0x40, 0x06, 0x00, 0x04, 0x00,
		0x03, 0x01, 0x02, 0x40, 0x06, 0x00, 0x05, 0x00,
		0x04, 0x01, 0x02, 0x40,
	})
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > 256 {
			program = program[:256]
		}
		memCfg := memctrl.Config{Mode: memctrl.COP, COPConfig: core.NewConfig4(), LLCBytes: 16 * 1024, LLCWays: 4}
		ref := memctrl.New(memCfg)
		bm := shard.NewBatched(shard.BatchedConfig{
			Shard: shard.Config{Mem: memCfg, Shards: 4},
		})
		defer bm.Close()

		const span = 1 << 12
		payload := make([]byte, 2*shard.BlockBytes+2)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		names := Names()
		for p := 0; p+3 < len(program); p += 4 {
			addr := (uint64(program[p+1])<<4 | uint64(program[p+2])&0xF) % span
			n := 1 + int(program[p+3])%(2*shard.BlockBytes+1)
			switch program[p] % 8 {
			case 0, 1, 2: // byte-range write
				data := payload[:n]
				errR := ref.WriteBytes(addr, data)
				errS := bm.WriteBytes(addr, data)
				if (errR == nil) != (errS == nil) {
					t.Fatalf("WriteBytes(%#x,%d): ref err %v, batched err %v", addr, n, errR, errS)
				}
			case 3, 4, 5: // byte-range read
				want, errR := ref.ReadBytes(addr, n)
				got, errS := bm.ReadBytes(addr, n)
				if (errR == nil) != (errS == nil) {
					t.Fatalf("ReadBytes(%#x,%d): ref err %v, batched err %v", addr, n, errR, errS)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("ReadBytes(%#x,%d): ref %x != batched %x", addr, n, want, got)
				}
			case 6: // migrate to a registered scheme, or scrub-sweep
				if program[p+1]&1 == 0 {
					name := names[int(program[p+2])%len(names)]
					if err := MigrateTo(bm, name, Options{ChunkBlocks: 16}); err != nil {
						t.Fatalf("migrate to %s: %v", name, err)
					}
				} else if err := scrubSweep(bm); err != nil {
					t.Fatalf("scrub sweep: %v", err)
				}
			case 7: // elastic reshard to 1/2/4/8 stripes
				shards := 1 << (program[p+1] % 4)
				if err := bm.Reshard(shards); err != nil {
					t.Fatalf("reshard to %d: %v", shards, err)
				}
				if got := bm.NumShards(); got != shards {
					t.Fatalf("NumShards = %d after Reshard(%d)", got, shards)
				}
			}
		}
		// Final sweep: the whole span must agree byte for byte.
		want, errR := ref.ReadBytes(0, span)
		got, errS := bm.ReadBytes(0, span)
		if errR != nil || errS != nil {
			t.Fatalf("final sweep: ref err %v, batched err %v", errR, errS)
		}
		if !bytes.Equal(want, got) {
			t.Fatal("final sweep: images diverged")
		}
	})
}
