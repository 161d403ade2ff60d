package copnet

// Allocation guards for the wire datapath: once warmed, the client frame
// encode, the server request decode + execute, and the client response
// parse must not touch the heap. These are the per-request layers around
// the already-guarded codec/memctrl paths (TestCodecZeroAlloc), so a
// regression here reintroduces GC pressure on every network request even
// when the memory hierarchy underneath stays clean. The budget is pinned
// at exactly zero.

import (
	"math/rand"
	"testing"
)

func TestWireZeroAlloc(t *testing.T) {
	const window = 64

	rng := rand.New(rand.NewSource(11))
	block := make([]byte, BlockBytes)
	rng.Read(block)

	// Client encode: refill a reused Batch. Reset keeps the frame buffer
	// and kind table capacity, so a warmed fill is append-into-capacity.
	batch := &Batch{}
	batch.Reset()
	fill := func() {
		batch.Reset()
		for i := 0; i < window; i++ {
			if i%3 == 0 {
				batch.Write(uint64(i)*BlockBytes, block)
			} else {
				batch.Read(uint64(i) * BlockBytes)
			}
		}
	}
	fill()

	// Server decode: parse the request frame into a reused op table.
	sc := &frameScratch{}
	var decodeErr error
	decode := func() { sc.ops, sc.traceID, decodeErr = decodeRequestInto(sc.ops[:0], batch.buf) }
	decode()
	if decodeErr != nil {
		t.Fatalf("setup: decode: %v", decodeErr)
	}

	// Server execute: run the frame against a real batched tenant through
	// the shared scratch — results, payload arena, response buffer, and
	// the pooled Group's window all reused. The frame touches 64 blocks,
	// which stay LLC-resident after the first run, so the memory
	// hierarchy underneath allocates nothing either.
	bm, err := TenantConfig{Scheme: "cop", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	tenant := &Tenant{name: "alloc", batched: bm}
	var resp []byte
	exec := func() { resp = tenant.execBatch(sc) }
	exec()

	// Client parse: decode the response frame into a reused result table
	// (payloads alias the response buffer; nothing is copied).
	var results []Result
	var parseErr error
	parse := func() { results, parseErr = parseResults(resp, batch.kinds, results[:0]) }
	parse()
	if parseErr != nil {
		t.Fatalf("setup: parse: %v", parseErr)
	}
	if len(results) != window {
		t.Fatalf("setup: parsed %d results, want %d", len(results), window)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("setup: op %d failed: %v", i, r.Err)
		}
	}

	cases := []struct {
		name   string
		fn     func()
		pooled bool // draws its Group from the front-end's sync.Pool
	}{
		{"Batch/fill", fill, false},
		{"decodeRequestInto", decode, false},
		{"execBatch", exec, true},
		{"parseResults", parse, false},
	}
	for _, c := range cases {
		if c.pooled && raceEnabled {
			continue
		}
		c.fn() // warm every lazily-grown buffer before measuring
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
	}
	if decodeErr != nil || parseErr != nil {
		t.Fatalf("measured runs failed: decode=%v parse=%v", decodeErr, parseErr)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("measured op %d failed: %v", i, r.Err)
		}
	}
}
