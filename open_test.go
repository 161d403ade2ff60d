package cop_test

// Tests for the unified cop.Open constructor and the cop.Store surface it
// returns: each topology option yields the right concrete front-end, all
// of them satisfy Store identically, and invalid option sets report
// errors instead of panicking.

import (
	"bytes"
	"strings"
	"testing"

	"cop"
)

// storeRoundTrip drives the Store surface shared by every front-end.
func storeRoundTrip(t *testing.T, st cop.Store) {
	t.Helper()
	data := make([]byte, cop.BlockBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := st.Write(64, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Read(64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mangled")
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, cop.BlockBytes)
	info, err := st.ReadInto(dst, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("ReadInto mangled")
	}
	if info.LLCHit {
		t.Error("post-flush ReadInto claims an LLC hit")
	}
	if snap := st.Snapshot(); snap.Controller.Stores == 0 {
		t.Error("snapshot records no stores")
	}
}

func TestOpenDefaultIsMemory(t *testing.T) {
	st, err := cop.Open(cop.WithScheme("cop-er"), cop.WithLLC(64*1024, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*cop.Memory); !ok {
		t.Fatalf("got %T, want *cop.Memory", st)
	}
	storeRoundTrip(t, st)
}

func TestOpenSharded(t *testing.T) {
	st, err := cop.Open(cop.WithScheme("cop"), cop.WithShards(4), cop.WithLLC(64*1024, 8))
	if err != nil {
		t.Fatal(err)
	}
	sm, ok := st.(*cop.ShardedMemory)
	if !ok {
		t.Fatalf("got %T, want *cop.ShardedMemory", st)
	}
	if sm.NumShards() != 4 {
		t.Fatalf("shards = %d, want 4", sm.NumShards())
	}
	storeRoundTrip(t, st)
}

func TestOpenBatched(t *testing.T) {
	st, err := cop.Open(
		cop.WithMode(cop.ModeCOPER),
		cop.WithShards(2),
		cop.WithBatching(128, 32),
		cop.WithConcurrent(),
		cop.WithLLC(64*1024, 8),
	)
	if err != nil {
		t.Fatal(err)
	}
	bm, ok := st.(*cop.BatchedMemory)
	if !ok {
		t.Fatalf("got %T, want *cop.BatchedMemory", st)
	}
	defer bm.Close()
	storeRoundTrip(t, st)
}

func TestOpenTelemetryRegistry(t *testing.T) {
	reg := new(cop.TelemetryRegistry)
	st, err := cop.Open(cop.WithScheme("ecc-dimm"), cop.WithTelemetryRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Write(0, make([]byte, cop.BlockBytes)); err != nil {
		t.Fatal(err)
	}
	if snap := reg.Snapshot(); snap.Controller.Stores == 0 {
		t.Error("registry not pointed at the opened store")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := cop.Open(cop.WithScheme("no-such-scheme")); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := cop.Open(cop.WithScheme("cop,cop-er")); err == nil {
		t.Error("multi-scheme list accepted")
	}
	if _, err := cop.Open(cop.WithScheme("all")); err == nil {
		t.Error("'all' accepted as a scheme")
	}
	// WithConcurrent guards against a single-goroutine Memory.
	if _, err := cop.Open(cop.WithScheme("cop"), cop.WithConcurrent()); err == nil {
		t.Error("WithConcurrent satisfied by a plain Memory")
	}
	// Bad shard geometry errors instead of panicking.
	if _, err := cop.Open(cop.WithShards(3)); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
}

func TestSchemeNames(t *testing.T) {
	names := cop.SchemeNames()
	for _, want := range []string{"unprotected", "ecc-dimm", "cop", "cop-er"} {
		if !strings.Contains(names, want) {
			t.Errorf("SchemeNames() missing %q: %s", want, names)
		}
	}
}
