package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"cop/internal/copnet"
	"cop/internal/workload"
)

const blockBytes = copnet.BlockBytes

// workloadSpec is one traffic mix. Footprints are multiples of the tenant
// LLC, so the cache regime (resident or spilling) is a property of the
// workload rather than of the LLC size a run happens to use.
type workloadSpec struct {
	name    string
	content string  // workload profile supplying block contents and hot-key skew
	llcMult float64 // footprint / LLC capacity
	mix     [4]int  // get/set/delete/increment percentages
	check   func(c counts) error
}

// The three cache regimes. Each check fails a run whose timed window missed
// the regime the workload exists to measure, instead of letting it report
// a misleading number.
var workloads = []workloadSpec{
	{
		// Every op hits the LLC: the wire, the shard rings and telemetry carry
		// the frame while the codec sits idle.
		name: "resident-read", content: "gcc", llcMult: 0.25, mix: [4]int{90, 10, 0, 0},
		check: func(c counts) error {
			if hr := c.hitRate(); hr < 0.95 {
				return fmt.Errorf("cache.hit_rate %.3f < 0.95", hr)
			}
			if wb := c.per(c.writebacks); wb >= 0.01 {
				return fmt.Errorf("memctrl.writebacks_per_op %.4f >= 0.01", wb)
			}
			return nil
		},
	},
	{
		// Most reads miss: each decodes a DRAM image and usually evicts a
		// dirty victim that must be encoded.
		name: "spill-mixed", content: "mcf", llcMult: 16, mix: [4]int{60, 30, 5, 5},
		check: spillCheck,
	},
	{
		// Write-heavy spill with bzip2's incompressible share: writeback
		// encode and COP-ER region alloc/free dominate.
		name: "spill-write", content: "bzip2", llcMult: 16, mix: [4]int{20, 70, 5, 5},
		check: func(c counts) error {
			if err := spillCheck(c); err != nil {
				return err
			}
			if cf := c.compressedFrac(); cf > 0.95 {
				return fmt.Errorf("core.compressed_frac %.3f > 0.95", cf)
			}
			if c.regionAccesses == 0 {
				return fmt.Errorf("eccregion.accesses_per_op is 0")
			}
			return nil
		},
	},
}

func spillCheck(c counts) error {
	if hr := c.hitRate(); hr > 0.5 {
		return fmt.Errorf("cache.hit_rate %.3f > 0.5", hr)
	}
	if wb := c.per(c.writebacks); wb < 0.3 {
		return fmt.Errorf("memctrl.writebacks_per_op %.3f < 0.3", wb)
	}
	return nil
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDelete
	opIncr
)

// op is one generated operation. ver is the content version a set writes;
// recording (kind, key, ver) is enough to regenerate the exact bytes, so the
// replays re-execute the recorded stream without storing payloads.
type op struct {
	kind opKind
	key  uint32
	ver  uint32
}

// oracle is the benchmark's shadow copy of one worker's key partition: the
// exact 64 bytes every get must return.
type oracle struct {
	prof   *workload.Profile
	base   uint32 // seed-derived content version offset
	lo     int    // first key of the partition
	shadow []byte
	ver    []uint32
}

// newOracle holds keys [lo, lo+n), each at its version-0 content: the state
// right after prefill.
func newOracle(prof *workload.Profile, base uint32, lo, n int) *oracle {
	o := &oracle{prof: prof, base: base, lo: lo, shadow: make([]byte, n*blockBytes), ver: make([]uint32, n)}
	for i := 0; i < n; i++ {
		copy(o.block(i), prof.Block(keyAddr(uint32(lo+i)), base))
	}
	return o
}

func keyAddr(key uint32) uint64 { return uint64(key) * blockBytes }

func (o *oracle) keys() int { return len(o.ver) }

func (o *oracle) block(i int) []byte { return o.shadow[i*blockBytes : (i+1)*blockBytes] }

// apply moves the shadow through o and returns the key's shadow block: the
// content a get must read, or the content a write stores.
func (o *oracle) apply(x op) []byte {
	i := int(x.key) - o.lo
	blk := o.block(i)
	switch x.kind {
	case opSet:
		o.ver[i] = x.ver
		copy(blk, o.prof.Block(keyAddr(x.key), o.base+x.ver))
	case opDelete:
		clear(blk)
	case opIncr:
		binary.LittleEndian.PutUint64(blk, binary.LittleEndian.Uint64(blk)+1)
	}
	return blk
}

// stream generates one closed-loop worker's frames over its own key
// partition. Workers own disjoint partitions and keep one frame in flight,
// so same-key operations never ride concurrent frames and the oracle's
// per-key history is exact.
type stream struct {
	o       *oracle
	rng     splitmix
	mix     [4]int
	hot     int
	hotProb float64

	ops  []op   // current frame
	want []byte // expected payload of each get in the current frame

	record bool
	log    []op // every generated op while record is set

	verified, mismatches, failed uint64
}

func newStream(o *oracle, spec workloadSpec, seed uint64, worker int) *stream {
	hot := int(float64(o.keys()) * o.prof.HotFrac)
	if hot < 1 {
		hot = 1
	}
	return &stream{
		o:       o,
		rng:     splitmix(seed ^ (uint64(worker)+1)*0x9E3779B97F4A7C15),
		mix:     spec.mix,
		hot:     hot,
		hotProb: o.prof.HotProb,
		ops:     make([]op, 0, frameOps),
		want:    make([]byte, frameOps*blockBytes),
	}
}

// pick draws the next operation: a mix-weighted kind on a hot-skewed key.
func (s *stream) pick() op {
	var x op
	p := int(s.rng.next() % 100)
	for k, cum := 0, 0; k < len(s.mix); k++ {
		cum += s.mix[k]
		if p < cum {
			x.kind = opKind(k)
			break
		}
	}
	n := s.o.keys()
	if float64(s.rng.next()%1000)/1000 < s.hotProb {
		n = s.hot
	}
	i := int(s.rng.next() % uint64(n))
	x.key = uint32(s.o.lo + i)
	if x.kind == opSet {
		x.ver = s.o.ver[i] + 1
	}
	return x
}

// build fills b with the next frame and remembers what each get must read.
func (s *stream) build(b *copnet.Batch) {
	s.ops = s.ops[:0]
	for i := 0; i < frameOps; i++ {
		x := s.pick()
		blk := s.o.apply(x)
		if x.kind == opGet {
			copy(s.want[i*blockBytes:], blk)
			b.Read(keyAddr(x.key))
		} else {
			b.Write(keyAddr(x.key), blk)
		}
		s.ops = append(s.ops, x)
	}
	if s.record {
		s.log = append(s.log, s.ops...)
	}
}

// verify checks a frame's results against the oracle.
func (s *stream) verify(res []copnet.Result) {
	for i, x := range s.ops {
		switch {
		case res[i].Err != nil:
			s.failed++
		case x.kind == opGet:
			if bytes.Equal(res[i].Data, s.want[i*blockBytes:(i+1)*blockBytes]) {
				s.verified++
			} else {
				s.mismatches++
			}
		}
	}
}

// splitmix is splitmix64: tiny, seedable, stable across Go versions.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
