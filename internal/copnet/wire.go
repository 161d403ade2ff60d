// Package copnet is the networked protected-memory service: a compact
// binary wire format for batched block operations, the multi-tenant HTTP
// server core copserve mounts, and the client library copload (and any
// other remote driver) speaks. Server and client share one process-free
// contract, so integration tests run both in-process over a loopback
// listener.
//
// The design goal is that one network request amortizes into one per-shard
// batch: a request frame carries a *window* of operations, the server
// submits the whole window through a single shard.Group, and the per-shard
// workers dequeue it as deep batches — the same memory-level-parallelism
// story as the in-process batched front-end, stretched over a connection.
//
// Wire format (little-endian):
//
//	frame  := magic byte (0xCB) | version byte (0x01) | op*
//	frame  := magic byte (0xCB) | version byte (0x02) | trace id u64 | op*
//	op     := kind byte | kind-specific fields
//
// Version 2 frames carry a client-generated trace context: a nonzero
// 64-bit trace id from which both sides derive the frame span
// (FrameSpan) and per-op span ids (OpSpan) deterministically, so no
// per-op ids travel on the wire. Version 1 frames still parse (trace id
// 0 = untraced); responses are always version 1.
//
// Request operations:
//
//	read        addr u64
//	write       addr u64 | 64 data bytes
//	readRange   addr u64 | n u32
//	writeRange  addr u64 | n u32 | n data bytes
//	flush       —
//	settle      addr u64
//	storedKind  addr u64
//	injectBit   addr u64 | bit i32
//	injectChip  addr u64 | chip i32 | pattern byte
//
// Response frame: the same header, then one result per request op in
// request order:
//
//	result := status byte | payload
//	status 0 (ok): payload is kind-specific — read: 4 info bytes + 64
//	  data bytes; readRange: n u32 + n bytes; storedKind / injectBit /
//	  injectChip: 1 byte; others: empty.
//	status 1 (error): payload is msgLen u32 + msgLen message bytes.
//
// Same-block operations within one frame execute in frame order (the
// batched front-end's per-block enqueue-order guarantee); operations on
// different blocks may be reordered for DRAM row locality exactly as
// in-process windows are. Barrier operations (flush, settle, storedKind,
// injections, ranges) split the window: everything before them completes
// first — the same fence a caller gets from Group.Wait.
package copnet

import (
	"encoding/binary"
	"fmt"

	"cop/internal/memctrl"
)

// BlockBytes is the service's block granularity.
const BlockBytes = memctrl.BlockBytes

// Frame header bytes. Version 2 inserts an 8-byte trace id between the
// version byte and the first op; everything else is identical.
const (
	wireMagic         = 0xCB
	wireVersion       = 0x01
	wireVersionTraced = 0x02
)

// OpKind identifies one wire operation.
type OpKind uint8

// Wire operations.
const (
	opInvalid OpKind = iota
	OpRead
	OpWrite
	OpReadRange
	OpWriteRange
	OpFlush
	OpSettle
	OpStoredKind
	OpInjectBit
	OpInjectChip
)

// String returns the op name.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpReadRange:
		return "read-range"
	case OpWriteRange:
		return "write-range"
	case OpFlush:
		return "flush"
	case OpSettle:
		return "settle"
	case OpStoredKind:
		return "stored-kind"
	case OpInjectBit:
		return "inject-bit"
	case OpInjectChip:
		return "inject-chip"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// maxRangeBytes bounds one range operation (and transitively one frame's
// memory amplification on the server).
const maxRangeBytes = 1 << 20

// maxFrameOps bounds the operations per frame — far above any sensible
// window, low enough that a hostile frame cannot balloon the response plan.
const maxFrameOps = 1 << 16

// maxFrameBytes is the request body cap the handler enforces (room for
// maxFrameOps block writes). decodeRequestInto applies it to a frame's
// read payload too — 64 bytes per read plus n per read-range — which
// bounds the server's per-frame payload arena and response buffer: a
// 13-byte read-range op may otherwise ask for a whole maxRangeBytes.
const maxFrameBytes = 8 + maxFrameOps*(9+BlockBytes)

// reqOp is one decoded request operation. Data aliases the request body —
// valid only while the body buffer is.
type reqOp struct {
	kind OpKind
	addr uint64
	n    uint32
	arg  int32
	pat  byte
	data []byte
}

// isWindowOp reports whether the op rides an asynchronous group window
// (true) or fences the window and executes synchronously (false).
func (o *reqOp) isWindowOp() bool { return o.kind == OpRead || o.kind == OpWrite }

// frameHeader returns the two header bytes every frame starts with.
func frameHeader() []byte { return []byte{wireMagic, wireVersion} }

// checkHeader consumes and validates a version-1 header, returning the
// remainder. Responses are always version 1, so the client result parser
// stays strict.
func checkHeader(b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("copnet: frame shorter than its header")
	}
	if b[0] != wireMagic {
		return nil, fmt.Errorf("copnet: bad frame magic %#x", b[0])
	}
	if b[1] != wireVersion {
		return nil, fmt.Errorf("copnet: unsupported wire version %d", b[1])
	}
	return b[2:], nil
}

// checkRequestHeader consumes a request header of either version,
// returning the remainder and the trace id (0 for version-1 frames).
func checkRequestHeader(b []byte) ([]byte, uint64, error) {
	if len(b) < 2 {
		return nil, 0, fmt.Errorf("copnet: frame shorter than its header")
	}
	if b[0] != wireMagic {
		return nil, 0, fmt.Errorf("copnet: bad frame magic %#x", b[0])
	}
	switch b[1] {
	case wireVersion:
		return b[2:], 0, nil
	case wireVersionTraced:
		if len(b) < 10 {
			return nil, 0, fmt.Errorf("copnet: traced frame shorter than its header")
		}
		return b[10:], binary.LittleEndian.Uint64(b[2:]), nil
	}
	return nil, 0, fmt.Errorf("copnet: unsupported wire version %d", b[1])
}

// --- trace span derivation ----------------------------------------------

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that
// spreads sequential trace ids across the flow-id space.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FrameSpan derives the flight-recorder flow id for a frame from its wire
// trace id. Client and server compute it independently — that equality is
// what joins the two sides' records without shipping span ids.
func FrameSpan(traceID uint64) uint64 { return mix64(traceID) }

// OpSpan derives the flow id for the i-th operation of a traced frame.
// Spans are the frame span plus 1+i, so a frame's ops occupy a contiguous
// id run distinct from the frame span itself.
func OpSpan(traceID uint64, i int) uint64 { return mix64(traceID) + 1 + uint64(i) }

// --- request encoding (client side) -------------------------------------

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendRead(b []byte, addr uint64) []byte {
	return appendU64(append(b, byte(OpRead)), addr)
}

func appendWrite(b []byte, addr uint64, data []byte) []byte {
	return append(appendU64(append(b, byte(OpWrite)), addr), data...)
}

func appendReadRange(b []byte, addr uint64, n uint32) []byte {
	return appendU32(appendU64(append(b, byte(OpReadRange)), addr), n)
}

func appendWriteRange(b []byte, addr uint64, data []byte) []byte {
	b = appendU32(appendU64(append(b, byte(OpWriteRange)), addr), uint32(len(data)))
	return append(b, data...)
}

func appendFlush(b []byte) []byte { return append(b, byte(OpFlush)) }

func appendAddrOp(b []byte, kind OpKind, addr uint64) []byte {
	return appendU64(append(b, byte(kind)), addr)
}

func appendInjectBit(b []byte, addr uint64, bit int32) []byte {
	return appendU32(appendU64(append(b, byte(OpInjectBit)), addr), uint32(bit))
}

func appendInjectChip(b []byte, addr uint64, chip int32, pattern byte) []byte {
	return append(appendU32(appendU64(append(b, byte(OpInjectChip)), addr), uint32(chip)), pattern)
}

// --- request decoding (server side) -------------------------------------

// decodeRequest parses a request frame into ops. Op data slices alias
// body.
func decodeRequest(body []byte) ([]reqOp, error) {
	ops, _, err := decodeRequestInto(nil, body)
	return ops, err
}

// decodeRequestInto parses a request frame, appending into ops (pass a
// length-zero slice with retained capacity to parse allocation-free) and
// returning the frame's trace id (0 when untraced). Op data slices alias
// body, so they are valid only while the body buffer is. A frame whose
// read payload exceeds maxFrameBytes is rejected. On error the returned
// slice holds the ops decoded so far.
func decodeRequestInto(ops []reqOp, body []byte) ([]reqOp, uint64, error) {
	rest, traceID, err := checkRequestHeader(body)
	if err != nil {
		return ops, 0, err
	}
	payload := 0 // read payload bytes the response will carry
	for len(rest) > 0 {
		if len(ops) >= maxFrameOps {
			return ops, traceID, fmt.Errorf("copnet: frame exceeds %d operations", maxFrameOps)
		}
		kind := OpKind(rest[0])
		rest = rest[1:]
		op := reqOp{kind: kind}
		switch kind {
		case OpRead, OpSettle, OpStoredKind:
			if len(rest) < 8 {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			if kind == OpRead {
				payload += BlockBytes
			}
		case OpWrite:
			if len(rest) < 8+BlockBytes {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			op.data = rest[8 : 8+BlockBytes]
			rest = rest[8+BlockBytes:]
		case OpReadRange:
			if len(rest) < 12 {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			op.n = binary.LittleEndian.Uint32(rest[8:])
			if op.n > maxRangeBytes {
				return ops, traceID, fmt.Errorf("copnet: %v of %d bytes exceeds the %d-byte range cap", kind, op.n, maxRangeBytes)
			}
			rest = rest[12:]
			payload += int(op.n)
		case OpWriteRange:
			if len(rest) < 12 {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			op.n = binary.LittleEndian.Uint32(rest[8:])
			if op.n > maxRangeBytes {
				return ops, traceID, fmt.Errorf("copnet: %v of %d bytes exceeds the %d-byte range cap", kind, op.n, maxRangeBytes)
			}
			rest = rest[12:]
			if len(rest) < int(op.n) {
				return ops, traceID, truncated(kind)
			}
			op.data = rest[:op.n]
			rest = rest[op.n:]
		case OpFlush:
			// no fields
		case OpInjectBit:
			if len(rest) < 12 {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			op.arg = int32(binary.LittleEndian.Uint32(rest[8:]))
			rest = rest[12:]
		case OpInjectChip:
			if len(rest) < 13 {
				return ops, traceID, truncated(kind)
			}
			op.addr = binary.LittleEndian.Uint64(rest)
			op.arg = int32(binary.LittleEndian.Uint32(rest[8:]))
			op.pat = rest[12]
			rest = rest[13:]
		default:
			return ops, traceID, fmt.Errorf("copnet: unknown op kind %d", kind)
		}
		if payload > maxFrameBytes {
			return ops, traceID, fmt.Errorf("copnet: frame's read payload exceeds %d bytes", maxFrameBytes)
		}
		ops = append(ops, op)
	}
	return ops, traceID, nil
}

func truncated(kind OpKind) error {
	return fmt.Errorf("copnet: truncated %v operation", kind)
}

// --- ReadInfo packing ----------------------------------------------------

// ReadInfo flag bits (byte 0 of the 4-byte packed form).
const (
	infoLLCHit = 1 << iota
	infoFromDRAM
	infoDecodedCompressed
	infoCorrectedPointer
	infoRegionAccess
)

// packedInfoLen is the packed ReadInfo size: flags, valid code words,
// corrected count (u16).
const packedInfoLen = 4

// packInfo appends the 4-byte packed form of info.
func packInfo(b []byte, info memctrl.ReadInfo) []byte {
	var flags byte
	if info.LLCHit {
		flags |= infoLLCHit
	}
	if info.FromDRAM {
		flags |= infoFromDRAM
	}
	if info.DecodedCompressed {
		flags |= infoDecodedCompressed
	}
	if info.CorrectedPointer {
		flags |= infoCorrectedPointer
	}
	if info.RegionAccess {
		flags |= infoRegionAccess
	}
	valid := info.ValidCodewords
	if valid > 255 {
		valid = 255
	}
	corrected := info.Corrected
	if corrected > 0xFFFF {
		corrected = 0xFFFF
	}
	return append(b, flags, byte(valid), byte(corrected), byte(corrected>>8))
}

// unpackInfo decodes the 4-byte packed form.
func unpackInfo(b []byte) memctrl.ReadInfo {
	flags := b[0]
	return memctrl.ReadInfo{
		LLCHit:            flags&infoLLCHit != 0,
		FromDRAM:          flags&infoFromDRAM != 0,
		DecodedCompressed: flags&infoDecodedCompressed != 0,
		CorrectedPointer:  flags&infoCorrectedPointer != 0,
		RegionAccess:      flags&infoRegionAccess != 0,
		ValidCodewords:    int(b[1]),
		Corrected:         int(b[2]) | int(b[3])<<8,
	}
}

// --- response encoding/decoding -----------------------------------------

// Result statuses.
const (
	statusOK  = 0
	statusErr = 1
)

// opResult is one executed operation's outcome on the server.
type opResult struct {
	err  error
	info memctrl.ReadInfo
	data []byte // read / readRange payload
	flag byte   // storedKind / inject results
}

// appendResult serializes one result for the given request op.
func appendResult(b []byte, kind OpKind, r *opResult) []byte {
	if r.err != nil {
		msg := r.err.Error()
		b = append(b, statusErr)
		b = appendU32(b, uint32(len(msg)))
		return append(b, msg...)
	}
	b = append(b, statusOK)
	switch kind {
	case OpRead:
		b = packInfo(b, r.info)
		b = append(b, r.data...)
	case OpReadRange:
		b = appendU32(b, uint32(len(r.data)))
		b = append(b, r.data...)
	case OpStoredKind, OpInjectBit, OpInjectChip:
		b = append(b, r.flag)
	}
	return b
}

// wireError is a server-reported per-operation failure.
type wireError struct{ msg string }

func (e *wireError) Error() string { return e.msg }

// decodeResult consumes one result for the given op kind, returning the
// remainder. The payload slices alias b.
func decodeResult(b []byte, kind OpKind) (res opResult, rest []byte, err error) {
	if len(b) < 1 {
		return res, nil, fmt.Errorf("copnet: truncated result stream")
	}
	status := b[0]
	b = b[1:]
	if status == statusErr {
		if len(b) < 4 {
			return res, nil, fmt.Errorf("copnet: truncated error result")
		}
		n := binary.LittleEndian.Uint32(b)
		if uint32(len(b)-4) < n {
			return res, nil, fmt.Errorf("copnet: truncated error message")
		}
		res.err = &wireError{msg: string(b[4 : 4+n])}
		return res, b[4+n:], nil
	}
	if status != statusOK {
		return res, nil, fmt.Errorf("copnet: unknown result status %d", status)
	}
	switch kind {
	case OpRead:
		if len(b) < packedInfoLen+BlockBytes {
			return res, nil, fmt.Errorf("copnet: truncated read result")
		}
		res.info = unpackInfo(b)
		res.data = b[packedInfoLen : packedInfoLen+BlockBytes]
		b = b[packedInfoLen+BlockBytes:]
	case OpReadRange:
		if len(b) < 4 {
			return res, nil, fmt.Errorf("copnet: truncated range result")
		}
		n := binary.LittleEndian.Uint32(b)
		if uint32(len(b)-4) < n {
			return res, nil, fmt.Errorf("copnet: truncated range payload")
		}
		res.data = b[4 : 4+n]
		b = b[4+n:]
	case OpStoredKind, OpInjectBit, OpInjectChip:
		if len(b) < 1 {
			return res, nil, fmt.Errorf("copnet: truncated %v result", kind)
		}
		res.flag = b[0]
		b = b[1:]
	}
	return res, b, nil
}
