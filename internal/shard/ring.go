package shard

import (
	"runtime"
	"sync/atomic"
)

// txnRing is a bounded multi-producer single-consumer ring of Txn records
// (Vyukov's bounded MPSC queue). Producers reserve a slot with one
// fetch-add on tail, fill the transaction IN PLACE, and publish by storing
// the cell's sequence number; the single consumer (the shard's worker
// goroutine) peeks pointers to published cells in order, executes the
// transactions where they sit, and releases the cells a full ring-length
// ahead. Filling and executing in place means a request crosses the ring
// with zero Txn copies — on the submit side only the fields the operation
// actually uses are written, and the worker never copies the record out.
// No locks, no allocation after construction; a full ring backpressures
// producers with a Gosched spin until the worker frees cells.
type txnRing struct {
	mask  uint64
	cells []txnCell
	tail  atomic.Uint64 // next producer slot
	_     [56]byte      // keep the consumer cursor off the producers' line
	head  atomic.Uint64 // next consumer slot; advanced only by the worker
}

// txnCell pairs one in-flight Txn with its publication sequence: seq ==
// pos means "free for the producer that reserved pos", seq == pos+1 means
// "published, ready for the consumer".
type txnCell struct {
	seq atomic.Uint64
	txn Txn
}

// newTxnRing builds a ring of the given power-of-two size.
func newTxnRing(size int) *txnRing {
	r := &txnRing{mask: uint64(size - 1), cells: make([]txnCell, size)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// reserve claims the next slot, spinning while the ring is full, and
// returns its cell and position. The caller owns c.txn exclusively until
// publish: it must set every field the operation's execution reads
// (reference fields are nil and err is cleared from release; value fields
// hold stale data from the previous occupant). Safe for any number of
// concurrent producers.
func (r *txnRing) reserve() (c *txnCell, pos uint64) {
	pos = r.tail.Add(1) - 1
	c = &r.cells[pos&r.mask]
	for c.seq.Load() != pos {
		runtime.Gosched()
	}
	return c, pos
}

// publish hands a reserved, filled cell to the consumer.
func (r *txnRing) publish(c *txnCell, pos uint64) {
	c.seq.Store(pos + 1)
}

// peek appends pointers to up to max published transactions, in enqueue
// order, WITHOUT freeing their cells: the Txns stay valid (and invisible
// to producers) until the matching release. Worker-only.
func (r *txnRing) peek(ptrs []*Txn, max int) []*Txn {
	pos := r.head.Load()
	for len(ptrs) < max {
		c := &r.cells[pos&r.mask]
		if c.seq.Load() != pos+1 {
			break
		}
		ptrs = append(ptrs, &c.txn)
		pos++
	}
	return ptrs
}

// release frees the n oldest peeked cells for producer reuse, dropping
// their reference fields so an idle ring does not pin caller buffers or
// groups until the slot is reclaimed. Worker-only.
func (r *txnRing) release(n int) {
	for ; n > 0; n-- {
		h := r.head.Load()
		c := &r.cells[h&r.mask]
		t := &c.txn
		t.dst = nil
		t.g = nil
		t.err = nil
		c.seq.Store(h + uint64(len(r.cells)))
		r.head.Store(h + 1)
	}
}

// empty reports whether every reserved slot has been consumed and
// released. head only advances at release, after execution, so an empty
// ring means every claimed transaction has fully executed — which makes
// this safe to poll from outside the worker (resharding's quiesce does).
func (r *txnRing) empty() bool { return r.tail.Load() == r.head.Load() }
