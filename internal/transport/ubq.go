package transport

import "sync"

// ubqBatchCap bounds one batch handed to an InboxBatch consumer. It keeps
// a single receive from monopolising the consumer for unbounded time while
// still amortising the channel operation over a large run.
const ubqBatchCap = 1024

// ubq is an unbounded FIFO queue of envelopes pumped into a Go channel.
// Pushes never block; the paper's model places all bounded buffering (and
// hence flow control) in the protocol layer, so the transport must never
// exert backpressure of its own.
//
// The pump emits batches on outB, starting once the consumer has claimed
// the channel (batch), so everything deposited before then arrives as one
// batch. Batches are double-buffered: the pump alternates between two
// reusable slices, so a batch stays valid exactly until the consumer's
// next receive from the channel.
type ubq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []Envelope
	closed  bool
	claimed bool

	outB chan []Envelope
	done chan struct{}
	wg   sync.WaitGroup
}

func newUBQ() *ubq {
	q := &ubq{
		outB: make(chan []Envelope),
		done: make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(1)
	go q.pump()
	return q
}

// push enqueues a run of envelopes under one lock acquisition; the slice
// contents are copied, so the caller may reuse es immediately. It is a
// no-op after close.
func (q *ubq) push(es []Envelope) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, es...)
	q.cond.Signal()
}

// batch claims the inbox for its consumer and returns its receive channel.
func (q *ubq) batch() <-chan []Envelope {
	q.mu.Lock()
	if !q.claimed {
		q.claimed = true
		q.cond.Signal()
	}
	q.mu.Unlock()
	return q.outB
}

// close stops the pump; pending items are dropped (crash-stop semantics:
// a closed endpoint has crashed and receives nothing further). It is safe
// to call concurrently and repeatedly; every call returns only once the
// pump has exited, so no envelope is emitted after close returns.
func (q *ubq) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.done)
		q.cond.Signal()
	}
	q.mu.Unlock()
	q.wg.Wait()
}

// pump drains up to ubqBatchCap pending envelopes per round into one of
// two alternating reusable buffers. The buffer handed to the consumer is
// not touched again until after the consumer's next receive, which is the
// InboxBatch ownership contract. outB closes when the pump exits.
func (q *ubq) pump() {
	defer q.wg.Done()
	defer close(q.outB)
	var bufs [2][]Envelope
	cur := 0
	for {
		q.mu.Lock()
		for (len(q.items) == 0 || !q.claimed) && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		n := len(q.items)
		if n > ubqBatchCap {
			n = ubqBatchCap
		}
		batch := append(bufs[cur][:0], q.items[:n]...)
		bufs[cur] = batch
		rest := copy(q.items, q.items[n:])
		// Zero the vacated tail so the backing array does not pin
		// delivered payloads.
		for i := rest; i < len(q.items); i++ {
			q.items[i] = Envelope{}
		}
		q.items = q.items[:rest]
		q.mu.Unlock()

		select {
		case q.outB <- batch:
			cur ^= 1
		case <-q.done:
			return
		}
	}
}
