// Package inboxtest reads a batched inbox (transport.Endpoint.InboxBatch)
// one element at a time, for tests that assert per-envelope order. It is
// generic over the element type so the transport package's own tests can
// use it without an import cycle.
package inboxtest

import "time"

// Reader keeps the unread tail of the last batch received. A batch is
// valid only until the next receive from its channel, and Reader receives
// again only once the tail is consumed, so returned elements are safe.
type Reader[T any] struct {
	c      <-chan []T
	tail   []T
	closed bool
}

// New returns a Reader over c.
func New[T any](c <-chan []T) *Reader[T] { return &Reader[T]{c: c} }

// Next returns the next element, waiting at most d; d <= 0 polls without
// waiting. ok is false when nothing arrived in time or the channel is
// closed — Closed tells the two apart.
func (r *Reader[T]) Next(d time.Duration) (v T, ok bool) {
	if len(r.tail) == 0 && !r.closed {
		select {
		case batch, open := <-r.c:
			r.tail, r.closed = batch, !open
		default:
			if d > 0 {
				t := time.NewTimer(d)
				defer t.Stop()
				select {
				case batch, open := <-r.c:
					r.tail, r.closed = batch, !open
				case <-t.C:
				}
			}
		}
	}
	if len(r.tail) == 0 {
		return v, false
	}
	v = r.tail[0]
	r.tail = r.tail[1:]
	return v, true
}

// Closed reports whether the channel has closed with nothing left unread.
func (r *Reader[T]) Closed() bool { return r.closed && len(r.tail) == 0 }
