// Package container holds the two stores the stack shares: Chunks,
// per-index state made on first use whose elements never move, and Deque,
// the one FIFO type, whose storage is reused once warm. Chunks sizes state
// by what is used rather than by a capacity; a Deque grows on demand or is
// reserved once at a depth its owner bounds (the NI's endpoint queues). Both
// exist so that steady-state traffic allocates nothing.
package container

import "math/bits"

// Chunks holds state for indices 1, 2, …: chunk c holds indices
// [2^c, 2^(c+1)) and is made the first time one of them is used. Index 0
// has no chunk — an owner keeps it inline, next to the Chunks. An element
// never moves, so a pointer to it stays valid for as long as its owner
// does, and memory grows with the highest index in use. The zero value
// holds nothing.
type Chunks[T any] [][]T

// At returns element i, 1 ≤ i < n, making its chunk (and any before it) if
// needed. n is the owner's bound on its indices: the first At reserves the
// outer slice for every chunk below n, so it is allocated once.
func (s *Chunks[T]) At(i, n int) *T {
	c := bits.Len(uint(i)) - 1
	if *s == nil {
		*s = make([][]T, 0, bits.Len(uint(n-1)))
	}
	for len(*s) <= c {
		*s = append(*s, make([]T, 1<<len(*s)))
	}
	return &(*s)[c][i-1<<c]
}

// Get returns element i ≥ 1, or nil if its chunk was never made.
func (s Chunks[T]) Get(i int) *T {
	c := bits.Len(uint(i)) - 1
	if c >= len(s) {
		return nil
	}
	return &s[c][i-1<<c]
}

// Deque is a growable FIFO. Unlike append/reslice on a plain slice — which
// reallocates every time the consumed head catches up with capacity — the
// circular buffer is reused indefinitely once warm, so steady-state queue
// traffic allocates nothing. The zero value is an empty deque. A Deque has
// no bound of its own: an owner with a protocol depth checks Len against it
// before pushing.
type Deque[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// Reserve makes room for n elements, so that the deque holds up to n
// without allocating again. It never shrinks the buffer.
func (d *Deque[T]) Reserve(n int) {
	if n <= len(d.buf) {
		return
	}
	nb := make([]T, n)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = nb, 0
}

// Push appends v at the tail.
func (d *Deque[T]) Push(v T) {
	if d.n == len(d.buf) {
		d.Reserve(max(8, 2*d.n))
	}
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// PushFront prepends v, so a requeued element keeps its place in FIFO order.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.Reserve(max(8, 2*d.n))
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
	d.n++
}

// Peek returns the head element without removing it.
func (d *Deque[T]) Peek() (T, bool) {
	if d.n == 0 {
		var zero T
		return zero, false
	}
	return d.buf[d.head], true
}

// Pop removes and returns the head element, zeroing its slot so the deque
// does not pin popped values.
func (d *Deque[T]) Pop() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	v := d.buf[d.head]
	d.buf[d.head] = zero
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return v, true
}

// Reset discards all queued elements, keeping the buffer for reuse.
func (d *Deque[T]) Reset() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)%len(d.buf)] = zero
	}
	d.head, d.n = 0, 0
}
