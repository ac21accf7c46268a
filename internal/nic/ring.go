package nic

// ring is a fixed-capacity FIFO queue. Endpoint message queues are rings of
// fixed depth, exactly as the LANai endpoint frames held fixed arrays of
// message descriptors.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) Len() int   { return r.n }
func (r *ring[T]) Full() bool { return r.n == len(r.buf) }

// Push appends v; it reports false when the ring is full.
func (r *ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return true
}

// PushFront prepends v (used to requeue a NACKed message so FIFO order is
// preserved); it reports false when the ring is full.
func (r *ring[T]) PushFront(v T) bool {
	if r.Full() {
		return false
	}
	r.head = (r.head - 1 + len(r.buf)) % len(r.buf)
	r.buf[r.head] = v
	r.n++
	return true
}

// Peek returns the head element without removing it.
func (r *ring[T]) Peek() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	return r.buf[r.head], true
}

// Pop removes and returns the head element, or the zero value when the
// ring is empty.
func (r *ring[T]) Pop() T {
	var zero T
	if r.n == 0 {
		return zero
	}
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// deque is a growable FIFO for the NI's unbounded software queues (arrival
// staging, deferred work, driver commands). Unlike append/reslice on a plain
// slice — which reallocates every time the consumed head catches up with
// capacity — the circular buffer is reused indefinitely once warm, so
// steady-state queue traffic allocates nothing. The zero value is an empty
// deque.
type deque[T any] struct {
	buf  []T
	head int
	n    int
}

func (d *deque[T]) Len() int { return d.n }

func (d *deque[T]) grow() {
	c := len(d.buf) * 2
	if c == 0 {
		c = 8
	}
	nb := make([]T, c)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = nb, 0
}

// Push appends v at the tail.
func (d *deque[T]) Push(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = v
	d.n++
}

// PushFront prepends v (used to requeue an interrupted driver command).
func (d *deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1 + len(d.buf)) % len(d.buf)
	d.buf[d.head] = v
	d.n++
}

// Pop removes and returns the head element, zeroing its slot so the deque
// does not pin popped values.
func (d *deque[T]) Pop() (T, bool) {
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
func (d *deque[T]) Reset() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)%len(d.buf)] = zero
	}
	d.head, d.n = 0, 0
}
