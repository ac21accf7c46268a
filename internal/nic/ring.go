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
