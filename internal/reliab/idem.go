package reliab

// IdemKey identifies one idempotent operation: the client's identity plus
// its per-operation key, so keys from different clients never collide.
type IdemKey struct {
	Client uint64
	Key    uint64
}

// IdemCache remembers the results of recently served idempotency-keyed
// calls, so a retry of an already-executed call returns the recorded
// result instead of running the handler again — the exactly-once story
// for effects under at-least-once delivery. Bounded, FIFO-evicted; values
// are held as V, unboxed, and the eviction order is a ring that grows to
// max once and is overwritten in place after that.
type IdemCache[V any] struct {
	max  int
	vals map[IdemKey]V
	fifo []IdemKey // insertion order; once full, fifo[head] is the oldest
	head int
	m    *Metrics
}

// NewIdemCache returns a cache holding at most max results. m may be nil.
func NewIdemCache[V any](max int, m *Metrics) *IdemCache[V] {
	if max <= 0 {
		max = 1
	}
	return &IdemCache[V]{max: max, vals: make(map[IdemKey]V), m: m}
}

// Get returns the cached result for k, if present.
func (c *IdemCache[V]) Get(k IdemKey) (V, bool) {
	v, ok := c.vals[k]
	if ok {
		c.m.Inc("idem_hits")
	}
	return v, ok
}

// Put records the result of an executed call, evicting the oldest entry
// when full.
func (c *IdemCache[V]) Put(k IdemKey, v V) {
	if _, ok := c.vals[k]; ok {
		c.vals[k] = v
		return
	}
	if len(c.fifo) < c.max {
		c.fifo = append(c.fifo, k)
	} else {
		delete(c.vals, c.fifo[c.head])
		c.fifo[c.head] = k
		if c.head++; c.head == c.max {
			c.head = 0
		}
	}
	c.vals[k] = v
}
