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
// for effects under at-least-once delivery. Bounded, FIFO-evicted.
type IdemCache struct {
	max  int
	vals map[IdemKey]interface{}
	fifo []IdemKey
	m    *Metrics
}

// NewIdemCache returns a cache holding at most max results. m may be nil.
func NewIdemCache(max int, m *Metrics) *IdemCache {
	if max <= 0 {
		max = 1
	}
	return &IdemCache{max: max, vals: make(map[IdemKey]interface{}), m: m}
}

// Get returns the cached result for k, if present.
func (c *IdemCache) Get(k IdemKey) (interface{}, bool) {
	v, ok := c.vals[k]
	if ok {
		c.m.Inc("idem_hits")
	}
	return v, ok
}

// Put records the result of an executed call, evicting the oldest entry
// when full.
func (c *IdemCache) Put(k IdemKey, v interface{}) {
	if _, ok := c.vals[k]; ok {
		c.vals[k] = v
		return
	}
	if len(c.fifo) >= c.max {
		delete(c.vals, c.fifo[0])
		c.fifo = c.fifo[1:]
	}
	c.vals[k] = v
	c.fifo = append(c.fifo, k)
}
