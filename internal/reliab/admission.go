package reliab

import "virtnet/internal/sim"

// AdmitItem is one queued unit of work awaiting execution.
type AdmitItem struct {
	Ctx Ctx
	V   interface{}
}

// AdmitQueue is a bounded FIFO admission queue with deadline-aware
// shedding: a full queue first evicts queued entries whose deadline has
// already passed (serving them would waste capacity the new arrival could
// still use), and only rejects the arrival when the queue is full of
// unexpired work. The bound is what keeps queueing delay — and therefore
// the staleness of everything the server executes — finite under overload.
type AdmitQueue struct {
	max   int
	items []AdmitItem
	m     *Metrics
}

// NewAdmitQueue returns an empty queue holding at most max items. m may be
// nil.
func NewAdmitQueue(max int, m *Metrics) *AdmitQueue {
	if max <= 0 {
		max = 1
	}
	return &AdmitQueue{max: max, m: m}
}

// Admit offers work to the queue. It returns any expired entries it
// evicted to make room (the caller NACKs their clients) and whether the
// arrival itself was admitted; ok=false is the overload signal.
func (q *AdmitQueue) Admit(now sim.Time, ctx Ctx, v interface{}) (evicted []AdmitItem, ok bool) {
	if len(q.items) >= q.max {
		kept := q.items[:0]
		for _, it := range q.items {
			if it.Ctx.Expired(now) {
				q.m.Inc("shed")
				evicted = append(evicted, it)
				continue
			}
			kept = append(kept, it)
		}
		q.items = kept
	}
	if len(q.items) >= q.max {
		return evicted, false
	}
	q.items = append(q.items, AdmitItem{Ctx: ctx, V: v})
	return evicted, true
}

// Pop removes and returns the oldest queued item. The caller re-checks the
// item's deadline at execution time — admission keeps the queue short, it
// does not promise freshness.
func (q *AdmitQueue) Pop() (AdmitItem, bool) {
	if len(q.items) == 0 {
		return AdmitItem{}, false
	}
	it := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return it, true
}

// Len reports the queue depth.
func (q *AdmitQueue) Len() int { return len(q.items) }
