package reliab

import (
	"virtnet/internal/container"
	"virtnet/internal/sim"
)

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
	items container.Deque[AdmitItem]
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
	if q.items.Len() >= q.max {
		// One pass around the queue: expired entries leave, the rest go
		// back to the tail in arrival order.
		for range q.items.Len() {
			it, _ := q.items.Pop()
			if it.Ctx.Expired(now) {
				q.m.Inc("shed")
				evicted = append(evicted, it)
				continue
			}
			q.items.Push(it)
		}
	}
	if q.items.Len() >= q.max {
		return evicted, false
	}
	q.items.Push(AdmitItem{Ctx: ctx, V: v})
	return evicted, true
}

// Pop removes and returns the oldest queued item. The caller re-checks the
// item's deadline at execution time — admission keeps the queue short, it
// does not promise freshness.
func (q *AdmitQueue) Pop() (AdmitItem, bool) { return q.items.Pop() }

// Len reports the queue depth.
func (q *AdmitQueue) Len() int { return q.items.Len() }
