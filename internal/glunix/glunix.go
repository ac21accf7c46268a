// Package glunix is a minimal cluster operating system layer in the spirit
// of Fig. 1's GLUnix/Condor boxes: a space-sharing job scheduler that
// queues parallel jobs, gang-launches each job's processes on an allocated
// partition of nodes, and recycles nodes as jobs finish. Combined with the
// virtual network layer's adaptation of the endpoint resident set, it lets
// batch parallel jobs, services, and interactive work coexist — the
// general-purpose usage model the paper argues for.
package glunix

import (
	"errors"
	"fmt"
	"sort"

	"virtnet/internal/container"
	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// JobFn is a job's per-rank body. nodes lists the allocated partition;
// rank r runs on nodes[r].
type JobFn func(p *sim.Proc, rank int, nodes []*hostos.Node)

// Job is one submitted parallel job.
type Job struct {
	ID    int
	Width int // requested node count

	fn        JobFn
	partition []int
	remaining int
	// procs are the gang's rank threads, tracked so a node death can kill
	// the whole gang and requeue the job.
	procs []*sim.Proc
}

// Scheduler is the cluster-wide job manager. Its queue and free list are one
// master's state, touched by every rank that finishes: it is for a one-shard
// cluster (NewMonitor says so with hostos.ErrSharded).
type Scheduler struct {
	cluster *hostos.Cluster
	e       *sim.Engine // the master's clock and job wake-ups
	free    map[int]bool
	queue   container.Deque[*Job]
	nextID  int

	// busy marks nodes currently allocated to a running job.
	busy map[int]bool
	// dead marks nodes the health monitor declared failed: they are
	// unschedulable, and their death aborts and requeues any job running
	// there.
	dead map[int]bool
	// jobsOn maps an allocated node to the running job occupying it.
	jobsOn map[int]*Job

	// busyTime accumulates node-seconds of allocation for utilization.
	busyTime   sim.Duration
	lastChange sim.Time
	allocated  int

	// Completed counts finished jobs.
	Completed int
	// Requeued counts gang restarts caused by node death.
	Requeued int
}

// ErrTooWide is returned when a job requests more nodes than exist.
var ErrTooWide = errors.New("glunix: job wider than the cluster")

// NewScheduler manages all nodes of the cluster.
func NewScheduler(c *hostos.Cluster) *Scheduler {
	s := &Scheduler{
		cluster: c,
		e:       c.ShardEngine(0),
		free:    make(map[int]bool),
		busy:    make(map[int]bool),
		dead:    make(map[int]bool),
		jobsOn:  make(map[int]*Job),
	}
	for i := range c.Nodes {
		s.free[i] = true
	}
	return s
}

// Utilization returns mean allocated-node fraction over [0, now].
func (s *Scheduler) Utilization() float64 {
	now := s.e.Now()
	if now == 0 {
		return 0
	}
	busy := s.busyTime + sim.Duration(s.allocated)*now.Sub(s.lastChange)
	return float64(busy) / float64(sim.Duration(len(s.cluster.Nodes))*sim.Duration(now))
}

func (s *Scheduler) account() {
	now := s.e.Now()
	s.busyTime += sim.Duration(s.allocated) * now.Sub(s.lastChange)
	s.lastChange = now
}

// Submit enqueues a parallel job of the given width and attempts dispatch.
func (s *Scheduler) Submit(width int, fn JobFn) error {
	if width > len(s.cluster.Nodes) {
		return ErrTooWide
	}
	if width <= 0 {
		return errors.New("glunix: job width must be positive")
	}
	s.nextID++
	j := &Job{
		ID:    s.nextID,
		Width: width,
		fn:    fn,
	}
	s.queue.Push(j)
	s.dispatch()
	return nil
}

// dispatch launches queued jobs in FIFO order while partitions fit. FIFO
// (no backfilling) keeps wide jobs from starving.
func (s *Scheduler) dispatch() {
	for {
		j, ok := s.queue.Peek()
		if !ok || len(s.free) < j.Width {
			return
		}
		s.queue.Pop()
		s.launch(j)
	}
}

// launch allocates the lowest-numbered free nodes and gang-starts the job's
// ranks at the same virtual instant.
func (s *Scheduler) launch(j *Job) {
	var ids []int
	for id := range s.free {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	ids = ids[:j.Width]
	for _, id := range ids {
		delete(s.free, id)
		s.busy[id] = true
	}
	s.account()
	s.allocated += j.Width

	j.partition = ids
	j.remaining = j.Width

	nodes := make([]*hostos.Node, j.Width)
	for r, id := range ids {
		nodes[r] = s.cluster.Nodes[id]
	}
	for _, id := range ids {
		s.jobsOn[id] = j
	}
	j.procs = nil
	for r := range ids {
		r := r
		pr := nodes[r].Spawn(fmt.Sprintf("job%d.r%d", j.ID, r), func(p *sim.Proc) {
			j.fn(p, r, nodes)
			j.remaining--
			if j.remaining == 0 {
				s.finish(j)
			}
		})
		j.procs = append(j.procs, pr)
	}
}

// finish releases the partition and dispatches waiting jobs.
func (s *Scheduler) finish(j *Job) {
	s.release(j)
	s.Completed++
	s.dispatch()
}

// release hands j's partition back: its live nodes become free again.
func (s *Scheduler) release(j *Job) {
	j.procs = nil
	s.account()
	s.allocated -= j.Width
	for _, id := range j.partition {
		delete(s.busy, id)
		delete(s.jobsOn, id)
		if !s.dead[id] {
			s.free[id] = true
		}
	}
}

// NodeDead removes a failed node from scheduling. A batch job cannot survive
// the loss of a rank, so any job running on the node is aborted — its
// surviving gang members are killed — and requeued at the head of the FIFO
// queue to relaunch on live nodes. The health monitor calls this when a
// node's heartbeats stop.
func (s *Scheduler) NodeDead(id int) {
	if id < 0 || id >= len(s.cluster.Nodes) || s.dead[id] {
		return
	}
	s.dead[id] = true
	delete(s.free, id)
	if j := s.jobsOn[id]; j != nil {
		s.requeue(j)
	}
	s.dispatch()
}

// requeue aborts a running job and puts it back at the head of the queue.
func (s *Scheduler) requeue(j *Job) {
	for _, pr := range j.procs {
		pr.Kill() // ranks on the dead node are already gone; no-op there
	}
	s.release(j)
	j.partition = nil
	j.remaining = 0
	s.Requeued++
	s.queue.PushFront(j)
}

// Drain advances the cluster until all submitted jobs finish or maxTime
// passes; it reports whether everything completed.
func (s *Scheduler) Drain(maxTime sim.Duration) bool {
	return s.cluster.RunUntilDone(sim.Millisecond, s.cluster.Now().Add(maxTime), func() bool {
		return s.queue.Len() == 0 && s.allocated == 0
	})
}
