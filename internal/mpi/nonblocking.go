package mpi

import (
	"fmt"

	"virtnet/internal/coll"
	"virtnet/internal/sim"
)

// Request is a handle to a nonblocking operation.
type Request struct {
	c    *Comm
	recv bool
	// send side
	sendDone bool
	// recv side
	src, tag int
	data     []byte
	done     bool
	err      error
}

// Isend starts a nonblocking send. The eager protocol accepts the data into
// the flow-controlled send path immediately, so completion means "buffered
// and in flight"; Wait returns once every fragment has been accepted.
//
// Because the simulated threads are cooperative, the fragments are pushed
// here (possibly blocking on window space while polling, which keeps
// progress); the returned request is complete by construction, matching
// MPI's buffered-send semantics.
func (c *Comm) Isend(p *sim.Proc, dst, tag int, data []byte) (*Request, error) {
	if err := c.Send(p, dst, tag, data); err != nil {
		return nil, err
	}
	return &Request{c: c, sendDone: true, done: true}, nil
}

// Irecv posts a nonblocking receive. Matching happens against the same
// ordered per-source stream as Recv; Wait blocks until the message arrives.
func (c *Comm) Irecv(src, tag int) *Request {
	return &Request{c: c, recv: true, src: src, tag: tag}
}

// Test polls once and reports whether the request completed.
func (r *Request) Test(p *sim.Proc) bool {
	if r.done {
		return true
	}
	if r.recv {
		if m := r.c.match(r.src, r.tag); m != nil {
			r.data = m
			r.done = true
			return true
		}
		r.c.ep.Poll(p)
		if m := r.c.match(r.src, r.tag); m != nil {
			r.data = m
			r.done = true
		}
	}
	return r.done
}

// Wait blocks until the request completes and returns the received data
// (nil for sends). Its loop is not core.PollBackoff: it sleeps after a turn
// that dispatched something other than its own message, and its tick never
// resets, so the sleeps differ.
func (r *Request) Wait(p *sim.Proc) ([]byte, error) {
	wait := sim.Microsecond
	for !r.done {
		if r.Test(p) {
			break
		}
		if r.recv && r.c.w.dead[r.src] {
			return nil, fmt.Errorf("mpi: recv from rank %d: %w", r.src, ErrUnreachable)
		}
		p.Sleep(wait)
		if wait < 100*sim.Microsecond {
			wait *= 2
		}
	}
	return r.data, r.err
}

// Waitall completes every request and returns the received payloads in
// order (nil entries for sends).
func (c *Comm) Waitall(p *sim.Proc, reqs []*Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		data, err := r.Wait(p)
		if err != nil {
			return nil, fmt.Errorf("mpi: request %d: %w", i, err)
		}
		out[i] = data
	}
	return out, nil
}

// match removes and returns a completed message matching (src, tag), or nil.
func (c *Comm) match(src, tag int) []byte {
	for i, m := range c.complete {
		if m.src == src && (tag == AnyTag || m.tag == tag) {
			c.complete = append(c.complete[:i], c.complete[i+1:]...)
			if m.data == nil {
				return []byte{}
			}
			return m.data
		}
	}
	return nil
}

// ---- Additional collectives ----

// Scatter distributes bufs[i] from root to rank i; each rank returns its
// slice.
func (c *Comm) Scatter(p *sim.Proc, root int, bufs [][]byte) ([]byte, error) {
	if c.rank == root {
		for i := 0; i < c.Size(); i++ {
			if i == root {
				continue
			}
			if err := c.Send(p, i, tagScatter, bufs[i]); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), bufs[root]...), nil
	}
	return c.Recv(p, root, tagScatter)
}

// ReduceScatter combines per-rank vectors elementwise with op, then leaves
// rank i with block i of the result (blocks split as evenly as possible).
// It delegates to the collective engine's ring reduce-scatter, so each rank
// moves O(len/n) per step instead of materializing the full Allreduce.
func (c *Comm) ReduceScatter(p *sim.Proc, vec []float64, op func(a, b float64) float64) ([]float64, error) {
	return c.ReduceScatterAlg(p, vec, op, coll.Auto)
}

const tagScatter = 1<<20 + 320
