package mpi

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

func newWorld(t *testing.T, n int) *World {
	t.Helper()
	c := hostos.NewCluster(1, n, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	w, err := NewWorld(c, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvSmall(t *testing.T) {
	w := newWorld(t, 2)
	var got []byte
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			if err := c.Send(p, 1, 5, []byte("hello")); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			b, err := c.Recv(p, 0, 5)
			if err != nil {
				t.Errorf("recv: %v", err)
			}
			got = b
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("ranks did not complete")
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestSendRecvLargeFragmented(t *testing.T) {
	w := newWorld(t, 2)
	const n = 100_000 // ~13 fragments at 8 KB MTU
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 31)
	}
	var got []byte
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 1, src)
		} else {
			got, _ = c.Recv(p, 0, 1)
		}
	}, 10*sim.Second)
	if !ok {
		t.Fatal("ranks did not complete")
	}
	if !bytes.Equal(got, src) {
		t.Fatal("large message corrupted by fragmentation")
	}
}

func TestZeroLengthMessage(t *testing.T) {
	w := newWorld(t, 2)
	gotNil := true
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 9, nil)
		} else {
			b, err := c.Recv(p, 0, 9)
			if err != nil || b == nil {
				return
			}
			gotNil = false
		}
	}, 5*sim.Second)
	if !ok || gotNil {
		t.Fatal("zero-length message not delivered as empty slice")
	}
}

func TestTagMatching(t *testing.T) {
	w := newWorld(t, 2)
	var first, second []byte
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		if c.Rank() == 0 {
			c.Send(p, 1, 7, []byte("seven"))
			c.Send(p, 1, 3, []byte("three"))
		} else {
			// Receive out of order by tag.
			second, _ = c.Recv(p, 0, 3)
			first, _ = c.Recv(p, 0, 7)
		}
	}, 5*sim.Second)
	if !ok {
		t.Fatal("did not complete")
	}
	if string(first) != "seven" || string(second) != "three" {
		t.Fatalf("tag matching broken: %q %q", first, second)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		w := newWorld(t, n)
		var times []sim.Time
		ok := w.Run(func(p *sim.Proc, c *Comm) {
			// Stagger arrivals; everyone must leave after the last arrival.
			p.Sleep(sim.Duration(c.Rank()) * sim.Millisecond)
			c.Barrier(p)
			times = append(times, p.Now())
		}, 10*sim.Second)
		if !ok {
			t.Fatalf("n=%d: barrier deadlocked", n)
		}
		last := sim.Time((n - 1)) * sim.Time(sim.Millisecond)
		for _, tm := range times {
			if tm < last {
				t.Fatalf("n=%d: a rank left the barrier at %v before last arrival %v", n, tm, last)
			}
		}
	}
}

func TestBcast(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		w := newWorld(t, n)
		data := []byte("broadcast-payload")
		results := make([][]byte, n)
		ok := w.Run(func(p *sim.Proc, c *Comm) {
			var in []byte
			if c.Rank() == 2%n {
				in = data
			}
			out, err := c.Bcast(p, 2%n, in)
			if err != nil {
				t.Errorf("bcast: %v", err)
			}
			results[c.Rank()] = out
		}, 10*sim.Second)
		if !ok {
			t.Fatalf("n=%d: bcast hung", n)
		}
		for r, b := range results {
			if !bytes.Equal(b, data) {
				t.Fatalf("n=%d rank %d got %q", n, r, b)
			}
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{2, 3, 6} {
		w := newWorld(t, n)
		results := make([][]float64, n)
		ok := w.Run(func(p *sim.Proc, c *Comm) {
			vec := []float64{float64(c.Rank()), 1}
			out, err := c.Allreduce(p, vec, OpSum)
			if err != nil {
				t.Errorf("allreduce: %v", err)
			}
			results[c.Rank()] = out
		}, 10*sim.Second)
		if !ok {
			t.Fatalf("n=%d hung", n)
		}
		wantSum := float64(n*(n-1)) / 2
		for r, v := range results {
			if v[0] != wantSum || v[1] != float64(n) {
				t.Fatalf("n=%d rank %d: %v, want [%v %v]", n, r, v, wantSum, n)
			}
		}
	}
}

func TestAlltoall(t *testing.T) {
	const n = 4
	w := newWorld(t, n)
	results := make([][][]byte, n)
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		bufs := make([][]byte, n)
		for j := 0; j < n; j++ {
			bufs[j] = []byte{byte(c.Rank()), byte(j)}
		}
		out, err := c.Alltoall(p, bufs)
		if err != nil {
			t.Errorf("alltoall: %v", err)
		}
		results[c.Rank()] = out
	}, 10*sim.Second)
	if !ok {
		t.Fatal("alltoall hung")
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := results[i][j]
			if len(got) != 2 || got[0] != byte(j) || got[1] != byte(i) {
				t.Fatalf("rank %d slot %d = %v", i, j, got)
			}
		}
	}
}

func TestGather(t *testing.T) {
	const n = 5
	w := newWorld(t, n)
	var out [][]byte
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		res, err := c.Gather(p, 0, []byte{byte(c.Rank() * 3)})
		if err != nil {
			t.Errorf("gather: %v", err)
		}
		if c.Rank() == 0 {
			out = res
		}
	}, 10*sim.Second)
	if !ok {
		t.Fatal("gather hung")
	}
	for i := 0; i < n; i++ {
		if len(out[i]) != 1 || out[i][0] != byte(i*3) {
			t.Fatalf("slot %d = %v", i, out[i])
		}
	}
}

// TestRecvFromClosedRank: outside any collective, a send to a rank whose
// endpoint is gone comes back NackNoEndpoint, which declares the rank dead,
// and a plain Recv from it then fails with ErrUnreachable instead of waiting
// forever.
func TestRecvFromClosedRank(t *testing.T) {
	w := newWorld(t, 2)
	var recvErr error
	ok := w.Run(func(p *sim.Proc, c *Comm) {
		if c.Rank() == 1 {
			_, err := c.Recv(p, 0, 1)
			if err == nil {
				err = c.Send(p, 0, 1, []byte("pong"))
			}
			if err != nil {
				t.Errorf("rank 1 exchange: %v", err)
			}
			p.Sleep(sim.Millisecond) // let the pong's acknowledgement land
			c.ep.Bundle().Close(p)
			return
		}
		err := c.Send(p, 1, 1, []byte("ping"))
		if err == nil {
			_, err = c.Recv(p, 1, 1)
		}
		if err != nil {
			t.Errorf("rank 0 exchange: %v", err)
		}
		p.Sleep(2 * sim.Millisecond) // rank 1 has closed by now
		if err := c.Send(p, 1, 2, []byte("gone")); err != nil {
			t.Errorf("rank 0 send to the closed rank: %v", err)
		}
		_, recvErr = c.Recv(p, 1, 3)
	}, sim.Second)
	if !ok {
		t.Fatal("ranks did not complete: Recv from the closed rank hung")
	}
	if !errors.Is(recvErr, ErrUnreachable) {
		t.Fatalf("Recv from the closed rank: err = %v, want ErrUnreachable", recvErr)
	}
	if got := w.DeadRanks(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DeadRanks() = %v, want [1]", got)
	}
}

func TestPlacementOnSubsetOfNodes(t *testing.T) {
	c := hostos.NewCluster(1, 8, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	// 4 ranks on nodes 4..7.
	w, err := NewWorld(c, 4, []int{4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	ok := w.Run(func(p *sim.Proc, cm *Comm) {
		out, _ := cm.Allreduce(p, []float64{1}, OpSum)
		sum = int(out[0])
	}, 10*sim.Second)
	if !ok || sum != 4 {
		t.Fatalf("subset placement broken: ok=%v sum=%d", ok, sum)
	}
}

// Property: messages between a pair preserve order per tag and content for
// random sizes.
func TestOrderAndContentProperty(t *testing.T) {
	f := func(sizes8 []uint16) bool {
		if len(sizes8) == 0 {
			return true
		}
		if len(sizes8) > 10 {
			sizes8 = sizes8[:10]
		}
		c := hostos.NewCluster(7, 2, hostos.DefaultClusterConfig())
		defer c.Shutdown()
		w, err := NewWorld(c, 2, nil)
		if err != nil {
			return false
		}
		okAll := true
		done := w.Run(func(p *sim.Proc, cm *Comm) {
			if cm.Rank() == 0 {
				for i, s := range sizes8 {
					buf := make([]byte, int(s)%5000)
					for j := range buf {
						buf[j] = byte(i)
					}
					cm.Send(p, 1, 4, buf)
				}
			} else {
				for i, s := range sizes8 {
					buf, err := cm.Recv(p, 0, 4)
					if err != nil || len(buf) != int(s)%5000 {
						okAll = false
						return
					}
					for _, b := range buf {
						if b != byte(i) {
							okAll = false
							return
						}
					}
				}
			}
		}, 20*sim.Second)
		return done && okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
