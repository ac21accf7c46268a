package mpi

import (
	"fmt"
	"testing"

	"virtnet/internal/sim"
)

// TestCollectiveInstants pins when Barrier, Bcast and Reduce complete — the
// instant the last rank returns and the sum over ranks — at awkward world
// sizes, captured from the schedules mpi shipped before it delegated them to
// internal/coll. 13 ranks span three leaves and 20,000 bytes is a large
// message, so the rows also pin that Bcast is the binomial tree whatever the
// size or leaf span.
func TestCollectiveInstants(t *testing.T) {
	want := []struct {
		n         int
		op        string
		last, sum sim.Time
	}{
		{2, "barrier", 806400, 1612800},
		{2, "bcast-64", 1676000, 1705500},
		{2, "bcast-20000", 2342500, 2431000},
		{2, "reduce-16", 1676000, 1705500},
		{2, "reduce-1000", 2063100, 2092600},
		{5, "barrier", 867800, 4339000},
		{5, "bcast-64", 2704600, 8853100},
		{5, "bcast-20000", 5293400, 16600600},
		{5, "reduce-16", 1817200, 3586200},
		{5, "reduce-1000", 2544700, 4700800},
		{8, "barrier", 867800, 6942400},
		{8, "bcast-64", 3729900, 18387300},
		{8, "bcast-20000", 5550000, 31441800},
		{8, "reduce-16", 1898800, 7233000},
		{8, "reduce-1000", 2868900, 9592600},
		{13, "barrier", 898500, 11680500},
		{13, "bcast-64", 3858200, 35546900},
		{13, "bcast-20000", 6833000, 65351300},
		{13, "reduce-16", 2034100, 11327600},
		{13, "reduce-1000", 3142400, 14507400},
	}
	for _, tc := range want {
		t.Run(fmt.Sprintf("%s/n=%d", tc.op, tc.n), func(t *testing.T) {
			w := newWorld(t, tc.n)
			var last, sum sim.Time
			ok := w.Run(func(p *sim.Proc, c *Comm) {
				var err error
				switch tc.op {
				case "barrier":
					err = c.Barrier(p)
				case "bcast-64":
					_, err = c.Bcast(p, 1, make([]byte, 64))
				case "bcast-20000":
					_, err = c.Bcast(p, 1, make([]byte, 20000))
				case "reduce-16":
					_, err = c.Reduce(p, 1, make([]float64, 16), OpSum)
				case "reduce-1000":
					_, err = c.Reduce(p, 1, make([]float64, 1000), OpSum)
				}
				if err != nil {
					t.Errorf("rank %d: %v", c.Rank(), err)
				}
				sum += p.Now()
				last = max(last, p.Now())
			}, 5*sim.Second)
			if !ok {
				t.Fatal("ranks did not complete")
			}
			if last != tc.last || sum != tc.sum {
				t.Errorf("last rank returned at %d (sum over ranks %d), want %d (%d)",
					int64(last), int64(sum), int64(tc.last), int64(tc.sum))
			}
		})
	}
}
