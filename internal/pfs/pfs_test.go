package pfs

import (
	"bytes"
	"testing"
	"testing/quick"

	"virtnet/internal/hostos"
	"virtnet/internal/sim"
)

// runUntil advances the cluster until *done or the simulated deadline.
func runUntil(c *hostos.Cluster, done *bool, max sim.Duration) {
	c.RunUntilDone(10*sim.Millisecond, c.Now().Add(max), func() bool { return *done })
}

// rig deploys servers on the first k nodes and returns the cluster + fs.
func rig(t *testing.T, nodes, servers, stripe int) (*hostos.Cluster, *FS) {
	t.Helper()
	c := hostos.NewCluster(1, nodes, hostos.DefaultClusterConfig())
	t.Cleanup(c.Shutdown)
	var sn []*hostos.Node
	for i := 0; i < servers; i++ {
		sn = append(sn, c.Nodes[i])
	}
	fs, err := New(sn, stripe)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Stop)
	return c, fs
}

func TestWriteReadRoundTripAcrossStripes(t *testing.T) {
	c, fs := rig(t, 5, 4, 4096)
	data := make([]byte, 40_000) // ~10 stripes over 4 servers
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	var got []byte
	var size int
	ok := false
	c.Nodes[4].Spawn("app", func(p *sim.Proc) {
		cl, err := fs.NewClient(c.Nodes[4])
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		if err := cl.Create(p, "f"); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := cl.WriteAt(p, "f", 0, data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err = cl.ReadAt(p, "f", 0, len(data))
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		size, _ = cl.Size(p, "f")
		ok = true
	})
	runUntil(c, &ok, 10*sim.Second)
	if !ok {
		t.Fatal("app did not complete")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped data corrupted")
	}
	if size != len(data) {
		t.Fatalf("size = %d, want %d", size, len(data))
	}
}

func TestUnalignedWritesAndHoles(t *testing.T) {
	c, fs := rig(t, 3, 2, 1024)
	var got []byte
	done := false
	c.Nodes[2].Spawn("app", func(p *sim.Proc) {
		cl, _ := fs.NewClient(c.Nodes[2])
		cl.Create(p, "g")
		// Write in the middle of stripe 3, leaving holes before it.
		cl.WriteAt(p, "g", 3500, []byte("HOLE-TEST"))
		b, err := cl.ReadAt(p, "g", 3490, 30)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		got = b
		done = true
	})
	runUntil(c, &done, 5*sim.Second)
	if !done {
		t.Fatal("did not complete")
	}
	want := append(bytes.Repeat([]byte{0}, 10), []byte("HOLE-TEST")...)
	want = append(want, bytes.Repeat([]byte{0}, 11)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestCreateExistsAndDelete(t *testing.T) {
	c, fs := rig(t, 2, 1, 0)
	var second, readAfterDelete error
	done := false
	c.Nodes[1].Spawn("app", func(p *sim.Proc) {
		cl, _ := fs.NewClient(c.Nodes[1])
		if err := cl.Create(p, "x"); err != nil {
			t.Errorf("create: %v", err)
		}
		second = cl.Create(p, "x")
		cl.Delete(p, "x")
		_, readAfterDelete = cl.ReadAt(p, "x", 0, 1)
		done = true
	})
	runUntil(c, &done, 5*sim.Second)
	if !done {
		t.Fatal("did not complete")
	}
	if second == nil {
		t.Fatal("double create succeeded")
	}
	if readAfterDelete == nil {
		t.Fatal("read after delete succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	c, fs := rig(t, 6, 2, 2048)
	const writers = 3
	finished := 0
	c.Nodes[5].Spawn("setup", func(p *sim.Proc) {
		cl, _ := fs.NewClient(c.Nodes[5])
		cl.Create(p, "shared")
		for i := 0; i < writers; i++ {
			i := i
			c.Nodes[2+i].Spawn("writer", func(q *sim.Proc) {
				wcl, _ := fs.NewClient(c.Nodes[2+i])
				region := bytes.Repeat([]byte{byte(i + 1)}, 5000)
				if err := wcl.WriteAt(q, "shared", i*5000, region); err != nil {
					t.Errorf("writer %d: %v", i, err)
					return
				}
				finished++
			})
		}
	})
	for step := 0; finished < writers && step < 1000; step++ {
		c.RunFor(10 * sim.Millisecond)
	}
	if finished != writers {
		t.Fatalf("finished = %d", finished)
	}
	// Verify all regions from a fresh client.
	verified := false
	c.Nodes[5].Spawn("verify", func(p *sim.Proc) {
		cl, _ := fs.NewClient(c.Nodes[5])
		all, err := cl.ReadAt(p, "shared", 0, writers*5000)
		if err != nil {
			t.Errorf("verify read: %v", err)
			return
		}
		for i := 0; i < writers; i++ {
			for j := 0; j < 5000; j++ {
				if all[i*5000+j] != byte(i+1) {
					t.Errorf("region %d byte %d = %d", i, j, all[i*5000+j])
					return
				}
			}
		}
		verified = true
	})
	runUntil(c, &verified, 10*sim.Second)
	if !verified {
		t.Fatal("verification did not complete")
	}
}

// Property: write-then-read at arbitrary offsets and lengths round-trips,
// regardless of stripe alignment.
func TestStripeRoundTripProperty(t *testing.T) {
	f := func(off16, len16 uint16, stripe8 uint8) bool {
		off := int(off16) % 20000
		n := int(len16)%6000 + 1
		stripe := (int(stripe8)%8 + 1) * 512
		c := hostos.NewCluster(3, 4, hostos.DefaultClusterConfig())
		defer c.Shutdown()
		fs, err := New([]*hostos.Node{c.Nodes[0], c.Nodes[1], c.Nodes[2]}, stripe)
		if err != nil {
			return false
		}
		defer fs.Stop()
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i ^ off)
		}
		okResult := false
		c.Nodes[3].Spawn("app", func(p *sim.Proc) {
			cl, _ := fs.NewClient(c.Nodes[3])
			cl.Create(p, "p")
			if err := cl.WriteAt(p, "p", off, data); err != nil {
				return
			}
			got, err := cl.ReadAt(p, "p", off, n)
			if err != nil {
				return
			}
			okResult = bytes.Equal(got, data)
		})
		deadline := c.Now().Add(20 * sim.Second)
		for !okResult && c.Now() < deadline {
			c.RunFor(10 * sim.Millisecond)
		}
		return okResult
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestStripePlacementMath(t *testing.T) {
	c, fs := rig(t, 4, 3, 1000)
	cl, err := fs.NewClient(c.Nodes[3])
	if err != nil {
		t.Fatal(err)
	}
	// Stripe s -> server s%3, local (s/3)*1000 + intra.
	cases := []struct{ off, srv, local, remain int }{
		{0, 0, 0, 1000},
		{999, 0, 999, 1},
		{1000, 1, 0, 1000},
		{2500, 2, 500, 500},
		{3000, 0, 1000, 1000},
		{7250, 1, 2250, 750},
	}
	for _, tc := range cases {
		srv, local, remain := cl.stripeOf(tc.off)
		if srv != tc.srv || local != tc.local || remain != tc.remain {
			t.Fatalf("stripeOf(%d) = (%d,%d,%d), want (%d,%d,%d)",
				tc.off, srv, local, remain, tc.srv, tc.local, tc.remain)
		}
	}
}
