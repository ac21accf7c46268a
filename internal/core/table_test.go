package core

import (
	"math/bits"
	"testing"

	"virtnet/internal/hostos"
	"virtnet/internal/nic"
	"virtnet/internal/sim"
)

// sparse makes a 512-slot endpoint on node 0 and a peer on node 1 to map.
func sparse(t *testing.T) (*hostos.Cluster, *Endpoint, *Endpoint) {
	t.Helper()
	c := newCluster(t, 2, nil)
	ep, err := Attach(c.Nodes[0]).NewEndpoint(10, 512)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := Attach(c.Nodes[1]).NewEndpoint(20, 8)
	if err != nil {
		t.Fatal(err)
	}
	return c, ep, peer
}

// TestSlotZeroIsInline: a 512-slot endpoint that maps only slot 0 makes no
// chunk, and mapping slot 0 again allocates nothing.
func TestSlotZeroIsInline(t *testing.T) {
	_, ep, peer := sparse(t)
	if avg := testing.AllocsPerRun(10, func() {
		if err := ep.Map(0, peer.Name(), 20); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Map(0) allocates %.1f times, want 0", avg)
	}
	if len(ep.trans.rest) != 0 {
		t.Fatalf("%d chunks made for a table that maps only slot 0", len(ep.trans.rest))
	}
	if !ep.TranslationValid(0) || ep.trans.at(0).name != peer.Name() || ep.Credits(0) == 0 {
		t.Fatal("slot 0 not mapped with a full window")
	}
}

// TestChunksStopAtTheHighestMappedSlot: Map(300) makes the chunks up to the
// one holding slot 300 and no further; the slots it made but did not map
// read as unmapped, and the table's capacity still bounds every index.
func TestChunksStopAtTheHighestMappedSlot(t *testing.T) {
	c, ep, peer := sparse(t)
	if err := ep.Map(300, peer.Name(), 20); err != nil {
		t.Fatal(err)
	}
	if got, want := len(ep.trans.rest), bits.Len(300); got != want {
		t.Fatalf("%d chunks after Map(300), want %d (slots 1 to 511)", got, want)
	}
	if !ep.TranslationValid(300) || ep.trans.at(300).name != peer.Name() {
		t.Fatal("slot 300 not mapped")
	}
	for _, idx := range []int{0, 1, 299, 301, 511, 512, -1} {
		if ep.TranslationValid(idx) || ep.Credits(idx) != 0 {
			t.Fatalf("slot %d reads as mapped", idx)
		}
	}
	for _, idx := range []int{512, -1} {
		if err := ep.Map(idx, peer.Name(), 20); err != ErrBadIndex {
			t.Fatalf("Map(%d) = %v, want ErrBadIndex", idx, err)
		}
	}
	var err error
	ep.b.Node.Spawn("client", func(p *sim.Proc) {
		err = ep.Request(p, 299, 1, [4]uint64{})
	})
	c.RunFor(sim.Millisecond)
	if err != ErrBadIndex {
		t.Fatalf("Request(299) = %v, want ErrBadIndex", err)
	}
}

// TestSlotsNeverMove: a slot's storage stays where it is while higher slots
// are mapped, so a *translation held across a yield stays valid.
func TestSlotsNeverMove(t *testing.T) {
	_, ep, peer := sparse(t)
	held := make([]*translation, 512)
	for idx := range held {
		if err := ep.Map(idx, peer.Name(), 20); err != nil {
			t.Fatal(err)
		}
		held[idx] = ep.trans.get(idx)
	}
	for idx, s := range held {
		if got := ep.trans.get(idx); got != s {
			t.Fatalf("slot %d moved after higher slots were mapped", idx)
		}
	}
}

// TestMigrationChargesCapacityAndSharesTheTable: the migration image
// charges the table's capacity, not the slots it stores, and the installed
// endpoint shares the source's table, so a slot mapped through the frozen
// handle reaches it.
func TestMigrationChargesCapacityAndSharesTheTable(t *testing.T) {
	c, ep, peer := sparse(t)
	if err := ep.Map(0, peer.Name(), 20); err != nil {
		t.Fatal(err)
	}
	var state *MigrationState
	var err error
	ep.b.Node.Spawn("migrate", func(p *sim.Proc) {
		ep.Freeze(p)
		if err = ep.b.Node.Driver.BeginMigration(p, ep.seg); err == nil {
			state = ep.Extract()
		}
	})
	c.RunFor(sim.Millisecond)
	if err != nil || state == nil {
		t.Fatalf("extract: %v", err)
	}
	if got, want := state.Bytes(), nic.FrameBytes+24*512+16; got != want {
		t.Fatalf("image of a 512-slot table with one slot mapped = %d bytes, want %d", got, want)
	}
	moved, err := peer.b.Install(state)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Map(7, peer.Name(), 20); err != nil {
		t.Fatal(err)
	}
	if !moved.TranslationValid(0) || !moved.TranslationValid(7) {
		t.Fatal("installed endpoint does not see the source's slots")
	}
}
