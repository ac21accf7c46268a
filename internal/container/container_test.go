package container

import (
	"math/rand"
	"testing"
)

// TestChunksNeverMove: At makes the chunks up to the one holding its index
// and no further, Get makes nothing, and an element keeps its address while
// higher indices are made.
func TestChunksNeverMove(t *testing.T) {
	var s Chunks[int]
	if s.Get(1) != nil {
		t.Fatal("Get made storage")
	}
	held := make([]*int, 100)
	for i := 1; i < len(held); i++ {
		held[i] = s.At(i, len(held))
		*held[i] = i
	}
	if len(s) != 7 { // chunk 6 holds [64, 128)
		t.Fatalf("%d chunks for indices 1–99, want 7", len(s))
	}
	if s.Get(127) == nil || s.Get(128) != nil {
		t.Fatal("Get disagrees with the chunks made")
	}
	for i := 1; i < len(held); i++ {
		if s.Get(i) != held[i] || *held[i] != i {
			t.Fatalf("element %d moved or changed", i)
		}
	}
}

// TestChunksReserveTheOuterSliceOnce: filling indices 1–31 of a 32-index
// owner costs its five chunks and one outer slice, not one outer slice per
// growth; an owner that never calls At allocates nothing; and an index past
// the bound still works, growing the outer slice as append does.
func TestChunksReserveTheOuterSliceOnce(t *testing.T) {
	if avg := testing.AllocsPerRun(20, func() {
		var s Chunks[[3]int64]
		for i := 1; i < 32; i++ {
			s.At(i, 32)[0] = int64(i)
		}
		if len(s) != 5 || cap(s) != 5 {
			t.Fatalf("%d chunks, outer capacity %d; want 5 and 5", len(s), cap(s))
		}
	}); avg != 6 {
		t.Fatalf("indices 1–31 of 32 cost %.1f allocations, want 6 (5 chunks + 1 outer)", avg)
	}
	var s Chunks[int]
	if s.Get(1) != nil || s != nil {
		t.Fatal("an unused Chunks holds storage")
	}
	*s.At(1, 2) = 1
	*s.At(40, 2) = 40
	if len(s) != 6 || *s.Get(1) != 1 || *s.Get(40) != 40 {
		t.Fatalf("%d chunks after indices 1 and 40 of a 2-bound owner", len(s))
	}
}

// TestDequeIsFIFO runs random pushes, front pushes, pops and resets against
// a slice model, across growth and wrap-around, and checks that a warm deque
// cycles without allocating.
func TestDequeIsFIFO(t *testing.T) {
	var d Deque[int]
	var model []int
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		switch k := r.Intn(10); {
		case k < 5:
			d.Push(step)
			model = append(model, step)
		case k < 6:
			d.PushFront(step)
			model = append([]int{step}, model...)
		case k < 9:
			v, ok := d.Pop()
			if ok != (len(model) > 0) {
				t.Fatalf("step %d: Pop ok = %v with %d queued", step, ok, len(model))
			}
			if ok {
				if v != model[0] {
					t.Fatalf("step %d: popped %d, want %d", step, v, model[0])
				}
				model = model[1:]
			}
		default:
			if r.Intn(50) == 0 {
				d.Reset()
				model = model[:0]
			}
		}
		if d.Len() != len(model) {
			t.Fatalf("step %d: Len %d, want %d", step, d.Len(), len(model))
		}
	}
	d.Reset()
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			d.Push(i)
		}
		for d.Len() > 0 {
			d.Pop()
		}
	}); avg != 0 {
		t.Fatalf("a warm deque allocates %.1f times per cycle, want 0", avg)
	}
}
