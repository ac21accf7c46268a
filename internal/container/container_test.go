package container

import (
	"math/rand"
	"testing"
	"testing/quick"
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

// TestDequeBasics walks one reserved deque through Push, Peek, Pop and
// PushFront, past its reservation, and pops the zero value when empty.
func TestDequeBasics(t *testing.T) {
	var d Deque[int]
	d.Reserve(3)
	if _, ok := d.Peek(); ok || d.Len() != 0 {
		t.Fatal("a reserved deque is not empty")
	}
	for i := 1; i <= 4; i++ { // the fourth outgrows the reservation
		d.Push(i)
	}
	if v, ok := d.Peek(); !ok || v != 1 || d.Len() != 4 {
		t.Fatalf("peek = %d, %v with %d queued; want 1 of 4", v, ok, d.Len())
	}
	if v, _ := d.Pop(); v != 1 {
		t.Fatalf("pop = %d, want 1", v)
	}
	d.PushFront(0)
	for _, w := range []int{0, 2, 3, 4} {
		if v, _ := d.Pop(); v != w {
			t.Fatalf("pop = %d, want %d", v, w)
		}
	}
	if v, ok := d.Pop(); ok || v != 0 || d.Len() != 0 {
		t.Fatalf("pop from empty = %d, %v; want the zero value and false", v, ok)
	}
}

// TestDequeProperty: a deque reserved at 8 behaves like a slice model under
// any mix of Push, PushFront, Pop and Peek, within the reservation and past
// it.
func TestDequeProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var d Deque[int]
		d.Reserve(8)
		var model []int
		for next, op := range ops {
			switch op % 4 {
			case 0:
				d.Push(next)
				model = append(model, next)
			case 1:
				d.PushFront(next)
				model = append([]int{next}, model...)
			case 2:
				v, ok := d.Pop()
				if ok != (len(model) > 0) || ok && v != model[0] {
					return false
				}
				if ok {
					model = model[1:]
				}
			case 3:
				v, ok := d.Peek()
				if ok != (len(model) > 0) || ok && v != model[0] {
					return false
				}
			}
			if d.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReservedDequeAllocatesOnce: Reserve(n) is one allocation, after which
// push/pop cycles of up to n elements, from either end, allocate nothing.
func TestReservedDequeAllocatesOnce(t *testing.T) {
	const n = 64
	if avg := testing.AllocsPerRun(20, func() {
		var d Deque[*int]
		d.Reserve(n)
	}); avg != 1 {
		t.Fatalf("Reserve(%d) costs %.1f allocations, want 1", n, avg)
	}
	var d Deque[*int]
	d.Reserve(n)
	v := new(int)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < n; i++ {
			if i%3 == 0 {
				d.PushFront(v)
			} else {
				d.Push(v)
			}
		}
		for i := 0; i < n/2; i++ {
			d.Pop()
		}
		for i := 0; i < n/2; i++ {
			d.Push(v)
		}
		for d.Len() > 0 {
			d.Pop()
		}
	}); avg != 0 {
		t.Fatalf("cycles up to the reservation allocate %.1f times, want 0", avg)
	}
}
