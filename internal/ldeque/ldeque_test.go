package ldeque

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sws/internal/task"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := New(-3); err == nil {
		t.Error("negative capacity accepted")
	}
	for _, c := range []struct{ in, want int }{{1, 2}, {2, 2}, {3, 4}, {8, 8}, {9, 16}} {
		q := MustNew(c.in)
		if q.Cap() != c.want {
			t.Errorf("New(%d): cap %d, want %d", c.in, q.Cap(), c.want)
		}
	}
}

func TestFIFOSingleThreaded(t *testing.T) {
	q := MustNew(8)
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
	for i := 0; i < 8; i++ {
		if !q.TryPush(task.Desc{Handle: task.Handle(i)}) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if q.TryPush(task.Desc{Handle: 99}) {
		t.Fatal("push into full ring succeeded")
	}
	if q.Len() != 8 {
		t.Fatalf("Len = %d, want 8", q.Len())
	}
	for i := 0; i < 8; i++ {
		d, ok := q.TryPop()
		if !ok || d.Handle != task.Handle(i) {
			t.Fatalf("pop %d: got (%v, %v)", i, d.Handle, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("pop from drained ring succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	q := MustNew(4)
	n := 0
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !q.TryPush(task.Desc{Handle: task.Handle(n)}) {
				t.Fatalf("round %d push failed", round)
			}
			n++
		}
		for i := 0; i < 3; i++ {
			if _, ok := q.TryPop(); !ok {
				t.Fatalf("round %d pop failed", round)
			}
		}
	}
}

// TestExactlyOnceConcurrent hammers the ring from several producer and
// consumer goroutines and checks that every pushed task is popped exactly
// once — the invariant the pool's intra-PE ring depends on. Run with
// -race in CI.
func TestExactlyOnceConcurrent(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	q := MustNew(64)
	seen := make([]atomic.Uint32, producers*perProd)
	var wg sync.WaitGroup
	var popped atomic.Uint64

	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for popped.Load() < producers*perProd {
				d, ok := q.TryPop()
				if !ok {
					runtime.Gosched()
					continue
				}
				id := binary.LittleEndian.Uint64(d.Payload)
				if seen[id].Add(1) != 1 {
					t.Errorf("task %d popped twice", id)
					return
				}
				popped.Add(1)
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				id := uint64(p*perProd + i)
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, id)
				for !q.TryPush(task.Desc{Handle: 1, Payload: buf}) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	wg.Wait()
	if popped.Load() != producers*perProd {
		t.Fatalf("popped %d tasks, want %d", popped.Load(), producers*perProd)
	}
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("task %d popped %d times", i, seen[i].Load())
		}
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := MustNew(1024)
	d := task.Desc{Handle: 1}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if q.TryPush(d) {
				q.TryPop()
			}
		}
	})
}
