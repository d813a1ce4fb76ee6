package pool

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"sws/internal/shmem"
	"sws/internal/task"
)

// The full task pool must run over a distributed (Join-based) world: the
// same integration cmd/sws-dist exercises with OS processes, here with
// in-process members so the test can assert exact totals.
func TestPoolOverDistributedWorld(t *testing.T) {
	const members = 3
	const depth = 12
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := ln.Addr().String()
	ln.Close()

	var executed atomic.Int64
	errs := make([]error, members)
	var wg sync.WaitGroup
	for rank := 0; rank < members; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := shmem.Join(shmem.Config{NumPEs: members, HeapBytes: 8 << 20, Transport: shmem.TransportTCP},
				shmem.Endpoint{Rank: rank, Coordinator: coord})
			if err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = w.Run(func(c *shmem.Ctx) error {
				reg := NewRegistry()
				var h task.Handle
				h = reg.MustRegister("node", func(tc *TaskCtx, payload []byte) error {
					args, err := task.ParseArgs(payload, 1)
					if err != nil {
						return err
					}
					if args[0] == 0 {
						return nil
					}
					for i := 0; i < 2; i++ {
						if err := tc.Spawn(h, task.Args(args[0]-1)); err != nil {
							return err
						}
					}
					return nil
				})
				p, err := New(c, reg, Config{Seed: 17})
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := p.Add(h, task.Args(uint64(depth))); err != nil {
						return err
					}
				}
				if err := p.Run(); err != nil {
					return err
				}
				executed.Add(int64(p.Stats().TasksExecuted))
				return nil
			})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", rank, err)
		}
	}
	want := int64(1)<<(depth+1) - 1
	if executed.Load() != want {
		t.Fatalf("executed %d tasks across members, want %d", executed.Load(), want)
	}
}

// Many concurrent remote-spawners hammering one receiver's inbox: no task
// may be lost or duplicated even when the ring wraps under contention. CI
// repeats it 200 times under -race: a slot handed to two senders at once
// lost or doubled a task in only about one run in five.
func TestMailboxMultiSenderStress(t *testing.T) {
	const senders = 4
	const perSender = 400
	var seen [senders * perSender]atomic.Bool
	var ran atomic.Int64
	runWorld(t, senders+1, shmem.TransportLocal, func(c *shmem.Ctx) error {
		reg := NewRegistry()
		h := reg.MustRegister("probe", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			if seen[args[0]].Swap(true) {
				return fmt.Errorf("task %d delivered twice", args[0])
			}
			ran.Add(1)
			return nil
		})
		driver := reg.MustRegister("driver", func(tc *TaskCtx, payload []byte) error {
			args, err := task.ParseArgs(payload, 1)
			if err != nil {
				return err
			}
			base := args[0] * perSender
			for i := uint64(0); i < perSender; i++ {
				// Everyone floods PE 0's small inbox.
				if err := tc.SpawnOn(0, h, task.Args(base+i)); err != nil {
					return err
				}
			}
			return nil
		})
		p, err := New(c, reg, Config{Seed: 23, MailboxSlots: 32})
		if err != nil {
			return err
		}
		if c.Rank() > 0 {
			if err := p.Add(driver, task.Args(uint64(c.Rank()-1))); err != nil {
				return err
			}
		}
		return p.Run()
	})
	if ran.Load() != senders*perSender {
		t.Fatalf("delivered %d tasks, want %d", ran.Load(), senders*perSender)
	}
}
