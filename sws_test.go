package sws_test

import (
	"sync/atomic"
	"testing"

	"sws"
)

func TestRunValidation(t *testing.T) {
	if _, err := sws.Run(sws.Config{}, sws.Job{}); err == nil {
		t.Error("nil Register accepted")
	}
}

func TestRunFacade(t *testing.T) {
	var leaves atomic.Int64
	cfg := sws.Config{PEs: 3, Seed: 11}
	res, err := sws.Run(cfg, sws.Job{
		Register: func(reg *sws.Registry) (sws.Handle, error) {
			var h sws.Handle
			var err error
			h, err = reg.Register("node", func(tc *sws.TaskCtx, payload []byte) error {
				args, perr := sws.ParseArgs(payload, 1)
				if perr != nil {
					return perr
				}
				if args[0] == 0 {
					leaves.Add(1)
					return nil
				}
				for i := 0; i < 2; i++ {
					if serr := tc.Spawn(h, sws.Args(args[0]-1)); serr != nil {
						return serr
					}
				}
				return nil
			})
			return h, err
		},
		Seed: func(p *sws.Pool, h sws.Handle, rank int) error {
			if rank != 0 {
				return nil
			}
			return p.Add(h, sws.Args(10))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if leaves.Load() != 1024 {
		t.Errorf("leaves = %d, want 1024", leaves.Load())
	}
	want := uint64(2*1024 - 1)
	if res.Total.TasksExecuted != want {
		t.Errorf("executed = %d, want %d", res.Total.TasksExecuted, want)
	}
	if res.Total.TasksSpawned != want {
		t.Errorf("spawned = %d, want %d", res.Total.TasksSpawned, want)
	}
	if res.Elapsed <= 0 || res.Throughput <= 0 {
		t.Errorf("timing empty: %+v", res)
	}
	if len(res.PEs) != 3 {
		t.Errorf("PEs = %d", len(res.PEs))
	}
}

func TestRunFacadeSDCAndOptions(t *testing.T) {
	var ran atomic.Int64
	cfg := sws.Config{
		PEs:        2,
		Protocol:   sws.SDC,
		Seed:       5,
		PayloadCap: 32, // four words: more than the default 24 bytes hold
	}
	_, err := sws.Run(cfg, sws.Job{
		Register: func(reg *sws.Registry) (sws.Handle, error) {
			return reg.Register("t", func(tc *sws.TaskCtx, payload []byte) error {
				args, err := sws.ParseArgs(payload, 4)
				if err != nil {
					return err
				}
				ran.Add(int64(args[3]))
				return nil
			})
		},
		Seed: func(p *sws.Pool, h sws.Handle, rank int) error {
			return p.Add(h, sws.Args(0, 0, 0, 1)) // every PE seeds one
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Errorf("ran = %d, want 2", ran.Load())
	}
}

// The facade must wire tracing and the Finish hook through to the pool.
func TestRunFacadeTraceAndFinish(t *testing.T) {
	tr, err := sws.NewTrace(2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var finished atomic.Int32
	_, err = sws.Run(sws.Config{PEs: 2, Seed: 4, Trace: tr}, sws.Job{
		Register: func(reg *sws.Registry) (sws.Handle, error) {
			var h sws.Handle
			var err error
			h, err = reg.Register("node", func(tc *sws.TaskCtx, payload []byte) error {
				args, perr := sws.ParseArgs(payload, 1)
				if perr != nil {
					return perr
				}
				if args[0] == 0 {
					return nil
				}
				for i := 0; i < 2; i++ {
					if serr := tc.Spawn(h, sws.Args(args[0]-1)); serr != nil {
						return serr
					}
				}
				return nil
			})
			return h, err
		},
		Seed: func(p *sws.Pool, h sws.Handle, rank int) error {
			if rank != 0 {
				return nil
			}
			return p.Add(h, sws.Args(8))
		},
		Finish: func(p *sws.Pool, rank int) error {
			finished.Add(1)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if finished.Load() != 2 {
		t.Errorf("Finish ran on %d PEs, want 2", finished.Load())
	}
	if len(tr.Merged()) == 0 {
		t.Error("trace captured nothing")
	}
}

// The facade over the TCP transport with the SDC protocol — the least
// default configuration.
func TestRunFacadeTCPSDC(t *testing.T) {
	var ran atomic.Int64
	_, err := sws.Run(sws.Config{
		PEs:       2,
		Protocol:  sws.SDC,
		Transport: sws.TransportTCP,
		Seed:      6,
	}, sws.Job{
		Register: func(reg *sws.Registry) (sws.Handle, error) {
			return reg.Register("t", func(tc *sws.TaskCtx, payload []byte) error {
				ran.Add(1)
				return nil
			})
		},
		Seed: func(p *sws.Pool, h sws.Handle, rank int) error {
			for i := 0; i < 10; i++ {
				if err := p.Add(h, nil); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 20 {
		t.Errorf("ran %d tasks, want 20", ran.Load())
	}
}
