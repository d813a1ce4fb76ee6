package uts

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"sws/internal/pool"
	"sws/internal/shmem"
)

func TestValidate(t *testing.T) {
	bad := []Params{
		{Type: Geometric, B0: 0.5, MaxDepth: 5},
		{Type: Geometric, B0: 4, MaxDepth: 0},
		{Type: Binomial, B0: 4, Q: 0.5, M: 0},
		{Type: Binomial, B0: 4, Q: 0, M: 2},
		{Type: Binomial, B0: 4, Q: 1.0, M: 2},
		{Type: Binomial, B0: 4, Q: 0.5, M: 2}, // m*q = 1: supercritical
		{Type: TreeType(9), B0: 4},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%v): accepted", i, p)
		}
	}
	if err := T1.Validate(); err != nil {
		t.Errorf("T1 invalid: %v", err)
	}
	if err := TinyBin.Validate(); err != nil {
		t.Errorf("TinyBin invalid: %v", err)
	}
}

// Determinism: the tree is a pure function of its parameters, and this
// generator's realizations are pinned exactly, so neither a refactor nor a
// digest kernel (Child's SHA-extension path or crypto/sha1, see
// TestChildMatchesSHA1) can change the workload without failing here.
func TestDeterminism(t *testing.T) {
	a, err := CountSerial(Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountSerial(Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two traversals disagree: %+v vs %+v", a, b)
	}
	pins := []struct {
		name string
		p    Params
		want CountResult
	}{
		{"Tiny", Tiny, CountResult{Nodes: 440, Leaves: 335, MaxDepth: 6}},
		{"TinyLinear", TinyLinear, CountResult{Nodes: 34_314, Leaves: 21_701, MaxDepth: 8}},
		{"TinyBin", TinyBin, CountResult{Nodes: 625, Leaves: 493, MaxDepth: 11}},
		{"Small", Small, CountResult{Nodes: 18_796, Leaves: 15_085, MaxDepth: 8}},
		// The node count the benchmark's uts workloads check every job
		// against.
		{"T1", T1, CountResult{Nodes: 305_793, Leaves: 245_175, MaxDepth: 10}},
	}
	for _, pin := range pins {
		if pin.name == "T1" && testing.Short() {
			continue // T1 traversal in -short mode, as TestT1Scale
		}
		got, err := CountSerial(pin.p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != pin.want {
			t.Errorf("%s: %+v, want %+v", pin.name, got, pin.want)
		}
	}
}

// Different seeds must give different trees (the generator actually uses
// the seed).
func TestSeedSensitivity(t *testing.T) {
	p2 := Tiny
	p2.Seed = 20
	a, err := CountSerial(Tiny, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CountSerial(p2, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes == b.Nodes && a.Leaves == b.Leaves {
		t.Errorf("seed change did not alter the tree: %+v", a)
	}
}

func TestNodeEncodeDecode(t *testing.T) {
	n := Child(Root(T1), 3)
	got, err := DecodeNode(n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Errorf("round trip: %+v != %+v", got, n)
	}
	if _, err := DecodeNode(make([]byte, 7)); err == nil {
		t.Error("short payload accepted")
	}
}

func TestChildrenDistinct(t *testing.T) {
	r := Root(T1)
	seen := map[[NodeStateSize]byte]bool{r.State: true}
	for i := 0; i < 50; i++ {
		c := Child(r, i)
		if c.Depth != 1 {
			t.Fatalf("child depth %d", c.Depth)
		}
		if seen[c.State] {
			t.Fatalf("child %d collides", i)
		}
		seen[c.State] = true
	}
}

// Property: child identity is stable and depends on the index.
func TestChildProperty(t *testing.T) {
	f := func(idx uint8, seed int32) bool {
		p := Tiny
		p.Seed = seed
		r := Root(p)
		a := Child(r, int(idx))
		b := Child(r, int(idx))
		c := Child(r, int(idx)+1)
		return a == b && a != c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Geometric child counts must respect the depth cutoff and the burst cap.
func TestGeoChildrenBounds(t *testing.T) {
	n := Root(T1)
	for d := 0; d <= T1.MaxDepth+2; d++ {
		n.Depth = uint32(d)
		k := T1.NumChildren(n)
		if k < 0 || k > maxGeoChildren {
			t.Fatalf("depth %d: %d children", d, k)
		}
		if d >= T1.MaxDepth && k != 0 {
			t.Fatalf("node at depth %d (>= MaxDepth %d) has %d children", d, T1.MaxDepth, k)
		}
	}
}

// Binomial: root gets B0 children; non-roots get M or 0.
func TestBinChildren(t *testing.T) {
	p := TinyBin
	if got := p.NumChildren(Root(p)); got != 100 {
		t.Fatalf("root children = %d, want 100", got)
	}
	sawM, sawZero := false, false
	for i := 0; i < 200; i++ {
		k := p.NumChildren(Child(Root(p), i))
		switch k {
		case p.M:
			sawM = true
		case 0:
			sawZero = true
		default:
			t.Fatalf("non-root child count %d, want 0 or %d", k, p.M)
		}
	}
	if !sawM || !sawZero {
		t.Errorf("binomial sampling degenerate: sawM=%v sawZero=%v", sawM, sawZero)
	}
}

// CountSerial's limit must trip on runaway trees.
func TestCountSerialLimit(t *testing.T) {
	if _, err := CountSerial(Tiny, 10); err == nil {
		t.Error("limit not enforced")
	}
}

// The standard T1 tree has a known size; our generator must land in the
// right regime (an exact-count pin for OUR generator is asserted, and the
// magnitude is compared against the published 4.1M-node figure).
func TestT1Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("T1 traversal in -short mode")
	}
	res, err := CountSerial(T1, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("T1: %d nodes, %d leaves, depth %d", res.Nodes, res.Leaves, res.MaxDepth)
	// Our SHA-1 stream differs in framing details from the reference C
	// implementation, so the count is not bit-identical to 4,130,071 —
	// but a fixed-shape geometric tree with b0=4, depth 10 must land in
	// the 1e5..4e7 regime (total size is heavy-tailed around the 1.4M
	// branching-process mean).
	if res.Nodes < 100_000 || res.Nodes > 40_000_000 {
		t.Errorf("T1 generator out of regime: %d nodes", res.Nodes)
	}
	if res.MaxDepth > uint32(T1.MaxDepth) {
		t.Errorf("depth %d exceeds MaxDepth %d", res.MaxDepth, T1.MaxDepth)
	}
}

// Parallel traversal must visit exactly the same number of nodes as the
// serial traversal, for both protocols.
func TestParallelMatchesSerial(t *testing.T) {
	want, err := CountSerial(Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []pool.Protocol{pool.SWS, pool.SDC} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 4, HeapBytes: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			wl, err := NewWorkload(Tiny)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *shmem.Ctx) error {
				reg := pool.NewRegistry()
				if err := wl.Register(reg); err != nil {
					return err
				}
				p, err := pool.New(c, reg, pool.Config{Protocol: proto, Seed: 9, PayloadCap: PayloadSize})
				if err != nil {
					return err
				}
				if err := wl.Seed(p, c.Rank()); err != nil {
					return err
				}
				return p.Run()
			})
			if err != nil {
				t.Fatal(err)
			}
			if wl.Nodes() != want.Nodes || wl.Leaves() != want.Leaves {
				t.Errorf("parallel: %d nodes %d leaves, serial: %d nodes %d leaves",
					wl.Nodes(), wl.Leaves(), want.Nodes, want.Leaves)
			}
		})
	}
}

func TestSeedUnregistered(t *testing.T) {
	wl, err := NewWorkload(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := wl.Seed(nil, 0); err == nil {
		t.Error("unregistered seed accepted")
	}
}

func TestStrings(t *testing.T) {
	if Geometric.String() != "geometric" || Binomial.String() != "binomial" {
		t.Error("tree type strings")
	}
	if TreeType(7).String() == "" || fmt.Sprint(T1) == "" || fmt.Sprint(TinyBin) == "" {
		t.Error("param strings")
	}
}

// Binomial and linear-shape trees must also traverse identically in
// parallel and serially.
func TestParallelMatchesSerialOtherShapes(t *testing.T) {
	for _, params := range []Params{TinyBin, TinyLinear} {
		params := params
		t.Run(params.String(), func(t *testing.T) {
			want, err := CountSerial(params, 0)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := NewWorkload(params)
			if err != nil {
				t.Fatal(err)
			}
			w, err := shmem.NewWorld(shmem.Config{NumPEs: 3, HeapBytes: 8 << 20})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *shmem.Ctx) error {
				reg := pool.NewRegistry()
				if err := wl.Register(reg); err != nil {
					return err
				}
				p, err := pool.New(c, reg, pool.Config{Seed: 4, PayloadCap: PayloadSize})
				if err != nil {
					return err
				}
				if err := wl.Seed(p, c.Rank()); err != nil {
					return err
				}
				return p.Run()
			})
			if err != nil {
				t.Fatal(err)
			}
			if wl.Nodes() != want.Nodes || wl.Leaves() != want.Leaves {
				t.Errorf("parallel %d/%d, serial %d/%d nodes/leaves",
					wl.Nodes(), wl.Leaves(), want.Nodes, want.Leaves)
			}
		})
	}
}

// NodeWork must stretch execution without changing the traversal.
func TestNodeWork(t *testing.T) {
	want, err := CountSerial(Tiny, 0)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := NewWorkload(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	wl.NodeWork = 2 * time.Microsecond
	w, err := shmem.NewWorld(shmem.Config{NumPEs: 2, HeapBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var execTime time.Duration
	err = w.Run(func(c *shmem.Ctx) error {
		reg := pool.NewRegistry()
		if err := wl.Register(reg); err != nil {
			return err
		}
		p, err := pool.New(c, reg, pool.Config{Seed: 4, PayloadCap: PayloadSize})
		if err != nil {
			return err
		}
		if err := wl.Seed(p, c.Rank()); err != nil {
			return err
		}
		if err := p.Run(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			execTime = p.Stats().ExecTime
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Nodes() != want.Nodes {
		t.Errorf("nodes = %d, want %d", wl.Nodes(), want.Nodes)
	}
	if execTime < time.Duration(want.Nodes/4)*2*time.Microsecond {
		t.Errorf("NodeWork not applied: execTime %v for ~%d nodes", execTime, want.Nodes)
	}
}
