// Package uts implements the Unbalanced Tree Search benchmark (Dinan et
// al., the paper's [12]) used for the paper's second evaluation workload
// (§5.2.2).
//
// UTS explores a deterministic but highly unbalanced tree whose shape is
// derived from a splittable SHA-1 random stream: each node is a 20-byte
// digest, and child i of a node is the digest of (node state, i). The
// number of children is sampled from the node's own digest, so any process
// holding a node descriptor can expand it with no other state — which is
// exactly what makes UTS a work-stealing benchmark: subtree sizes vary
// wildly and cannot be predicted, so load balance is entirely the
// runtime's problem.
//
// Two standard tree classes are implemented:
//
//   - Geometric: the child count of each node is geometrically
//     distributed around an expected branching factor that is either
//     fixed (the standard T1 tree's shape: b0=4, depth 10) or decays
//     linearly with depth. Realized sizes are heavy-tailed: the reference
//     T1 realization has 4,130,071 nodes; this generator's SHA-1 framing
//     differs in low-level details, so its T1 realization lands in the
//     same regime (hundreds of thousands of nodes) but not on the exact
//     count.
//   - Binomial: the root has B0 children; every other node has M children
//     with probability Q and none otherwise (M*Q < 1 keeps it finite).
//     Binomial trees are self-similar and maximally adversarial for load
//     balancers.
//
// The paper runs a 270-billion-node tree (T1WL) on 2,112 cores; that scale
// is hardware-gated, so the presets here are the standard smaller trees
// with identical generator and imbalance structure (see DESIGN.md §2).
package uts

import (
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// TreeType selects the branching process.
type TreeType int

const (
	Geometric TreeType = iota
	Binomial
)

func (t TreeType) String() string {
	switch t {
	case Geometric:
		return "geometric"
	case Binomial:
		return "binomial"
	default:
		return fmt.Sprintf("TreeType(%d)", int(t))
	}
}

// GeoShape selects how a geometric tree's expected branching factor
// varies with depth (the reference implementation's -a flag).
type GeoShape int

const (
	// ShapeFixed keeps the expected branching factor at B0 for every
	// depth below MaxDepth (the shape used by the standard T1 tree).
	ShapeFixed GeoShape = iota
	// ShapeLinear decays the expected branching factor linearly to zero
	// at MaxDepth, giving shallow bushy trees.
	ShapeLinear
)

func (g GeoShape) String() string {
	switch g {
	case ShapeFixed:
		return "fixed"
	case ShapeLinear:
		return "linear"
	default:
		return fmt.Sprintf("GeoShape(%d)", int(g))
	}
}

// Params defines a UTS tree.
type Params struct {
	Type TreeType
	// Shape selects the geometric branching profile (fixed by default).
	Shape GeoShape
	// B0 is the root branching factor (and the depth-0 expected branching
	// factor for geometric trees).
	B0 float64
	// Seed is the root descriptor seed.
	Seed int32
	// MaxDepth bounds geometric trees (gen_mx): nodes at this depth are
	// leaves. Ignored for binomial trees.
	MaxDepth int
	// Q and M parameterize binomial trees: each non-root node has M
	// children with probability Q.
	Q float64
	M int
}

func (p Params) String() string {
	switch p.Type {
	case Binomial:
		return fmt.Sprintf("uts(bin b0=%g q=%g m=%d seed=%d)", p.B0, p.Q, p.M, p.Seed)
	default:
		return fmt.Sprintf("uts(geo/%v b0=%g d=%d seed=%d)", p.Shape, p.B0, p.MaxDepth, p.Seed)
	}
}

// Validate checks parameter sanity; binomial trees must be subcritical.
func (p Params) Validate() error {
	if p.B0 < 1 {
		return fmt.Errorf("uts: B0 %g < 1", p.B0)
	}
	switch p.Type {
	case Geometric:
		if p.MaxDepth < 1 {
			return fmt.Errorf("uts: geometric tree needs MaxDepth >= 1, got %d", p.MaxDepth)
		}
		if p.Shape != ShapeFixed && p.Shape != ShapeLinear {
			return fmt.Errorf("uts: unknown geometric shape %v", p.Shape)
		}
	case Binomial:
		if p.M < 1 || p.Q <= 0 || p.Q >= 1 {
			return fmt.Errorf("uts: binomial tree needs M >= 1 and 0 < Q < 1 (got m=%d q=%g)", p.M, p.Q)
		}
		if float64(p.M)*p.Q >= 1 {
			return fmt.Errorf("uts: binomial tree is supercritical (m*q = %g >= 1): infinite expected size", float64(p.M)*p.Q)
		}
	default:
		return fmt.Errorf("uts: unknown tree type %v", p.Type)
	}
	return nil
}

// NodeStateSize is the size of a node descriptor's hash state.
const NodeStateSize = sha1.Size // 20 bytes, as in the paper (§5.2.2)

// Node is a tree node descriptor: portable, self-describing, 24 bytes.
type Node struct {
	State [NodeStateSize]byte
	Depth uint32
}

// PayloadSize is the encoded node size carried in a task payload: the
// state, then the depth as a little-endian uint32.
const PayloadSize = NodeStateSize + 4

// ErrPayloadSize is returned, wrapped with the size found, for a task
// payload that is not one encoded node.
var ErrPayloadSize = errors.New("uts: payload is not one encoded node")

// nodeRecord views a payload as an encoded node, or fails typed.
func nodeRecord(payload []byte) (*[PayloadSize]byte, error) {
	if len(payload) != PayloadSize {
		return nil, fmt.Errorf("%w: %d bytes, want %d", ErrPayloadSize, len(payload), PayloadSize)
	}
	return (*[PayloadSize]byte)(payload), nil
}

// Encode serializes the node into a fresh task payload.
func (n Node) Encode() []byte {
	buf := make([]byte, PayloadSize)
	copy(buf, n.State[:])
	binary.LittleEndian.PutUint32(buf[NodeStateSize:], n.Depth)
	return buf
}

// DecodeNode parses a payload produced by Encode.
func DecodeNode(payload []byte) (Node, error) {
	rec, err := nodeRecord(payload)
	if err != nil {
		return Node{}, err
	}
	return Node{
		State: [NodeStateSize]byte(rec[:NodeStateSize]),
		Depth: binary.LittleEndian.Uint32(rec[NodeStateSize:]),
	}, nil
}

// Root returns the tree's root node: the digest of the 4-byte seed.
func Root(p Params) Node {
	var seed [4]byte
	binary.BigEndian.PutUint32(seed[:], uint32(p.Seed))
	return Node{State: sha1.Sum(seed[:])}
}

// Child returns child i of n: the digest of (state, i) — the SHA-1
// splittable stream of the UTS specification. The index is hashed as a
// uint32.
func Child(n Node, i int) Node {
	c := Node{Depth: n.Depth + 1}
	childDigest(&c.State, &n.State, uint32(i))
	return c
}

// childDigest writes child i's state of the node whose state is in to out.
// Where the CPU has the SHA extensions the digest is one hardware
// compression (childBlockSHANI); elsewhere it is crypto/sha1's. out may be
// in: the kernel reads all of in before it writes out.
func childDigest(out, in *[NodeStateSize]byte, i uint32) {
	if hasSHANI {
		childBlockSHANI(out, in, i)
	} else {
		*out = childGeneric(in, i)
	}
}

// childGeneric is the child digest through crypto/sha1: the fallback, and
// the reference the SHA-extension kernel is tested against.
func childGeneric(state *[NodeStateSize]byte, i uint32) [NodeStateSize]byte {
	var buf [NodeStateSize + 4]byte
	copy(buf[:], state[:])
	binary.BigEndian.PutUint32(buf[NodeStateSize:], i)
	return sha1.Sum(buf[:])
}

// SHA1Kernel names the digest Child computes with on this build and CPU:
// "shani" for the SHA-extension kernel, "generic" for crypto/sha1. Results
// files record it beside their machine fingerprint.
func SHA1Kernel() string {
	if hasSHANI {
		return "shani"
	}
	return "generic"
}

// variate extracts a node's 31-bit uniform variate from its state.
func variate(state *[NodeStateSize]byte) int32 {
	return int32(binary.BigEndian.Uint32(state[16:20]) & 0x7FFFFFFF)
}

// toProb maps a 31-bit variate to [0, 1).
func toProb(v int32) float64 { return float64(v) / float64(1<<31) }

// NumChildren samples the node's child count from its own digest.
func (p Params) NumChildren(n Node) int {
	t := tree{p: p}
	return t.numChildren(variate(&n.State), n.Depth)
}

// maxGeoChildren caps a single node's children, as the reference
// implementation does (MAXNUMCHILDREN), bounding spawn bursts.
const maxGeoChildren = 100

// geoTableDepths bounds the divisor table a tree precomputes; deeper
// geometric nodes compute their divisor per node.
const geoTableDepths = 256

// tree is a tree's parameters with the geometric sample's divisor, which
// depends on the depth alone, computed once per depth: logq[d] is
// geoDivisor(d). A tree with no table computes every divisor per node, to
// the same float64.
type tree struct {
	p    Params
	logq []float64
}

func newTree(p Params) tree {
	t := tree{p: p}
	if p.Type == Geometric {
		t.logq = make([]float64, min(max(p.MaxDepth, 0), geoTableDepths))
		for d := range t.logq {
			t.logq[d] = p.geoDivisor(d)
		}
	}
	return t
}

// numChildren samples the child count of the node at depth whose variate
// is r.
func (t *tree) numChildren(r int32, depth uint32) int {
	p := &t.p
	if p.Type == Binomial {
		if depth == 0 {
			return int(p.B0)
		}
		if toProb(r) < p.Q {
			return p.M
		}
		return 0
	}
	d := int(depth)
	if d >= p.MaxDepth {
		return 0
	}
	var div float64
	if d < len(t.logq) {
		div = t.logq[d]
	} else {
		div = p.geoDivisor(d)
	}
	if div == 0 {
		return 0
	}
	k := int(math.Floor(math.Log(1-toProb(r)) / div))
	if k < 0 {
		k = 0
	}
	if k > maxGeoChildren {
		k = maxGeoChildren
	}
	return k
}

// geoDivisor is math.Log(1-pr) for a geometric node at depth, where pr =
// 1/(1+b) and b is the expected branching factor there: the child count
// is a geometric sample with mean b, P(k) ~ (1-pr)^k * pr. It is 0 where b
// is not positive (no children).
func (p Params) geoDivisor(depth int) float64 {
	b := p.B0
	if p.Shape == ShapeLinear {
		// Expected branching decays linearly to zero at MaxDepth.
		b *= 1 - float64(depth)/float64(p.MaxDepth)
	}
	if b <= 0 {
		return 0
	}
	pr := 1.0 / (1.0 + b)
	return math.Log(1 - pr)
}

// CountResult summarizes a sequential traversal.
type CountResult struct {
	Nodes    uint64
	Leaves   uint64
	MaxDepth uint32
}

// CountSerial walks the tree depth-first without the task pool, for
// verifying parallel results and as the runtime's serial baseline: it
// expands each node with the task body's own childDigest and numChildren.
// It stops with an error after limit nodes (0 means no limit).
func CountSerial(p Params, limit uint64) (CountResult, error) {
	if err := p.Validate(); err != nil {
		return CountResult{}, err
	}
	t := newTree(p)
	var res CountResult
	stack := []Node{Root(p)}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++
		if limit > 0 && res.Nodes > limit {
			return res, fmt.Errorf("uts: tree exceeds node limit %d", limit)
		}
		res.MaxDepth = max(res.MaxDepth, n.Depth)
		kids := t.numChildren(variate(&n.State), n.Depth)
		if kids == 0 {
			res.Leaves++
			continue
		}
		for i := range kids {
			stack = append(stack, Node{Depth: n.Depth + 1})
			childDigest(&stack[len(stack)-1].State, &n.State, uint32(i))
		}
	}
	return res, nil
}

// Standard presets. Node counts are properties of the generator and are
// asserted by tests.
var (
	// T1 is the standard UTS T1 tree: fixed-shape geometric with b0=4,
	// depth 10, seed 19 (~4.1M nodes in the reference implementation;
	// this generator's framing differs in low-level details, so its
	// realization is 305,793 nodes).
	T1 = Params{Type: Geometric, Shape: ShapeFixed, B0: 4, Seed: 19, MaxDepth: 10}
	// Small is a fixed-shape geometric tree of 18,796 nodes.
	Small = Params{Type: Geometric, Shape: ShapeFixed, B0: 4, Seed: 19, MaxDepth: 8}
	// Tiny is a 440-node tree for tests.
	Tiny = Params{Type: Geometric, Shape: ShapeFixed, B0: 3, Seed: 19, MaxDepth: 6}
	// TinyLinear is a shallow bushy linear-shape tree for tests.
	TinyLinear = Params{Type: Geometric, Shape: ShapeLinear, B0: 8, Seed: 19, MaxDepth: 8}
	// TinyBin is a small binomial tree for tests.
	TinyBin = Params{Type: Binomial, B0: 100, Seed: 42, Q: 0.2, M: 4}
)

// Preset resolves the name a command line or a job spec gives a standard
// tree by.
func Preset(name string) (Params, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "t1":
		return T1, nil
	case "tinybin":
		return TinyBin, nil
	case "tinylinear":
		return TinyLinear, nil
	}
	return Params{}, fmt.Errorf("uts: unknown tree preset %q (tiny|small|t1|tinybin|tinylinear)", name)
}
