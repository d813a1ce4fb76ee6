package shmem

import (
	"regexp"
	"strings"
	"testing"
)

func TestOpStringsAndBlocking(t *testing.T) {
	blocking := map[Op]bool{
		OpPut: true, OpGet: true, OpFetchAdd: true,
		OpCompareSwap: true, OpLoad: true, OpStore: true, OpPutSignal: true,
		OpStoreNBI: false, OpAddNBI: false,
	}
	for op, want := range blocking {
		if op.Blocking() != want {
			t.Errorf("%v.Blocking() = %v, want %v", op, op.Blocking(), want)
		}
		if op.String() == "" || strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("op %d has no name", int(op))
		}
	}
	if Op(99).String() == "" {
		t.Error("unknown op empty string")
	}
}

// TestRemoteOpsHelpNamesEveryOp: the op label's values are the op names,
// and the family's help text — the reference row — lists each one.
func TestRemoteOpsHelpNamesEveryOp(t *testing.T) {
	for _, op := range Ops() {
		if !regexp.MustCompile(`[ ,]` + regexp.QuoteMeta(op.String()) + `[ ,.]`).MatchString(mRemoteOps.Help) {
			t.Errorf("sws_shmem_remote_ops_total does not document op=%q", op)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	var c Counters
	if got := c.Snapshot().String(); got != "none" {
		t.Errorf("empty snapshot string %q", got)
	}
	c.countRemote(OpPut, 10)
	c.countRemote(OpFetchAdd, 0)
	s := c.Snapshot().String()
	if !strings.Contains(s, "put=1") || !strings.Contains(s, "fetch-add=1") {
		t.Errorf("snapshot string %q", s)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	var c Counters
	c.countRemote(OpGet, 100)
	before := c.Snapshot()
	c.countRemote(OpGet, 50)
	c.countRemote(OpStoreNBI, 0)
	c.countLocal()
	d := c.Snapshot().Sub(before)
	if d.Of(OpGet) != 1 || d.Of(OpStoreNBI) != 1 || d.BytesGot != 50 || d.Local != 1 {
		t.Errorf("diff wrong: %+v", d)
	}
	if d.Total() != 2 || d.Blocking() != 1 || d.NonBlocking() != 1 {
		t.Errorf("totals wrong: %d/%d/%d", d.Total(), d.Blocking(), d.NonBlocking())
	}
}

func TestTransportKindString(t *testing.T) {
	if TransportLocal.String() != "local" || TransportTCP.String() != "tcp" {
		t.Error("transport strings")
	}
	if TransportKind(9).String() == "" {
		t.Error("unknown transport empty")
	}
}

func TestLatencyModelZero(t *testing.T) {
	if !(LatencyModel{}).Zero() {
		t.Error("zero model not Zero")
	}
	if (LatencyModel{BlockingRTT: 1}).Zero() {
		t.Error("nonzero model Zero")
	}
}
