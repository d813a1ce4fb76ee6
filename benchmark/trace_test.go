package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	const msec = 1_000_000
	spans := []span{
		{ID: 1, Parent: 0, Job: 1, Name: "job", Start: 0, End: 10 * msec},
		// Two children overlapping on [3,4], one sticking 2ms out of the parent.
		{ID: 2, Parent: 1, Job: 1, Name: "a", Start: 1 * msec, End: 4 * msec},
		{ID: 3, Parent: 1, Job: 1, Name: "b", Start: 3 * msec, End: 6 * msec},
		{ID: 4, Parent: 1, Job: 1, Name: "c", Start: 9 * msec, End: 12 * msec},
		// A grandchild takes from its parent only.
		{ID: 5, Parent: 2, Job: 1, Name: "d", Start: 2 * msec, End: 3 * msec},
		// A second job with no children is all self time.
		{ID: 6, Parent: 0, Job: 2, Name: "job", Start: 20 * msec, End: 21 * msec},
	}
	got := selfTimes(spans)
	want := map[string]selfTime{
		"job": {Count: 2, TotalMS: 11, SelfMS: (10 - 5 - 1) + 1}, // covered [1,6] and [9,10]
		"a":   {Count: 1, TotalMS: 3, SelfMS: 2},
		"b":   {Count: 1, TotalMS: 3, SelfMS: 3},
		"c":   {Count: 1, TotalMS: 3, SelfMS: 3},
		"d":   {Count: 1, TotalMS: 1, SelfMS: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d span names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		g := got[name]
		if g.Count != w.Count || math.Abs(g.TotalMS-w.TotalMS) > 1e-9 || math.Abs(g.SelfMS-w.SelfMS) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestRecorderSharesOneIDPerJob(t *testing.T) {
	rec := newRecorder()
	j1, j2 := rec.newJob(), rec.newJob()
	root := rec.add(j1, 0, "job", rec.t0, rec.t0.Add(5))
	kid := rec.add(j1, root, "run", rec.t0.Add(1), rec.t0.Add(4))
	other := rec.add(j2, 0, "job", rec.t0, rec.t0.Add(2))
	if j1 == j2 || root == kid || kid == other {
		t.Fatalf("ids collide: jobs %d %d spans %d %d %d", j1, j2, root, kid, other)
	}
	if s := rec.spans[kid-1]; s.Parent != root || s.Job != j1 || s.Start != 1 || s.End != 4 {
		t.Errorf("child span recorded as %+v", s)
	}
}
