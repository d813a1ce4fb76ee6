package core

import (
	"testing"
)

// FuzzGrowShrinkSpill decodes a queue geometry and a lockstep op schedule
// from the fuzz input and drives them through the model harness: byte 0-2
// pick the starting capacity, ladder height, and spill-block size; byte 3
// selects fused steals and seeds the harness; every later byte becomes
// one schedule step (odd = thief steal, even = owner op, biased toward
// Push so small rings are forced through grow, spill, and shrink). The
// harness's reference model then checks exactly-once delivery and a fully
// drained arena, and after every owner op that no idle completion slot
// holds a stale count (idleSlotsZero), so the mutator is free to hunt for
// op orders that tear the reseat, lose a spilled task or leave a slot
// dirty for the next epoch of its parity.
func FuzzGrowShrinkSpill(f *testing.F) {
	// A push flood into a 4-slot ring (grow + spill), then steals and a
	// drain; a mixed schedule; a shrink-heavy schedule.
	f.Add([]byte{0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 10, 2, 10})
	f.Add([]byte{1, 1, 3, 1, 0, 4, 1, 0, 8, 1, 12, 0, 1, 2, 0, 10, 1, 4, 0, 1, 8})
	f.Add([]byte{2, 3, 5, 2, 0, 0, 0, 0, 0, 0, 10, 10, 10, 10, 12, 12, 12, 1, 1, 14, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		opts := Options{
			Epochs:     true,
			Capacity:   4 << (data[0] % 3), // 4, 8, 16
			MaxGrowth:  1 + int(data[1]%3), // 1..3
			SpillBlock: 2 + int(data[2]%7), // 2..8
			Growable:   true,
			Fused:      data[3]&1 == 1,
		}
		steps := data[4:]
		if len(steps) > 400 {
			steps = steps[:400]
		}
		schedule := make([]modelStep, 0, len(steps))
		for _, b := range steps {
			if b&1 == 1 {
				schedule = append(schedule, modelStep{1, opSteal})
				continue
			}
			// Owner turn: map half the byte space to Push so the ring
			// actually climbs its ladder; the rest spread over the
			// remaining owner ops.
			if v := (b >> 1) % 8; v < 4 {
				schedule = append(schedule, modelStep{0, opPush})
			} else {
				schedule = append(schedule, modelStep{0, modelOp(v - 3)}) // opPop..opProgress
			}
		}
		st, err := runModelScheduleSteps(t, opts, int64(data[3]), schedule)
		if err != nil {
			t.Fatalf("opts %+v, %d steps: %v", opts, len(schedule), err)
		}
		if st.SpillDepth != 0 {
			t.Fatalf("drained run left %d tasks in the spill arena (stats %+v)", st.SpillDepth, st)
		}
	})
}
