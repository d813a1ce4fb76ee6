package pool

import (
	"sws/internal/task"
	"sws/internal/wsq"
)

// privDeque is an executor's private part of the PE's split: a growable
// circular buffer of encoded task slots (the protocol queue's format,
// payload inline) that only its worker touches — plain memory. push encodes
// in place and pop decodes the newest task into one reused buffer, so
// spawn -> pop -> execute allocates nothing; takeOldest serves the ring.
// The indices are written per task, so like workerState it is padded to its
// own 128-byte size class.
type privDeque struct {
	codec  task.Codec
	slot   int    // codec.SlotSize()
	buf    []byte // capacity*slot bytes, capacity a power of two
	mask   int    // capacity - 1
	tail   int    // slot index of the oldest task
	n      int    // tasks held
	popBuf []byte
	_      [40]byte
}

func newPrivDeque(codec task.Codec) *privDeque {
	const capacity = 64
	return &privDeque{
		codec: codec, slot: codec.SlotSize(),
		buf: make([]byte, capacity*codec.SlotSize()), mask: capacity - 1,
		popBuf: wsq.NewPopBuf(codec.PayloadCap()),
	}
}

// at returns the slot of the i-th oldest task.
func (q *privDeque) at(i int) []byte {
	o := ((q.tail + i) & q.mask) * q.slot
	return q.buf[o : o+q.slot]
}

// push adds d as the newest task, doubling the buffer when it is full.
func (q *privDeque) push(d task.Desc) error {
	if q.n > q.mask {
		grown := make([]byte, 2*len(q.buf))
		for i := 0; i < q.n; i++ {
			copy(grown[i*q.slot:], q.at(i))
		}
		q.buf, q.mask, q.tail = grown, 2*q.mask+1, 0
	}
	if err := q.codec.Encode(q.at(q.n), d); err != nil {
		return err
	}
	q.n++
	return nil
}

// pop removes the newest task. Its payload is valid until the next pop —
// a push into the freed slot does not touch it, so a body may encode its
// children into it (Func).
func (q *privDeque) pop() (task.Desc, bool, error) {
	if q.n == 0 {
		return task.Desc{}, false, nil
	}
	q.n--
	d, err := q.codec.DecodeTo(q.at(q.n), q.popBuf)
	return d, err == nil, err
}

// takeOldest removes the oldest task, with a payload of its own: the
// caller parks it in the ring or the staging area. The deque must not be
// empty.
func (q *privDeque) takeOldest() (task.Desc, error) {
	d, err := q.codec.Decode(q.at(0))
	q.tail = (q.tail + 1) & q.mask
	q.n--
	return d, err
}
