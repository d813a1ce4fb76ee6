package pool

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
)

// mailbox implements remote task spawning (§3 of the paper: "a process
// may spawn tasks onto remote queues, although with more overhead due to
// communication"). Thieves cannot push into a victim's split queue — its
// local portion is owner-private — so remote spawns go through a separate
// one-sided inbox ring on the target:
//
//   - the sender claims a ticket with a remote fetch-add on the write
//     cursor, waits for its turn on the ticket's slot (it almost always
//     has it already), puts the encoded descriptor, and marks the slot
//     ready with an atomic store: 3–4 communications per remote spawn, vs
//     0 for a local one;
//   - the owner drains ready slots into its own queue during its regular
//     progress work, handing each slot on to the next lap's sender.
//
// The slot word is the lap-ticket handoff of internal/ldeque's ring, with
// turns numbered per slot so the zeroed heap is the initial state: ticket
// t maps to slot t%slots on lap t/slots; the word reads 2*lap when the
// slot is that lap's sender's to write, 2*lap+1 once its task is ready,
// and the owner's drain stores 2*(lap+1). A sender one lap ahead of an
// undrained slot therefore waits for the drain instead of mistaking
// "someone else's free" for its own, which a two-state free/ready word
// cannot tell apart. The state word hands the slot between sender and
// owner with release/acquire ordering.
type mailbox struct {
	ctx   *shmem.Ctx
	codec task.Codec
	slots int

	writeAddr shmem.Addr // word: global write cursor (fetch-add by senders)
	stateAddr shmem.Addr // slots words: turn numbers
	dataAddr  shmem.Addr // slots * slotSize bytes

	readCursor uint64 // owner-local: the next ticket to drain
	// turns is the state array in this PE's own heap, as memory: the owner
	// polls its next slot's turn word once per scheduler iteration.
	turns []uint64

	// sendBuf and drainBuf stage one encoded descriptor each. Both send
	// and drain run on the PE's owner goroutine only, but a drain may
	// send (a departing PE forwards what it drains), so they are two.
	sendBuf, drainBuf []byte
}

const defaultMailboxSlots = 256

// newMailbox collectively allocates the inbox (same order on every PE).
func newMailbox(ctx *shmem.Ctx, codec task.Codec, slots int) (*mailbox, error) {
	if slots < 1 {
		return nil, fmt.Errorf("pool: mailbox needs at least 1 slot, got %d", slots)
	}
	m := &mailbox{ctx: ctx, codec: codec, slots: slots,
		sendBuf: make([]byte, codec.SlotSize()), drainBuf: make([]byte, codec.SlotSize())}
	var err error
	if m.writeAddr, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	if m.stateAddr, err = ctx.Alloc(slots * shmem.WordSize); err != nil {
		return nil, err
	}
	if m.dataAddr, err = ctx.Alloc(slots * codec.SlotSize()); err != nil {
		return nil, err
	}
	if m.turns, err = ctx.OwnWords(m.stateAddr, slots); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *mailbox) slotState(i int) shmem.Addr {
	return m.stateAddr + shmem.Addr(i*shmem.WordSize)
}

func (m *mailbox) slotData(i int) shmem.Addr {
	return m.dataAddr + shmem.Addr(i*m.codec.SlotSize())
}

// send delivers a descriptor into pe's inbox.
func (m *mailbox) send(pe int, d task.Desc) error {
	if err := m.codec.Encode(m.sendBuf, d); err != nil {
		return err
	}
	ticket, err := m.ctx.FetchAdd64(pe, m.writeAddr, 1)
	if err != nil {
		return err
	}
	slot := int(ticket % uint64(m.slots))
	turn := 2 * (ticket / uint64(m.slots))
	// Wait for the previous lap's task to drain if a full ring lap is
	// outstanding (a slot that stays full means the owner is not draining).
	// The slot is almost always ours already, so the deadline is computed
	// only once the wait actually waits.
	var deadline time.Time
	for {
		st, err := m.ctx.Load64(pe, m.slotState(slot))
		if err != nil {
			return err
		}
		if st == turn {
			break
		}
		if werr := m.ctx.Err(); werr != nil {
			return werr
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(pushTimeout)
		} else if time.Now().After(deadline) {
			return fmt.Errorf("pool: PE %d inbox slot %d stayed full for %v (receiver not draining?)",
				pe, slot, pushTimeout)
		}
		m.ctx.Relax()
	}
	if err := m.ctx.Put(pe, m.slotData(slot), m.sendBuf); err != nil {
		return err
	}
	// The ready store is the release edge the owner's drain acquires.
	return m.ctx.Store64(pe, m.slotState(slot), turn+1)
}

// drain moves every ready inbox task into the owner's queue via push,
// returning how many were delivered.
func (m *mailbox) drain(push func(task.Desc) error) (int, error) {
	me := m.ctx.Rank()
	delivered := 0
	for {
		slot := int(m.readCursor % uint64(m.slots))
		turn := 2 * (m.readCursor / uint64(m.slots))
		if atomic.LoadUint64(&m.turns[slot]) != turn+1 {
			return delivered, nil
		}
		if err := m.ctx.Get(me, m.slotData(slot), m.drainBuf); err != nil {
			return delivered, err
		}
		// Decode copies the payload out, so the staging buffer is free
		// again before push (which may re-enter send) runs.
		d, err := m.codec.Decode(m.drainBuf)
		if err != nil {
			return delivered, fmt.Errorf("pool: corrupt inbox slot %d: %w", slot, err)
		}
		if err := push(d); err != nil {
			return delivered, err
		}
		if err := m.ctx.Store64(me, m.slotState(slot), turn+2); err != nil {
			return delivered, err
		}
		m.readCursor++
		delivered++
	}
}
