package pool

import (
	"fmt"
	"sync/atomic"
	"time"

	"sws/internal/shmem"
	"sws/internal/task"
	"sws/internal/wsq"
)

// mailbox implements remote task spawning (§3 of the paper: "a process
// may spawn tasks onto remote queues, although with more overhead due to
// communication"). Thieves cannot push into a victim's split queue — its
// local portion is owner-private — so remote spawns go through a separate
// one-sided inbox ring on the target. A spawn into a ring that is not full
// is exactly two communications, and the owner's side is its own memory:
//
//   - the sender claims a ticket with a remote fetch-add on the write
//     cursor and delivers with one put-with-signal: the encoded descriptor
//     into slot ticket%slots, then ticket+1 into the slot's signal word;
//   - the owner drains in ticket order during its regular progress work:
//     it waits for its next slot's signal to read readCursor+1, decodes the
//     task out of the slot and pushes it. It never writes the signal back.
//
// The sender does not probe the slot, it holds a credit. Drains are in
// ticket order, so slot t%slots is free for ticket t iff the owner's read
// cursor is past t-slots, and the cursor only grows: any copy a sender has
// of it is a safe lower bound. The owner publishes the cursor into one word
// of its heap once per drained batch — after the pushes, so a slot is never
// rewritten while its task is still being read out of it — and a sender
// fetches that word only when its ticket has run a full lap past its copy:
// one probe in slots/senders sends instead of one per send.
//
// The signal is the ticket plus one, so it is never zero (the zeroed heap
// is the initial state: no slot's first signal is 0) and never repeats on a
// slot: a lap-old signal cannot pass for the one the owner waits for, which
// is what lets the word have one writer per lap and no hand-back store.
// Ticket, cursor and signal are full 64-bit words; nothing wraps.
type mailbox struct {
	ctx      *shmem.Ctx
	codec    task.Codec
	slots    uint64
	slotSize int

	writeAddr  shmem.Addr // word: write cursor (senders fetch-add tickets)
	signalAddr shmem.Addr // slots words: ticket+1 of the task each slot holds
	dataAddr   shmem.Addr // slots * slotSize bytes
	creditAddr shmem.Addr // word: the owner's published read cursor

	// The owner's side, as memory of this PE's own heap: it polls its next
	// slot's signal once per scheduler iteration.
	readCursor uint64 // the next ticket to drain
	readSlot   int    // readCursor % slots, stepped by a compare and wrap
	signals    []uint64
	data       []byte
	credit     *uint64

	// The sender's side. known[pe] is a lower bound on pe's read cursor.
	// Send and drain both run on the PE's owner goroutine only.
	known   []uint64
	sendBuf []byte

	// ownDrain is the owner's inbox drain (Pool.stepDrainInbox), run between
	// credit polls while a send waits on a full ring: two PEs whose task
	// bodies spawn onto each other with both rings full then each make room
	// for the other instead of waiting out pushTimeout. draining is set for
	// the length of a drain, so a send from inside one — a departing PE
	// forwarding what it drains — does not start a second drain over the
	// slot the first is still reading.
	ownDrain func() (bool, error)
	draining bool
}

const defaultMailboxSlots = 256

// pushTimeout bounds how long a remote spawn waits for its inbox slot.
const pushTimeout = 10 * time.Second

// newMailbox collectively allocates the inbox (same order on every PE).
func newMailbox(ctx *shmem.Ctx, codec task.Codec, slots int) (*mailbox, error) {
	if slots < 1 {
		return nil, fmt.Errorf("pool: mailbox needs at least 1 slot, got %d", slots)
	}
	// known and sendBuf are read, and sendBuf written, on every send: like
	// a queue's pop buffer they get cache lines of their own.
	n := ctx.NumPEs()
	m := &mailbox{ctx: ctx, codec: codec, slots: uint64(slots), slotSize: codec.SlotSize(),
		known: make([]uint64, n, (n+15)&^15), sendBuf: wsq.NewPopBuf(codec.SlotSize())}
	var err error
	if m.writeAddr, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	if m.signalAddr, err = ctx.Alloc(slots * shmem.WordSize); err != nil {
		return nil, err
	}
	if m.dataAddr, err = ctx.Alloc(slots * m.slotSize); err != nil {
		return nil, err
	}
	if m.creditAddr, err = ctx.Alloc(shmem.WordSize); err != nil {
		return nil, err
	}
	if m.signals, err = ctx.OwnWords(m.signalAddr, slots); err != nil {
		return nil, err
	}
	if m.data, err = ctx.OwnBytes(m.dataAddr, slots*m.slotSize); err != nil {
		return nil, err
	}
	credit, err := ctx.OwnWords(m.creditAddr, 1)
	if err != nil {
		return nil, err
	}
	m.credit = &credit[0]
	return m, nil
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
	if ticket-m.known[pe] >= m.slots {
		if err := m.awaitCredit(pe, ticket); err != nil {
			return err
		}
	}
	slot := ticket % m.slots
	return m.ctx.PutSignal(pe,
		m.dataAddr+shmem.Addr(slot*uint64(m.slotSize)), m.sendBuf,
		m.signalAddr+shmem.Addr(slot*shmem.WordSize), ticket+1)
}

// awaitCredit refreshes known[pe] until it covers ticket: the previous
// lap's task has left the ticket's slot. Between polls the sender drains
// its own inbox, since pe may be waiting on it the same way. A ring that
// stays full means the owner is not draining.
func (m *mailbox) awaitCredit(pe int, ticket uint64) error {
	var deadline time.Time
	for {
		cursor, err := m.ctx.Load64(pe, m.creditAddr)
		if err != nil {
			return err
		}
		m.known[pe] = cursor
		if ticket-cursor < m.slots {
			return nil
		}
		if werr := m.ctx.Err(); werr != nil {
			return werr
		}
		if deadline.IsZero() {
			deadline = m.ctx.Now().Add(pushTimeout)
		} else if m.ctx.Now().After(deadline) {
			return fmt.Errorf("pool: PE %d inbox stayed full for %v: ticket %d, read cursor %d, %d slots (receiver not draining?)",
				pe, pushTimeout, ticket, cursor, m.slots)
		}
		if m.ownDrain != nil && !m.draining {
			if _, err := m.ownDrain(); err != nil {
				return err
			}
		}
		m.ctx.Relax()
	}
}

// drain moves every ready inbox task into the owner's queue via push,
// returning how many were delivered. push gets the descriptor as it lies
// in the slot and must be done with it when it returns: the cursor that
// frees the slot is published after the batch.
func (m *mailbox) drain(push func(task.Desc) error) (int, error) {
	first := m.readCursor
	m.draining = true
	var err error
	for {
		slot := m.readSlot
		if atomic.LoadUint64(&m.signals[slot]) != m.readCursor+1 {
			break
		}
		var d task.Desc
		if d, err = m.codec.View(m.data[slot*m.slotSize:][:m.slotSize]); err != nil {
			err = fmt.Errorf("pool: corrupt inbox slot %d: %w", slot, err)
			break
		}
		if err = push(d); err != nil {
			break
		}
		m.readCursor++
		if m.readSlot++; m.readSlot == len(m.signals) {
			m.readSlot = 0
		}
	}
	m.draining = false
	delivered := int(m.readCursor - first)
	if delivered > 0 {
		atomic.StoreUint64(m.credit, m.readCursor)
	}
	return delivered, err
}
