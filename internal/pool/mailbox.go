package pool

import (
	"errors"
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
// one-sided inbox ring on the target. Spawns travel in batches, and a
// batch into a ring that is not full is exactly two communications however
// many tasks it carries; the owner's side is its own memory:
//
//   - the sender encodes each task into its one outbox, which holds up to
//     a ring's worth for one target; a spawn to another target flushes it
//     first. A flush claims the batch's n tickets with one remote fetch-add
//     on the write cursor and delivers them with one put-with-signal per
//     contiguous span of slots (two when the batch wraps the ring's end):
//     the encoded descriptors into slots ticket%slots onwards, then the
//     ticket just past the span into the signal word of the span's first
//     slot, its head;
//   - the owner drains in ticket order during its regular progress work:
//     at a batch boundary it reads the next slot's signal, and a value past
//     its read cursor says how many slots from there are ready; it moves
//     them into its queue, whole or task by task. It never writes a signal.
//
// The sender does not probe the slots, it holds a credit. Drains are in
// ticket order, so slot t%slots is free for ticket t iff the owner's read
// cursor is past t-slots, and the cursor only grows: any copy a sender has
// of it is a safe lower bound. The owner publishes the cursor into one word
// of its heap once per drained batch — after the pushes, so a slot is never
// rewritten while its task is still being read out of it — and a sender
// fetches that word only when its batch's last ticket has run a full lap
// past its copy: one probe in slots/senders sends instead of one per send.
//
// A head's signal is never at or below the cursor the owner reads it at:
// the zeroed heap is the initial state, and a head left from an earlier lap
// holds at most that lap's ticket plus slots, which the cursor has passed.
// So a word needs one writer per lap and no hand-back store, and words
// inside a span are never read. A batch of one writes ticket+1 into its own
// slot: the single send. Ticket, cursor and signal are full 64-bit words;
// nothing wraps.
type mailbox struct {
	ctx      *shmem.Ctx
	codec    task.Codec
	slots    uint64
	slotSize int

	writeAddr  shmem.Addr // word: write cursor (senders fetch-add tickets)
	signalAddr shmem.Addr // slots words: a head's ticket just past its span
	dataAddr   shmem.Addr // slots * slotSize bytes
	creditAddr shmem.Addr // word: the owner's published read cursor

	// The owner's side, as memory of this PE's own heap: it polls its next
	// slot's signal on the scheduler's beat and whenever it runs dry.
	readCursor uint64 // the next ticket to drain
	batchEnd   uint64 // the ticket past the batch being drained: the next head
	readSlot   int    // readCursor % slots, stepped by a compare and wrap
	signals    []uint64
	data       []byte
	credit     *uint64

	// The sender's side. known[pe] is a lower bound on pe's read cursor;
	// the outbox holds outN encoded tasks for PE outPE not yet sent, in
	// room for a ring's worth allocated at the first remote spawn. Send,
	// flush and drain all run on the PE's owner goroutine only.
	known []uint64
	out   []byte
	outPE int
	outN  int

	// ownDrain is the owner's inbox drain (Pool.stepDrainInbox): the
	// scheduler's poll, and what a flush waiting on a full ring runs between
	// credit polls, so two PEs whose task bodies spawn onto each other with
	// both rings full each make room for the other instead of waiting out
	// pushTimeout. draining is set for the length of a drain, so a send from
	// inside one — a departing PE forwarding what it drains — does not start
	// a second drain over the slot the first is still reading.
	ownDrain func() (bool, error)
	draining bool
	hold     func(bool) // term.Detector.Hold, while gone waits out a verdict
	_        [24]byte   // outN is written per task: a 256-byte size class of its own
}

const defaultMailboxSlots = 256

// errCorruptInbox marks an inbox slot the owner cannot drain: a
// descriptor that does not decode, or a head whose span runs past the
// ring's end, which no sender writes.
var errCorruptInbox = errors.New("pool: corrupt inbox slot")

// pushTimeout bounds how long a remote spawn waits for its inbox slot.
const pushTimeout = 10 * time.Second

// newMailbox collectively allocates the inbox (same order on every PE).
func newMailbox(ctx *shmem.Ctx, codec task.Codec, slots int) (*mailbox, error) {
	if slots < 1 {
		return nil, fmt.Errorf("pool: mailbox needs at least 1 slot, got %d", slots)
	}
	// known is read on every flush: like a queue's pop buffer it gets
	// cache lines of its own.
	n := ctx.NumPEs()
	m := &mailbox{ctx: ctx, codec: codec, slots: uint64(slots), slotSize: codec.SlotSize(),
		known: make([]uint64, n, (n+15)&^15)}
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

// add encodes d into the outbox, reporting whether that filled it. The
// outbox must hold nothing for another PE (see holdsOther).
func (m *mailbox) add(pe int, d task.Desc) (bool, error) {
	if m.out == nil {
		m.out = wsq.NewPopBuf(int(m.slots) * m.slotSize)
	}
	if err := m.codec.Encode(m.out[m.outN*m.slotSize:], d); err != nil {
		return false, err
	}
	m.outPE = pe
	m.outN++
	return m.outN == int(m.slots), nil
}

// holdsOther reports whether the outbox holds tasks for a PE other than pe,
// which must go before a task for pe goes in.
func (m *mailbox) holdsOther(pe int) bool { return m.outN != 0 && m.outPE != pe }

// send delivers d into pe's inbox now, or fails. The outbox must be empty.
func (m *mailbox) send(pe int, d task.Desc) error {
	if _, err := m.add(pe, d); err != nil {
		return err
	}
	_, err := m.flush(nil)
	return err
}

// flush sends the outbox as one batch, returning how many tasks went. It
// empties the outbox whatever happens: the tasks are counted as spawned.
// With a home (the sender's own queue), a batch whose target is gone is not
// the run's failure: unclaimed, it wrote nothing the rank reads and lands
// home; claimed, it is written off with its target (at most once). Any
// other failure is the run's, not a retry.
func (m *mailbox) flush(home func(task.Desc) error) (int, error) {
	n := m.outN
	if n == 0 {
		return 0, nil
	}
	m.outN = 0
	claimed, err := m.sendBatch(m.outPE, m.out, uint64(n))
	switch {
	case err == nil:
		return n, nil
	case home == nil || !m.gone(m.outPE, err):
		return 0, fmt.Errorf("pool: remote spawn batch of %d to PE %d: %w", n, m.outPE, err)
	case claimed:
		return n, nil // written off with its target
	}
	for i := 0; i < n; i++ {
		d, err := m.codec.View(m.out[i*m.slotSize:][:m.slotSize])
		if err == nil {
			err = home(d)
		}
		if err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// gone reports whether pe is dead after a send to it failed with err. An
// unanswered one (ErrOpTimeout: a crash the detector has not declared, or
// a slow live peer whose side may have applied) waits for the verdict,
// holding the batch and draining as awaitCredit does, up to pushTimeout.
// A live target, draining or partitioned included, is never gone.
func (m *mailbox) gone(pe int, err error) bool {
	lv := m.ctx.Liveness()
	if errors.Is(err, shmem.ErrOpTimeout) {
		m.hold(true)
		defer m.hold(false)
		wait := m.ctx.NewWait(pushTimeout)
		for lv.Alive(pe) && m.ctx.Err() == nil && !wait.Poll() {
			if !m.draining {
				if _, err := m.ownDrain(); err != nil {
					return false
				}
			}
		}
	}
	return !lv.Alive(pe)
}

// sendBatch claims the tickets of the first n encoded slots in enc with one
// fetch-add and writes them with one put-with-signal per contiguous span
// of pe's ring, reporting whether the claim went through. A batch holds at
// most slots tasks, so the credit its last ticket needs is a cursor of at
// most its first: earlier tickets only.
func (m *mailbox) sendBatch(pe int, enc []byte, n uint64) (bool, error) {
	first, err := m.ctx.FetchAdd64(pe, m.writeAddr, n)
	if err != nil {
		return false, err
	}
	end := first + n
	if end-1-m.known[pe] >= m.slots {
		if err := m.awaitCredit(pe, end-1); err != nil {
			return true, err
		}
	}
	for t := first; t < end; {
		slot := t % m.slots
		span := min(end-t, m.slots-slot)
		at := int(t-first) * m.slotSize
		if err := m.ctx.PutSignal(pe,
			m.dataAddr+shmem.Addr(slot*uint64(m.slotSize)), enc[at:at+int(span)*m.slotSize],
			m.signalAddr+shmem.Addr(slot*shmem.WordSize), t+span); err != nil {
			return true, err
		}
		t += span
	}
	return true, nil
}

// awaitCredit refreshes known[pe] until it covers ticket: the previous
// lap's task has left the ticket's slot. Between polls the sender drains
// its own inbox, since pe may be waiting on it the same way. A ring that
// stays full means the owner is not draining.
func (m *mailbox) awaitCredit(pe int, ticket uint64) error {
	wait := m.ctx.NewWait(pushTimeout)
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
		if m.ownDrain != nil && !m.draining {
			if _, err := m.ownDrain(); err != nil {
				return err
			}
		}
		if wait.Poll() {
			return fmt.Errorf("pool: PE %d inbox stayed full for %v: ticket %d, read cursor %d, %d slots (receiver not draining?)",
				pe, pushTimeout, ticket, cursor, m.slots)
		}
	}
}

// drain moves every ready inbox task into the owner's queue, returning how
// many were delivered: a batch's span of checked slots in one bulk call
// (wsq.Queue.PushSlots) while bulk takes them, else task by task via push,
// which gets the descriptor as it lies in the slot and must be done with
// it when it returns. The cursor that frees the slots is published after
// the batch. A signal is read only at a batch boundary, so a drain that
// stops inside a batch resumes there.
func (m *mailbox) drain(push func(task.Desc) error, bulk func(enc []byte, n int) (bool, error)) (int, error) {
	first := m.readCursor
	m.draining = true
	var err error
	for {
		slot := m.readSlot
		if m.readCursor == m.batchEnd {
			end := atomic.LoadUint64(&m.signals[slot])
			if end <= m.readCursor {
				break // no head here yet, or a stale one
			}
			if end-m.readCursor > uint64(len(m.signals)-slot) {
				err = fmt.Errorf("%w %d: head at ticket %d spans %d slots, %d left before the ring's end",
					errCorruptInbox, slot, m.readCursor, end-m.readCursor, len(m.signals)-slot)
				break
			}
			m.batchEnd = end
		}
		n, at := int(m.batchEnd-m.readCursor), slot*m.slotSize
		landed := false
		if bulk != nil && m.codec.Fits(m.data[at:], n) {
			if landed, err = bulk(m.data[at:at+n*m.slotSize], n); err != nil {
				break
			}
		}
		if !landed {
			bulk, n = nil, 1
			var d task.Desc
			if d, err = m.codec.View(m.data[at:][:m.slotSize]); err != nil {
				err = fmt.Errorf("%w %d: %w", errCorruptInbox, slot, err)
				break
			}
			if err = push(d); err != nil {
				break
			}
		}
		m.readCursor += uint64(n)
		if m.readSlot += n; m.readSlot == len(m.signals) {
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
