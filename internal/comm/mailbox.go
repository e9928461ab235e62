package comm

import (
	"sync"
	"time"
)

// Message is an in-flight point-to-point message.
type Message struct {
	Payload any
	Words   int64
	// SentAt is the sender's clock when the send began: the simulator's
	// receiver cannot complete the matching receive earlier. Backends
	// running at hardware speed leave it zero.
	SentAt int64
}

// mboxKey identifies a (source global rank, tag) message queue.
type mboxKey struct {
	from, tag int
}

// queue is one (source, tag) FIFO plus the receivers parked on exactly
// this key. It never holds both: a receiver parks only on an empty
// queue, and a message arriving for a parked receiver is handed over
// without being queued.
type queue struct {
	msgs    []Message // msgs[head:] are undelivered
	head    int
	waiters []chan wakeup // longest-parked first
}

// wakeup is what a parked receiver is woken with: its message, or the
// request to look again because the guard's inputs changed.
type wakeup struct {
	m       Message
	recheck bool
}

// wakeChans recycles the capacity-1 channels receivers park on. A waker
// detaches a channel from its waiter list under the lock and sends
// exactly once; the receiver puts it back only after that receive, so a
// pooled channel is always empty and a send on a listed one never
// blocks.
var wakeChans = sync.Pool{New: func() any { return make(chan wakeup, 1) }}

// Mailbox is a PE's incoming message store, the one implementation of
// the matching contract every backend shares: messages are matched by
// (source, tag) and are FIFO within each such pair — which is also what
// makes the simulator's virtual time deterministic. Senders never block
// (eager, unbounded buffering).
//
// Any number of goroutines may block in Take concurrently. Each parks on
// its key's waiter list, and a Put for that key hands its message
// straight to the longest-parked one: the fan-in of a collective neither
// wakes a receiver parked on another source nor forces it to rescan, a
// woken receiver does not come back for the lock, and a thousand
// concurrent service jobs do not stampede each other.
//
// A Take that finds no matching message consults the mailbox's guard
// before parking, and again whenever WakeAllLocked wakes it; a non-nil
// verdict makes it panic with that value instead of blocking forever.
// That is the one poison hook: Poison installs a constant guard (a PE of
// an in-process machine panicked), and netcomm passes NewMailbox a guard
// over its failure state — fatal error, stalled or hung-up peers,
// retired tag namespaces — which it keeps under the mailbox's lock (the
// embedded mutex) and changes through the *Locked methods.
type Mailbox struct {
	sync.Mutex
	queues  map[mboxKey]*queue
	sweepAt int // len(queues) at which idle queues are next swept out
	pending int // queued, undelivered messages
	guard   func(from, tag int) any

	// OnWait, when set before the first Take, is told how long each
	// blocked receive stayed parked (netcomm's mbox.wait.ns counter).
	OnWait func(ns int64)
}

// NewMailbox returns an empty mailbox. guard may be nil; it is called
// with the lock held.
func NewMailbox(guard func(from, tag int) any) *Mailbox {
	return &Mailbox{queues: make(map[mboxKey]*queue), guard: guard}
}

// queueOf returns the queue of k, entering one into the map if needed.
// An idle queue (no messages, no receivers) stays in the map with its
// backing arrays, so the keys a program keeps coming back to cost a
// lookup and no allocation; the keys of finished work (a service job's
// tag namespace) are swept out whenever the map has doubled, so they do
// not accumulate.
func (mb *Mailbox) queueOf(k mboxKey) *queue {
	q := mb.queues[k]
	if q == nil {
		if len(mb.queues) >= mb.sweepAt {
			for k, q := range mb.queues {
				if q.head == len(q.msgs) && len(q.waiters) == 0 {
					delete(mb.queues, k)
				}
			}
			mb.sweepAt = 2*len(mb.queues) + 16
		}
		q = &queue{}
		mb.queues[k] = q
	}
	return q
}

// Put delivers a message from the given source rank under the given
// tag: to the longest-parked receiver of exactly that key if there is
// one, to the key's queue otherwise.
func (mb *Mailbox) Put(from, tag int, m Message) {
	mb.Lock()
	mb.PutLocked(from, tag, m)
	mb.Unlock()
}

// PutLocked is Put for callers holding the lock; it returns the number
// of queued messages.
func (mb *Mailbox) PutLocked(from, tag int, m Message) (pending int) {
	k := mboxKey{from, tag}
	q := mb.queueOf(k)
	if n := len(q.waiters); n > 0 {
		ch := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters = q.waiters[:n-1]
		ch <- wakeup{m: m}
		return mb.pending
	}
	if q.head > len(q.msgs)/2 {
		// Mostly consumed slots: move the live tail to the front, so a
		// queue that never fully drains does not grow without bound.
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, m)
	mb.pending++
	return mb.pending
}

// WakeAllLocked wakes every parked receiver so it re-evaluates the
// guard. Callers hold the lock and have just changed what the guard
// reads.
func (mb *Mailbox) WakeAllLocked() {
	for _, q := range mb.queues {
		for _, ch := range q.waiters {
			ch <- wakeup{recheck: true}
		}
		q.waiters = q.waiters[:0]
	}
}

// Poison makes every blocked and future Take that finds no matching
// message panic with reason. The first poison (or the constructor's
// guard) wins.
func (mb *Mailbox) Poison(reason any) {
	mb.Lock()
	if mb.guard == nil {
		mb.guard = func(int, int) any { return reason }
	}
	mb.WakeAllLocked()
	mb.Unlock()
}

// DropLocked discards the queued messages of every key match selects
// (netcomm retiring an aborted job's tag namespace). Callers hold the
// lock.
func (mb *Mailbox) DropLocked(match func(from, tag int) bool) {
	for k, q := range mb.queues {
		if match(k.from, k.tag) {
			mb.pending -= len(q.msgs) - q.head
			clear(q.msgs)
			q.msgs, q.head = q.msgs[:0], 0
		}
	}
}

// Take blocks until a message from the given source with the given tag
// is available and returns it. It panics with the guard's verdict when
// none is queued and the guard objects.
func (mb *Mailbox) Take(from, tag int) Message {
	k := mboxKey{from, tag}
	for {
		mb.Lock()
		if q := mb.queues[k]; q != nil && q.head < len(q.msgs) {
			m := q.msgs[q.head]
			// Clear the slot so the backing array does not pin the
			// consumed payload.
			q.msgs[q.head] = Message{}
			q.head++
			mb.pending--
			mb.Unlock()
			return m
		}
		if mb.guard != nil {
			if reason := mb.guard(from, tag); reason != nil {
				mb.Unlock()
				panic(reason)
			}
		}
		ch := wakeChans.Get().(chan wakeup)
		q := mb.queueOf(k)
		q.waiters = append(q.waiters, ch)
		mb.Unlock()
		var w wakeup
		if mb.OnWait != nil {
			t0 := time.Now()
			w = <-ch
			mb.OnWait(time.Since(t0).Nanoseconds())
		} else {
			w = <-ch
		}
		wakeChans.Put(ch)
		if !w.recheck {
			return w.m
		}
	}
}

// Pending reports the number of queued, undelivered messages.
func (mb *Mailbox) Pending() int {
	mb.Lock()
	defer mb.Unlock()
	return mb.pending
}
