package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitParked blocks until n receivers are parked in mb.
func waitParked(t *testing.T, mb *Mailbox, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mb.Lock()
		parked := 0
		for _, q := range mb.queues {
			parked += len(q.waiters)
		}
		mb.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d receivers parked, want %d", parked, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// takeOrPanic runs Take on its own goroutine and reports the message or
// the value Take panicked with.
func takeOrPanic(mb *Mailbox, from, tag int) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		out <- mb.Take(from, tag)
	}()
	return out
}

// TestMailboxContract is the contract suite of the one mailbox every
// backend matches messages in (the sim, native, and netcomm mailbox
// tests it replaces are its cases).
func TestMailboxContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, mb *Mailbox)
	}{
		{"FIFO per (sender, tag)", func(t *testing.T, mb *Mailbox) {
			for i := 0; i < 100; i++ {
				mb.Put(3, 9, Message{Payload: i, Words: int64(i)})
			}
			for i := 0; i < 100; i++ {
				if m := mb.Take(3, 9); m.Payload != i || m.Words != int64(i) {
					t.Fatalf("message %d out of order: %+v", i, m)
				}
			}
		}},
		{"tags and senders do not interfere", func(t *testing.T, mb *Mailbox) {
			// Received in the opposite order of arrival: matching is by
			// (source, tag), not arrival order.
			mb.Put(1, 10, Message{Payload: "a1"})
			mb.Put(1, 10, Message{Payload: "a2"})
			mb.Put(1, 20, Message{Payload: "b"})
			mb.Put(2, 10, Message{Payload: "c", SentAt: 77})
			for _, want := range []struct {
				from, tag int
				payload   string
			}{{2, 10, "c"}, {1, 20, "b"}, {1, 10, "a1"}, {1, 10, "a2"}} {
				if m := mb.Take(want.from, want.tag); m.Payload != want.payload {
					t.Fatalf("take(%d,%d) = %v, want %s", want.from, want.tag, m.Payload, want.payload)
				}
			}
		}},
		{"an unrelated put does not wake a parked receiver", func(t *testing.T, mb *Mailbox) {
			var wakes atomic.Int64
			mb.OnWait = func(int64) { wakes.Add(1) }
			done := takeOrPanic(mb, 7, 42)
			waitParked(t, mb, 1)
			// A storm of arrivals from other sources and on other tags.
			const storm = 1000
			var wg sync.WaitGroup
			for s := 0; s < 4; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < storm; i++ {
						mb.Put(s, 1, Message{Payload: i})
						mb.Put(7, 41, Message{Payload: i})
					}
				}(s)
			}
			wg.Wait()
			select {
			case got := <-done:
				t.Fatalf("receiver returned %v before its message arrived", got)
			default:
			}
			mb.Put(7, 42, Message{Payload: "hit"})
			if got := <-done; got.(Message).Payload != "hit" {
				t.Fatalf("got %v, want the (7,42) message", got)
			}
			if n := wakes.Load(); n != 1 {
				t.Fatalf("receiver was woken %d times, want once (by its own message)", n)
			}
			if got := mb.Pending(); got != 8*storm {
				t.Fatalf("pending = %d, want the %d unrelated messages", got, 8*storm)
			}
			// FIFO within each key survived the concurrent senders.
			for s := 0; s < 4; s++ {
				for i := 0; i < storm; i++ {
					if m := mb.Take(s, 1); m.Payload != i {
						t.Fatalf("source %d: message %d out of order: %v", s, i, m.Payload)
					}
				}
			}
			mb.Lock()
			mb.DropLocked(func(from, tag int) bool { return from == 7 && tag == 41 })
			mb.Unlock()
		}},
		{"concurrent receivers on distinct keys lose no wakeup", func(t *testing.T, mb *Mailbox) {
			// The contract the service layer leans on: many goroutines
			// blocked on distinct keys, each woken by exactly its own put.
			const n = 64
			var wg sync.WaitGroup
			got := make([]any, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = mb.Take(i%4, 100+i).Payload
				}(i)
			}
			waitParked(t, mb, n)
			for i := n - 1; i >= 0; i-- {
				mb.Put(i%4, 100+i, Message{Payload: i, Words: 1})
			}
			wg.Wait()
			for i := 0; i < n; i++ {
				if got[i] != i {
					t.Fatalf("receiver %d got %v", i, got[i])
				}
			}
		}},
		{"consumed payloads are not pinned by the backing array", func(t *testing.T, mb *Mailbox) {
			for i := 0; i < 3; i++ {
				mb.Put(0, 5, Message{Payload: make([]byte, 1<<10)})
			}
			mb.Take(0, 5)
			mb.Take(0, 5)
			q := mb.queues[mboxKey{0, 5}]
			for i, m := range q.msgs[:q.head] {
				if m.Payload != nil {
					t.Fatalf("slot %d still references its consumed payload", i)
				}
			}
			mb.Take(0, 5)
		}},
		{"the keys of finished work are swept out", func(t *testing.T, mb *Mailbox) {
			// A service's jobs each use fresh tags; a few keys recur.
			for job := 1; job <= 5000; job++ {
				mb.Put(1, job<<24|7, Message{Payload: job})
				mb.Put(2, 7, Message{Payload: job})
				mb.Take(1, job<<24|7)
				mb.Take(2, 7)
				if n := len(mb.queues); n > 200 {
					t.Fatalf("%d queues in the map after %d jobs with one live key each", n, job)
				}
			}
		}},
		{"a standing backlog does not grow the queue", func(t *testing.T, mb *Mailbox) {
			const backlog, rounds = 8, 10000
			for i := 0; i < backlog; i++ {
				mb.Put(0, 5, Message{Payload: i})
			}
			for i := 0; i < rounds; i++ {
				mb.Put(0, 5, Message{Payload: backlog + i})
				if m := mb.Take(0, 5); m.Payload != i {
					t.Fatalf("message %d out of order: %v", i, m.Payload)
				}
			}
			if c := cap(mb.queues[mboxKey{0, 5}].msgs); c > 8*backlog {
				t.Fatalf("queue grew to %d slots for a backlog of %d", c, backlog)
			}
			for i := 0; i < backlog; i++ {
				mb.Take(0, 5)
			}
		}},
		{"poison wakes every waiter and is sticky", func(t *testing.T, mb *Mailbox) {
			const n = 8
			outs := make([]<-chan any, n)
			for i := range outs {
				outs[i] = takeOrPanic(mb, 1, 7000+i)
			}
			waitParked(t, mb, n)
			mb.Put(2, 1, Message{Payload: "buffered"})
			mb.Poison("first")
			mb.Poison("second")
			for i, out := range outs {
				select {
				case got := <-out:
					if got != "first" {
						t.Fatalf("receiver %d ended with %v, want the first poison", i, got)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("receiver %d still parked after Poison", i)
				}
			}
			// Buffered messages stay takeable; waiting for a new one fails.
			if m := mb.Take(2, 1); m.Payload != "buffered" {
				t.Fatalf("buffered message lost: %v", m.Payload)
			}
			if got := <-takeOrPanic(mb, 2, 1); got != "first" {
				t.Fatalf("take after poison ended with %v", got)
			}
		}},
		{"the guard is re-evaluated per key on WakeAllLocked", func(t *testing.T, mb *Mailbox) {
			// netcomm's shape: failure state under the mailbox lock.
			dead := map[int]bool{}
			mb.guard = func(from, tag int) any {
				if dead[from] {
					return fmt.Sprintf("peer %d is gone", from)
				}
				return nil
			}
			gone, alive := takeOrPanic(mb, 1, 5), takeOrPanic(mb, 2, 5)
			waitParked(t, mb, 2)
			mb.Lock()
			dead[1] = true
			mb.WakeAllLocked()
			mb.Unlock()
			if got := <-gone; got != "peer 1 is gone" {
				t.Fatalf("receiver on the dead peer ended with %v", got)
			}
			waitParked(t, mb, 1) // the other receiver parked again
			mb.Put(2, 5, Message{Payload: "ok"})
			if got := <-alive; got.(Message).Payload != "ok" {
				t.Fatalf("receiver on the live peer ended with %v", got)
			}
		}},
		{"DropLocked discards matching queues only", func(t *testing.T, mb *Mailbox) {
			mb.Put(1, 1<<24|5, Message{Payload: "job"})
			mb.Put(1, 5, Message{Payload: "keep"})
			parked := takeOrPanic(mb, 2, 1<<24|6)
			waitParked(t, mb, 1)
			mb.Lock()
			mb.DropLocked(func(_, tag int) bool { return tag>>24 == 1 })
			mb.Unlock()
			if got := mb.Pending(); got != 1 {
				t.Fatalf("pending = %d after drop, want 1", got)
			}
			if m := mb.Take(1, 5); m.Payload != "keep" {
				t.Fatalf("unmatched message lost: %v", m.Payload)
			}
			mb.Put(2, 1<<24|6, Message{Payload: "late"})
			if got := <-parked; got.(Message).Payload != "late" {
				t.Fatalf("receiver parked across the drop ended with %v", got)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mb := NewMailbox(nil)
			tc.run(t, mb)
			if t.Failed() {
				return
			}
			mb.Lock()
			defer mb.Unlock()
			for k, q := range mb.queues {
				if q.head != len(q.msgs) || len(q.waiters) != 0 {
					t.Errorf("queue %v left with %d messages and %d receivers", k, len(q.msgs)-q.head, len(q.waiters))
				}
			}
			if mb.pending != 0 {
				t.Errorf("pending = %d after the case drained the mailbox", mb.pending)
			}
		})
	}
}

// BenchmarkMailboxFanIn is the wake-storm regression benchmark: p-1
// senders each deliver msgs messages to one receiver, which takes them
// source by source — the receive pattern of every gather/all-to-all
// collective. With one machine-wide wake token, every unrelated arrival
// woke the parked receiver into a futile lock round-trip (O(p·msgs)
// spurious wakeups); the per-key waiter lists keep wakes at exactly one
// per blocking take.
func BenchmarkMailboxFanIn(b *testing.B) {
	const senders = 16
	const msgs = 64
	mb := NewMailbox(nil)
	payload := make([]uint64, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		wg.Add(senders)
		for s := 0; s < senders; s++ {
			go func(s int) {
				defer wg.Done()
				for m := 0; m < msgs; m++ {
					mb.Put(s, 5, Message{Payload: payload, Words: int64(len(payload))})
				}
			}(s)
		}
		// The receiver drains source by source, like a gather: while it
		// is parked on source s, the other senders' arrivals must not
		// wake it.
		for s := 0; s < senders; s++ {
			for m := 0; m < msgs; m++ {
				mb.Take(s, 5)
			}
		}
		wg.Wait()
	}
}
