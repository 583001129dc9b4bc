package window

import (
	"sync"
	"time"

	"hhgb/internal/gb"
)

// Summary is the per-window digest published to subscribers when a window
// seals. Err is non-nil when the seal-time aggregation failed (the window
// itself sealed regardless); the counting fields are zero then.
type Summary[T gb.Number] struct {
	Level        int
	Start, End   int64  // the window's event-time bounds, unix nanoseconds
	Entries      int    // distinct stored cells
	Sources      int    // non-empty rows
	Destinations int    // non-empty columns
	Total        T      // sum of stored values
	MaxOutDegree uint64 // most stored cells in one row
	MaxInDegree  uint64 // most stored cells in one column
	Err          error
}

// Subscription is one live feed of seal summaries. The store publishes
// exactly one Summary per sealed window, in global seal order. By default
// the queue is unbounded, so a slow consumer delays nobody (it trades
// memory for the ordering guarantee); with Config.SubscriberQueue set,
// the bound is a TRIGGER, not a hard cap — summaries keep queueing past
// it (no consumer ever observes a gap), but a subscription that stays at
// or over the bound for longer than Config.SubscriberPatience is evicted:
// closed, its backlog dropped, Evicted reporting true. Close it when
// done; the store's Close ends every subscription.
type Subscription[T gb.Number] struct {
	store    *Store[T]
	id       uint64
	levels   map[int]bool // nil = all levels
	limit    int          // queued-summary bound; 0 = unbounded
	patience time.Duration

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []Summary[T]
	fullSince time.Time // when the queue was first seen full; zero if not
	closed    bool
	evicted   bool
}

// Subscribe registers a feed of seal summaries for the given levels (none
// = every level). Windows sealed before the call are not replayed.
func (s *Store[T]) Subscribe(levels ...int) *Subscription[T] {
	sub := &Subscription[T]{
		store:    s,
		limit:    s.cfg.SubscriberQueue,
		patience: s.cfg.SubscriberPatience,
	}
	sub.cond = sync.NewCond(&sub.mu)
	if len(levels) > 0 {
		sub.levels = make(map[int]bool, len(levels))
		for _, l := range levels {
			sub.levels[l] = true
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sub.Close()
		return sub
	}
	s.nextSub++
	sub.id = s.nextSub
	s.subs[sub.id] = sub
	s.mu.Unlock()
	return sub
}

func (sub *Subscription[T]) wants(level int) bool {
	return sub.levels == nil || sub.levels[level]
}

// push queues one summary, applying the eviction policy first; it reports
// whether the summary was delivered. Runs under sealMu (never the store
// mutex), so the eviction's deregistration can take store.mu safely.
func (sub *Subscription[T]) push(sum Summary[T]) bool {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return false
	}
	if sub.limit > 0 && len(sub.queue) >= sub.limit {
		if sub.fullSince.IsZero() {
			sub.fullSince = wallNow()
		}
		if wallSince(sub.fullSince) >= sub.patience {
			// Past patience: cut the subscriber loose. The backlog is
			// dropped — an evicted consumer's feed has a gap by
			// definition, and holding its memory helps nobody.
			sub.evicted = true
			sub.closed = true
			sub.queue = nil
			sub.cond.Broadcast()
			sub.mu.Unlock()
			sub.detach()
			sub.store.cfg.Metrics.SubEvictions.Inc()
			return false
		}
	} else {
		sub.fullSince = time.Time{}
	}
	sub.queue = append(sub.queue, sum)
	sub.cond.Signal()
	sub.mu.Unlock()
	return true
}

// Next blocks until the next summary is available and returns it; ok is
// false once the subscription is closed and its queue drained (or it was
// evicted — check Evicted to tell the two apart).
func (sub *Subscription[T]) Next() (sum Summary[T], ok bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	for len(sub.queue) == 0 && !sub.closed {
		sub.cond.Wait()
	}
	if len(sub.queue) == 0 {
		return sum, false
	}
	sum = sub.queue[0]
	sub.queue = sub.queue[1:]
	if sub.limit > 0 && len(sub.queue) < sub.limit {
		sub.fullSince = time.Time{} // consumer recovered; patience resets
	}
	return sum, true
}

// Pending returns the queued, not-yet-consumed summary count.
func (sub *Subscription[T]) Pending() int {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return len(sub.queue)
}

// Evicted reports whether the store disconnected this subscription for
// staying full past the patience deadline. Once true it stays true; Next
// returns ok=false immediately.
func (sub *Subscription[T]) Evicted() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.evicted
}

// detach removes the subscription from the store's registry so sealWin
// stops offering it summaries. Callers must NOT hold sub.mu (lock order
// is store.mu before sub.mu, never both upward).
func (sub *Subscription[T]) detach() {
	if sub.store != nil && sub.id != 0 {
		sub.store.mu.Lock()
		delete(sub.store.subs, sub.id)
		sub.store.mu.Unlock()
	}
}

// Close ends the subscription: Next drains the queue, then reports done.
// Idempotent; safe concurrently with the store sealing windows.
func (sub *Subscription[T]) Close() {
	sub.detach()
	sub.mu.Lock()
	sub.closed = true
	sub.cond.Broadcast()
	sub.mu.Unlock()
}
