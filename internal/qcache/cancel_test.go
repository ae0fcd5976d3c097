package qcache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDoWaiterCancelDetachesWithoutPoisoning(t *testing.T) {
	c := New(8)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan *Entry, 1)
	go func() {
		e, _, err := c.Do(ctx, key("w"), func(context.Context) (*Entry, error) {
			close(started)
			<-release
			return entry("SELECT w"), nil
		})
		if err != nil {
			t.Error(err)
		}
		leaderDone <- e
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(wctx, key("w"), func(context.Context) (*Entry, error) {
			t.Error("canceled waiter must not translate")
			return nil, nil
		})
		waiterErr <- err
	}()
	waitFor(t, func() bool { return c.Stats().Dedups == 1 }, "waiter never joined the flight")

	// the waiter detaches immediately on cancellation, before the flight ends
	wcancel()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter stayed blocked on the flight")
	}

	// the flight carries on undisturbed and its result is cached
	close(release)
	if e := <-leaderDone; e == nil || e.SQL != "SELECT w" {
		t.Fatalf("leader entry = %v", e)
	}
	if e, ok := c.Get(key("w")); !ok || e.SQL != "SELECT w" {
		t.Fatal("waiter cancellation poisoned the cache")
	}
}

func TestDoCanceledLeaderHandsOffToWaiter(t *testing.T) {
	c := New(8)
	lctx, lcancel := context.WithCancel(context.Background())
	inTranslate := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(lctx, key("h"), func(ctx context.Context) (*Entry, error) {
			close(inTranslate)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		leaderErr <- err
	}()
	<-inTranslate

	type res struct {
		e      *Entry
		shared bool
		err    error
	}
	waiterDone := make(chan res, 1)
	go func() {
		e, shared, err := c.Do(context.Background(), key("h"), func(context.Context) (*Entry, error) {
			return entry("SELECT h"), nil
		})
		waiterDone <- res{e, shared, err}
	}()
	waitFor(t, func() bool { return c.Stats().Dedups == 1 }, "waiter never joined the flight")

	// kill the leader: its failure is its own, the waiter retries as leader
	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case r := <-waiterDone:
		if r.err != nil || r.e == nil || r.e.SQL != "SELECT h" {
			t.Fatalf("waiter after handoff = %+v", r)
		}
		if r.shared {
			t.Fatal("waiter should have retranslated as the new leader, not shared")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never took over the aborted flight")
	}
	if e, ok := c.Get(key("h")); !ok || e.SQL != "SELECT h" {
		t.Fatal("handed-off translation was not cached")
	}
}

// TestDoConcurrentCancellationTorture is the serving-runtime cancellation
// stress test: many clients pile onto one single-flight translation while
// half of them are canceled mid-wait, repeatedly. Survivors must always get
// the entry, canceled clients must get context.Canceled, the cache must end
// each round warm (never poisoned), and no goroutine may leak. Run under
// -race.
func TestDoConcurrentCancellationTorture(t *testing.T) {
	c := New(64)
	base := runtime.NumGoroutine()
	const clients = 32
	for round := 0; round < 20; round++ {
		k := key(fmt.Sprintf("torture%d", round))
		release := make(chan struct{})
		var arrivals atomic.Int64
		translate := func(ctx context.Context) (*Entry, error) {
			select {
			case <-release:
				return entry("SELECT torture"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ctxs := make([]context.Context, clients)
		cancels := make([]context.CancelFunc, clients)
		for i := range ctxs {
			ctxs[i], cancels[i] = context.WithCancel(context.Background())
		}
		entries := make([]*Entry, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				arrivals.Add(1)
				entries[i], _, errs[i] = c.Do(ctxs[i], k, translate)
			}(i)
		}
		// let the herd pile up, cancel the odd half mid-wait, then finish
		waitFor(t, func() bool { return arrivals.Load() == clients }, "clients never started")
		time.Sleep(time.Millisecond)
		for i := 1; i < clients; i += 2 {
			cancels[i]()
		}
		time.Sleep(time.Millisecond)
		close(release)
		wg.Wait()
		for _, cancel := range cancels {
			cancel()
		}

		for i := 0; i < clients; i++ {
			switch {
			case errs[i] == nil:
				if entries[i] == nil || entries[i].SQL != "SELECT torture" {
					t.Fatalf("round %d client %d: entry = %v", round, i, entries[i])
				}
			case errors.Is(errs[i], context.Canceled):
				// canceled client: detached cleanly
			default:
				t.Fatalf("round %d client %d: err = %v", round, i, errs[i])
			}
		}
		if e, ok := c.Get(k); !ok || e.SQL != "SELECT torture" {
			t.Fatalf("round %d: cache poisoned by cancellations", round)
		}
	}
	// all flights resolved: nothing may still be parked on a done channel
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+2 },
		fmt.Sprintf("goroutines leaked: started with %d, now %d", base, runtime.NumGoroutine()))
}

// TestDoTranslatePanicReleasesWaiters: a translate that panics re-panics in
// its leader, and the flight still ends — a waiter gets
// ErrTranslatePanicked at once, and the next request for the key leads a
// fresh translation.
func TestDoTranslatePanicReleasesWaiters(t *testing.T) {
	c := New(8)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		c.Do(ctx, key("p"), func(context.Context) (*Entry, error) {
			close(started)
			<-release
			panic("translator bug")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, key("p"), func(context.Context) (*Entry, error) {
			t.Error("a waiter of a panicked flight must not translate")
			return nil, nil
		})
		waiterErr <- err
	}()
	waitFor(t, func() bool { return c.Stats().Dedups == 1 }, "waiter never joined the flight")
	close(release)
	if r := <-leaderPanic; r != "translator bug" {
		t.Fatalf("leader recovered %v, want the translator's panic", r)
	}
	select {
	case err := <-waiterErr:
		if !errors.Is(err, ErrTranslatePanicked) {
			t.Fatalf("waiter err = %v, want ErrTranslatePanicked", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked on the panicked flight")
	}
	e, shared, err := c.Do(ctx, key("p"), func(context.Context) (*Entry, error) { return entry("SELECT p"), nil })
	if err != nil || shared || e == nil {
		t.Fatalf("after the panic: e=%v shared=%v err=%v, want a fresh translation", e, shared, err)
	}
}
