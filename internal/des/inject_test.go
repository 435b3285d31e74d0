package des

import (
	"sync"
	"testing"
	"time"
)

// TestInjectorParksAndResumes proves the open-system contract: an engine
// with an open injector does not exit (or declare deadlock) when its event
// queue drains; injected work runs at the frontier; Close releases Run.
func TestInjectorParksAndResumes(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()

	var order []string
	var mu sync.Mutex
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}

	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()

	// First injection: the engine is parked at t=0 with nothing to do.
	if err := inj.Inject("a", func(p *Proc) {
		if p.Now() != 0 {
			t.Errorf("first injection at t=%v, want 0", p.Now())
		}
		p.Sleep(10)
		note("a")
	}); err != nil {
		t.Fatalf("Inject a: %v", err)
	}

	// Wait until the engine has drained process a and parked again, then
	// inject b: it must start at the frontier left by a (t=10), not at 0.
	waitParked(t, eng, 10)
	if err := inj.Inject("b", func(p *Proc) {
		if p.Now() != 10 {
			t.Errorf("second injection at t=%v, want 10", p.Now())
		}
		p.Sleep(5)
		note("b")
	}); err != nil {
		t.Fatalf("Inject b: %v", err)
	}
	waitParked(t, eng, 15)

	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	end := <-done
	if end != 15 {
		t.Fatalf("Run returned t=%v, want 15", end)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("execution order %v, want [a b]", order)
	}
}

// waitParked spins until the engine has advanced to at least want and gone
// idle. Reading now from another goroutine is racy in general; here the
// engine is parked (quiescent) once the condition holds, and the test only
// proceeds after it does. The injection channel is the synchronization.
func waitParked(t *testing.T, eng *Engine, want Time) {
	t.Helper()
	probe := make(chan Time, 1)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := injectProbe(eng, probe); err != nil {
			return // engine stopped; let the caller fail on its own terms
		}
		if at := <-probe; at >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine never reached t=%v", want)
}

// injectProbe runs a no-op process that reports the frontier time.
func injectProbe(eng *Engine, probe chan Time) error {
	return eng.inject(injMsg{name: "probe", body: func(p *Proc) { probe <- p.Now() }})
}

// TestInjectorConcurrentSubmitters drives many foreign goroutines into one
// otherwise idle engine under the race detector: every injection must land
// exactly once, at a monotonically non-decreasing frontier.
func TestInjectorConcurrentSubmitters(t *testing.T) {
	eng := NewEngine()
	concurrentSubmitters(t, eng, eng.NewInjector())
}

// TestShardSetInjectorConcurrentSubmitters is the busy-engine variant (the
// name is kept from when it ran on a multi-engine shard set): a ticker keeps
// the clock moving and posts progress notices while the submitters inject,
// so injections interleave with posted events instead of landing on an
// idle engine.
func TestShardSetInjectorConcurrentSubmitters(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()
	eng.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(2)
			eng.Post(1, 2, "tick", func(q *Proc) {})
		}
	})
	concurrentSubmitters(t, eng, inj)
}

// concurrentSubmitters runs eng, injects from 8 goroutines through inj,
// closes inj and checks that every injection ran once, in frontier order.
func concurrentSubmitters(t *testing.T, eng *Engine, inj *Injector) {
	t.Helper()
	const submitters, each = 8, 25

	var mu sync.Mutex
	seen := 0
	var last Time

	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()

	var wg sync.WaitGroup
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				err := inj.Inject("job", func(p *Proc) {
					at := p.Now()
					mu.Lock()
					// Spawn times never go backwards: each injection lands
					// at the frontier, which only advances. (The engine
					// serializes injection bodies, but the map under test
					// is still guarded — the -race run is the point.)
					if at < last {
						t.Errorf("frontier went backwards: %v after %v", at, last)
					}
					last = at
					mu.Unlock()
					p.Sleep(3)
					mu.Lock()
					seen++
					mu.Unlock()
				})
				if err != nil {
					t.Errorf("Inject: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	if seen != submitters*each {
		t.Fatalf("saw %d injections, want %d", seen, submitters*each)
	}
}

// TestInjectorAfterStop: once Run has returned, injections fail fast with
// ErrEngineStopped instead of blocking forever.
func TestInjectorAfterStop(t *testing.T) {
	eng := NewEngine()
	inj := eng.NewInjector()
	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()
	if err := inj.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	<-done
	// The injector itself was closed to let Run return, so the first gate
	// it hits is its own closed flag.
	if err := inj.Inject("late", func(p *Proc) {}); err != ErrInjectorClosed {
		t.Fatalf("Inject after stop: err=%v, want ErrInjectorClosed", err)
	}
	// The engine-level boundary (a racing injector that never observed the
	// shutdown) fails fast instead of blocking on a drained channel.
	if err := eng.inject(injMsg{name: "late", body: func(p *Proc) {}}); err != ErrEngineStopped {
		t.Fatalf("engine inject after stop: err=%v, want ErrEngineStopped", err)
	}
}

// TestInjectorClosedRejects: a closed injector refuses work even while the
// engine is still running (another injector holds it open).
func TestInjectorClosedRejects(t *testing.T) {
	eng := NewEngine()
	a := eng.NewInjector()
	b := eng.NewInjector()
	done := make(chan Time, 1)
	go func() { done <- eng.Run() }()
	if err := a.Close(); err != nil {
		t.Fatalf("Close a: %v", err)
	}
	if err := a.Inject("x", func(p *Proc) {}); err != ErrInjectorClosed {
		t.Fatalf("Inject on closed injector: err=%v, want ErrInjectorClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	ran := make(chan struct{})
	if err := b.Inject("y", func(p *Proc) { close(ran) }); err != nil {
		t.Fatalf("Inject on live injector: %v", err)
	}
	<-ran
	if err := b.Close(); err != nil {
		t.Fatalf("Close b: %v", err)
	}
	<-done
}

// TestInjectorWhileBusy: injections submitted while the engine is mid-run
// are applied between events, at the then-current frontier. The ticker
// spends host time on every tick, so an engine that held injections until
// its backlog drained would land the probe at the ticker's end (t=100).
func TestInjectorWhileBusy(t *testing.T) {
	t.Run("engine", func(t *testing.T) {
		eng := NewEngine()
		inj := eng.NewInjector()
		// A long-running background process keeps the engine busy.
		tick := make(chan Time, 64)
		eng.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(2)
				time.Sleep(time.Millisecond)
				select {
				case tick <- p.Now():
				default:
				}
			}
		})
		done := make(chan Time, 1)
		go func() { done <- eng.Run() }()

		<-tick // engine is demonstrably past t=0
		at := make(chan Time, 1)
		if err := inj.Inject("probe", func(p *Proc) { at <- p.Now() }); err != nil {
			t.Fatalf("Inject: %v", err)
		}
		if got := <-at; got <= 0 || got >= 100 {
			t.Fatalf("injection landed at t=%v, want inside the ticker's run (0, 100)", got)
		}
		if err := inj.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if end := <-done; end != 100 {
			t.Fatalf("Run returned t=%v, want 100", end)
		}
	})
}
