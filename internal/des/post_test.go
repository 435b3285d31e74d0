package des

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// --- scenario machinery -------------------------------------------------
//
// A scenario is pure data: logical actors ("gangs") with launch times and
// work scripts, plus the two post latencies of the scheduler's
// launch/done protocol. Running the same scenario twice must produce
// byte-identical logs, and every post must be delivered exactly its
// latency after it was sent.

type scnGang struct {
	launchAt Time
	sleeps   []Time
}

type scenario struct {
	outLat Time // launch post latency
	inLat  Time // reply post latency
	gangs  []scnGang
}

// randomScenario derives a scenario from a seed: small integer latencies
// and sleeps so time collisions (the tie-break paths) actually happen.
func randomScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := scenario{
		outLat: Time(2 + rng.Intn(5)),
		inLat:  Time(1 + rng.Intn(4)),
	}
	nGangs := 2 + rng.Intn(4)
	for g := 0; g < nGangs; g++ {
		gang := scnGang{launchAt: Time(rng.Intn(6))}
		for s, n := 0, 1+rng.Intn(5); s < n; s++ {
			gang.sleeps = append(gang.sleeps, Time(1+rng.Intn(4)))
		}
		sc.gangs = append(sc.gangs, gang)
	}
	return sc
}

// runScenario executes sc the way the scheduler drives its gangs: a
// driver posts each gang's launch under the hub's key, and each gang
// posts its step replies under its own key. Replies carry their send time
// so delivery can assert the exact post latency.
func runScenario(t testing.TB, sc scenario) []string {
	t.Helper()
	eng := NewEngine()
	var log []string
	note := func(p *Proc, msg string) {
		log = append(log, fmt.Sprintf("%v %s", p.Now(), msg))
	}
	eng.Spawn("driver", func(p *Proc) {
		for g := range sc.gangs {
			gang := sc.gangs[g]
			if d := gang.launchAt - p.Now(); d > 0 {
				p.Sleep(d)
			}
			sent := p.Now()
			eng.Post(-1, sc.outLat, fmt.Sprintf("gang%d.launch", g), func(q *Proc) {
				if q.Now() != sent+sc.outLat {
					t.Errorf("gang %d launched at %v, want %v", g, q.Now(), sent+sc.outLat)
				}
				for s, d := range gang.sleeps {
					q.Sleep(d)
					sentBack := q.Now()
					eng.Post(g, sc.inLat, fmt.Sprintf("gang%d.step%d", g, s), func(r *Proc) {
						if r.Now() != sentBack+sc.inLat {
							t.Errorf("gang %d step %d delivered at %v, want send %v + lat %v",
								g, s, r.Now(), sentBack, sc.inLat)
						}
						note(r, fmt.Sprintf("gang%d.step%d", g, s))
					})
				}
			})
		}
	})
	eng.Run()
	return log
}

// FuzzShardDeterminism runs fuzzed scenarios twice each: the logs must be
// identical, and every delivery must satisfy the latency assertions
// embedded in runScenario.
func FuzzShardDeterminism(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		sc := randomScenario(seed)
		first := runScenario(t, sc)
		if got := runScenario(t, sc); strings.Join(got, "\n") != strings.Join(first, "\n") {
			t.Fatalf("seed %d: rerun log differs:\n1: %v\n2: %v", seed, first, got)
		}
	})
}

// expectPanic runs f and demands a panic containing want.
func expectPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestPostValidation: a post needs a positive delay.
func TestPostValidation(t *testing.T) {
	t.Run("non-positive delay", func(t *testing.T) {
		expectPanic(t, "positive delay", func() {
			NewEngine().Post(-1, 0, "x", func(p *Proc) {})
		})
	})
}

// TestPostOrder: posts due at one instant are applied by (srcKey,
// per-sender sequence), whatever order they were sent in.
func TestPostOrder(t *testing.T) {
	eng := NewEngine()
	var log []string
	note := func(name string) func(p *Proc) {
		return func(p *Proc) { log = append(log, fmt.Sprintf("%v %s", p.Now(), name)) }
	}
	eng.Spawn("sender", func(p *Proc) {
		eng.Post(2, 5, "k2a", note("k2a"))
		p.Sleep(1)
		eng.Post(-1, 4, "hub", note("hub"))
		eng.Post(2, 4, "k2b", note("k2b"))
		eng.Post(1, 4, "k1", note("k1"))
	})
	eng.Run()
	want := "5ns hub,5ns k1,5ns k2a,5ns k2b"
	if got := strings.Join(log, ","); got != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
}
