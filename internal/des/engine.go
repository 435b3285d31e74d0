package des

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// event is a scheduled wake-up for a process.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

// before orders events by (at, seq) for the engine's event heap.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all interaction happens from simulated processes while the
// engine is running, or from the owning goroutine before Run.
//
// Every Engine belongs to a ShardSet (see shard.go): NewEngine builds the
// sole engine of a one-engine set, which Run drives event by event, and a
// multi-engine set advances each of its engines window by window under
// conservative-lookahead synchronization. Either way, every piece of engine
// state is engine-confined: it is touched only by the goroutine currently
// driving this engine (the owner before Run, then exactly one process or
// the dispatch loop at a time).
type Engine struct {
	now     Time
	seq     uint64
	queue   minHeap[event]
	yield   chan yieldMsg
	procs   []*Proc
	live    int // spawned but not finished
	blocked int // parked with no pending wake event
	// Cross-shard messages buffered for delivery, ordered by (at, srcKey,
	// seq) so the merged dispatch order is identical at every shard count,
	// and the set this engine belongs to.
	posts minHeap[post]
	set   *ShardSet
	shard int // index within set
	// openFutures tracks join obligations for host work dispatched outside
	// the simulation (see future.go). Mutated only from the engine's
	// serialized goroutines; Run refuses to shut down while any remain.
	openFutures map[*Future]struct{}
	// Flight recorder (nil = disabled). The engine itself only reports
	// bookkeeping (dispatch counts, injector arrivals); simulation-level
	// events come from the layers above through the same recorder.
	rec        *obs.Recorder
	dispatched uint64
}

type yieldMsg struct {
	proc *Proc
	done bool
	pnc  any // panic value propagated from the process, if any
}

// NewEngine returns an empty simulation at time zero: the sole engine of
// a one-engine ShardSet.
func NewEngine() *Engine { return NewShardSet(1).Engine(0) }

func newEngine(set *ShardSet, shard int) *Engine {
	return &Engine{
		yield:       make(chan yieldMsg),
		set:         set,
		shard:       shard,
		openFutures: make(map[*Future]struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches a flight recorder (nil disables recording). Must
// be called before Run.
func (e *Engine) SetRecorder(r *obs.Recorder) {
	if e.set.ran {
		panic("des: SetRecorder after Run")
	}
	e.rec = r
}

// Recorder returns the attached flight recorder (nil when disabled).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Proc is the handle a simulated process uses to interact with the engine.
// Each Proc is bound to exactly one goroutine (the one running its body).
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	parked bool // parked without a scheduled wake (waiting on resource/queue)
	ended  bool
}

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn registers a new process whose body starts at the current simulated
// time. It may be called before Run or from a running process.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	return e.spawnAt(e.now, name, body)
}

// spawnAt registers a new process whose body starts at time at (>= now).
// It is how buffered cross-shard posts materialize: the post's delivery
// time is in this engine's future, and the spawned process's first event
// must carry that time, not the current frontier.
func (e *Engine) spawnAt(at Time, name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.procs = append(e.procs, p)
	e.live++
	go func() {
		<-p.resume // wait for first schedule
		var pnc any
		func() {
			defer func() {
				if r := recover(); r != nil {
					pnc = r
				}
			}()
			body(p)
		}()
		p.ended = true
		e.yield <- yieldMsg{proc: p, done: true, pnc: pnc}
	}()
	e.schedule(at, p)
	return p
}

// ordinary is set in the sequence number of every wake-up except those
// SleepFirst schedules, so at equal times first wake-ups sort ahead of all
// ordinary ones while each class keeps its FIFO order.
const ordinary = 1 << 63

// schedule queues an ordinary wake-up for p at time at.
func (e *Engine) schedule(at Time, p *Proc) { e.scheduleClass(at, p, ordinary) }

// scheduleClass queues a wake-up for p at time at in the given tie class
// (ordinary, or 0 for first).
func (e *Engine) scheduleClass(at Time, p *Proc, class uint64) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq | class, proc: p})
}

// Park suspends the calling process indefinitely; another process must call
// Engine.Wake to resume it. It is the building block for synchronization
// primitives defined outside this package (e.g. fabric barriers).
func (p *Proc) Park() { p.park() }

// Wake resumes a process suspended with Park (or any parked waiter) at the
// current simulated time. The wake is delivered on the process's own
// engine: synchronization primitives migrate between shards (see
// Resource), so the engine that created a primitive is not necessarily
// the one whose clock governs its waiters.
func (e *Engine) Wake(p *Proc) { p.eng.wake(p) }

// wake reschedules a parked process to run at the current time. It is used
// by resources and queues when a waiter becomes runnable.
func (e *Engine) wake(p *Proc) {
	if !p.parked {
		panic("des: waking a process that is not parked")
	}
	p.parked = false
	e.blocked--
	e.schedule(e.now, p)
}

// park suspends the calling process with no scheduled wake-up; some other
// process must call wake (via a resource release or queue put) to resume it.
func (p *Proc) park() {
	p.parked = true
	p.eng.blocked++
	p.eng.yield <- yieldMsg{proc: p}
	<-p.resume
}

// Sleep suspends the calling process for d of simulated time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d Time) { p.sleep(d, ordinary) }

// SleepFirst is Sleep whose wake-up runs ahead of every ordinary event due
// at the same instant; first wake-ups due together run in the order they
// were scheduled. Where a process wakes among its instant's events then
// depends only on the instant, not on when the sleep began — which is what
// lets an externally timed arrival take the same place in a live run and
// in its replay.
func (p *Proc) SleepFirst(d Time) { p.sleep(d, 0) }

func (p *Proc) sleep(d Time, class uint64) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleClass(p.eng.now+d, p, class)
	p.eng.yield <- yieldMsg{proc: p}
	<-p.resume
}

// Yield gives other runnable processes scheduled at the current time a
// chance to run before the caller continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Run executes the simulation until every spawned process has finished
// and returns the final simulated time; it is ShardSet.Run on the
// engine's one-engine set. If all remaining processes are blocked with no
// pending events, Run panics with a deadlock report. While the engine has
// open injectors (see inject.go), an empty event queue parks Run instead,
// until the outside world injects more work or closes the last injector.
// An engine that shares its set with others is driven by ShardSet.Run.
func (e *Engine) Run() Time {
	if len(e.set.engines) > 1 {
		panic("des: Engine.Run on one shard of a multi-engine set; run the ShardSet")
	}
	return e.set.Run()
}

// checkFutures panics if host work dispatched through this engine was never
// joined — effects the simulation never ordered.
func (e *Engine) checkFutures() {
	if len(e.openFutures) == 0 {
		return
	}
	names := make([]string, 0, len(e.openFutures))
	for f := range e.openFutures {
		names = append(names, f.name)
	}
	sort.Strings(names)
	panic(fmt.Sprintf("des: engine shut down with %d unjoined future(s): %v", len(names), names))
}

// pruneQueue discards queued wake-ups for processes that already finished,
// so peeking at the head sees real work.
func (e *Engine) pruneQueue() {
	for len(e.queue) > 0 && e.queue[0].proc.ended {
		e.queue.pop()
	}
}

// nextTime reports the earliest pending activity — a queued event or a
// buffered cross-shard post — or ok=false when the engine has nothing
// scheduled. In a ShardSet this is the shard's next-event time (NET), the
// input to the coordinator's safe-horizon computation.
func (e *Engine) nextTime() (Time, bool) {
	e.pruneQueue()
	var t Time
	ok := false
	if len(e.queue) > 0 {
		t, ok = e.queue[0].at, true
	}
	if len(e.posts) > 0 && (!ok || e.posts[0].at < t) {
		t, ok = e.posts[0].at, true
	}
	return t, ok
}

// step dispatches the single earliest pending activity. Buffered posts win
// time ties with local events: a post due at T is applied (its process
// spawned, allocating the next sequence number) before anything at T runs.
// Because the rule consults only this engine's own state, and posts carry a
// shard-count-invariant (at, srcKey, seq) order, the merged dispatch order
// is identical whether the logical sender shares this engine or lives on
// another shard.
func (e *Engine) step() {
	e.pruneQueue()
	if len(e.posts) > 0 && (len(e.queue) == 0 || e.posts[0].at <= e.queue[0].at) {
		po := e.posts.pop()
		if po.at < e.now {
			panic(fmt.Sprintf("des: post %q for t=%v applied behind the frontier t=%v (lookahead violation)",
				po.name, po.at, e.now))
		}
		e.spawnAt(po.at, po.name, po.body)
		return
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.dispatched++
	ev.proc.resume <- struct{}{}
	msg := <-e.yield
	if msg.pnc != nil {
		panic(fmt.Sprintf("des: process %q panicked at t=%v: %v", msg.proc.name, e.now, msg.pnc))
	}
	if msg.done {
		e.live--
	}
}

// runWindow advances the shard through every pending activity strictly
// before horizon, then returns. Unlike Run it never declares deadlock: a
// shard whose processes are all blocked may be waiting on a cross-shard
// post a later round delivers, so global liveness belongs to the ShardSet
// coordinator. The strict bound is what keeps delivery deterministic — a
// neighbour may still post an event at exactly horizon, and it must arrive
// before anything local at that time runs.
func (e *Engine) runWindow(horizon Time) {
	for {
		t, ok := e.nextTime()
		if !ok || t >= horizon {
			return
		}
		e.step()
	}
}

func (e *Engine) blockedNames() []string {
	var names []string
	for _, p := range e.procs {
		if p.parked {
			names = append(names, p.name)
		}
	}
	sort.Strings(names)
	return names
}
