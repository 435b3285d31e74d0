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
// engine is running, or from the owning goroutine before Run. The one
// exception is the Injector (see inject.go), the engine's only thread-safe
// boundary. Engine state is touched only by the goroutine currently
// driving the engine: the owner before Run, then exactly one of the
// dispatch loop and the single running process at a time.
type Engine struct {
	now   Time
	seq   uint64
	queue minHeap[event]
	yield chan yieldMsg
	procs []*Proc
	live  int // spawned but not finished
	// Buffered posts (see post.go), ordered by (at, srcKey, seq), and the
	// next sequence number of each logical sender.
	posts minHeap[post]
	seqs  map[int]uint64
	// openFutures tracks join obligations for host work dispatched outside
	// the simulation (see future.go). Mutated only from the engine's
	// serialized goroutines; Run refuses to shut down while any remain.
	openFutures map[*Future]struct{}
	// Flight recorder (nil = disabled). The engine itself only reports
	// bookkeeping (dispatch counts, injector arrivals); simulation-level
	// events come from the layers above through the same recorder.
	rec        *obs.Recorder
	dispatched uint64

	// Run and injection state. injc is deliberately unbuffered: a
	// successful send means Run received the message, so it is guaranteed
	// to be applied — a buffered channel would let a send race the final
	// drain and strand an accepted injection forever. stopped is closed
	// when Run returns, failing later injections fast.
	ran     bool
	openInj int
	injc    chan injMsg
	stopped chan struct{}
}

type yieldMsg struct {
	proc *Proc
	done bool
	pnc  any // panic value propagated from the process, if any
}

// NewEngine returns an empty simulation at time zero.
func NewEngine() *Engine {
	return &Engine{
		yield:       make(chan yieldMsg),
		seqs:        make(map[int]uint64),
		openFutures: make(map[*Future]struct{}),
		injc:        make(chan injMsg),
		stopped:     make(chan struct{}),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetRecorder attaches a flight recorder (nil disables recording). Must
// be called before Run.
func (e *Engine) SetRecorder(r *obs.Recorder) {
	if e.ran {
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
// It is how buffered posts materialize: the post's delivery time is in the
// engine's future, and the spawned process's first event must carry that
// time, not the current frontier.
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
// current simulated time.
func (e *Engine) Wake(p *Proc) { p.eng.wake(p) }

// wake reschedules a parked process to run at the current time. It is used
// by resources and queues when a waiter becomes runnable.
func (e *Engine) wake(p *Proc) {
	if !p.parked {
		panic("des: waking a process that is not parked")
	}
	p.parked = false
	e.schedule(e.now, p)
}

// park suspends the calling process with no scheduled wake-up; some other
// process must call wake (via a resource release or queue put) to resume it.
func (p *Proc) park() {
	p.parked = true
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
// and returns the final simulated time. It dispatches one event at a time
// and applies injections (see inject.go) between events, so a live arrival
// lands at the current frontier even behind a long backlog. If all
// remaining processes are blocked with no pending events, Run panics with
// a deadlock report. While the engine has open injectors, an empty event
// queue parks Run instead, until the outside world injects more work or
// closes the last injector. Run may be called once.
func (e *Engine) Run() Time {
	if e.ran {
		panic("des: Run called twice")
	}
	e.ran = true
	defer close(e.stopped)
	for {
		e.drainInjections()
		if _, ok := e.nextTime(); ok {
			e.step()
			continue
		}
		if e.openInj > 0 {
			e.applyInjection(<-e.injc) // park: wait for the outside world
			continue
		}
		if e.live > 0 {
			panic(fmt.Sprintf("des: deadlock at t=%v: %d process(es) blocked: %v",
				e.now, e.live, e.blockedNames()))
		}
		break
	}
	e.checkFutures()
	if e.rec.Enabled() {
		e.rec.Emit(int64(e.now), obs.CatEngine, "engine", "engine.stats",
			obs.Int("dispatched", int64(e.dispatched)))
	}
	return e.now
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
// buffered post — or ok=false when the engine has nothing scheduled.
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
func (e *Engine) step() {
	e.pruneQueue()
	if len(e.posts) > 0 && (len(e.queue) == 0 || e.posts[0].at <= e.queue[0].at) {
		po := e.posts.pop()
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
