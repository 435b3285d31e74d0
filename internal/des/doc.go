// Package des implements a deterministic, single-threaded discrete-event
// simulation engine.
//
// There is one engine and one run loop: Engine.Run dispatches one event at
// a time. The engine keeps its wake-ups and its buffered posts in one typed
// min-heap each, so dispatching an event allocates nothing.
//
// The engine advances a virtual clock and runs simulated processes
// cooperatively: exactly one process executes at a time, and all ties in
// wake-up time are broken by scheduling sequence number, so a simulation
// is bit-reproducible across runs regardless of host scheduling. Processes
// are ordinary goroutines that hand control back to the engine whenever
// they perform a blocking simulation primitive (Sleep, resource Acquire,
// queue Get). The package provides FIFO resources with integer capacity,
// unbounded message queues, one-shot signals, condition broadcasts, and
// waitgroups — enough to model compute engines, buses, NICs, and MPI-style
// message passing.
//
// Engine.Post models a message with a latency (a job launch, a completion
// notice): it spawns a process after a positive delay, and posts due at
// the same instant are applied in (logical sender, per-sender sequence)
// order, ahead of every ordinary event at that instant. The scheduler's
// node-leased model launches and completes its gangs through posts.
//
// # Concurrency contract
//
// Everything in this package is governed by two ownership rules.
//
// Engine-confined state. The engine's clock, event heap, post heap,
// process table, and open-future set are touched only by the goroutine
// currently driving the engine: the owning goroutine before Run, then
// exactly one of {the dispatch loop, the single running process} at a
// time. Primitives (Resource, Queue, Signal, Cond, WaitGroup) are
// engine-confined too.
//
// Injector and Future rules. Injectors are the ONLY thread-safe boundary:
// Inject and Close may be called from any foreign goroutine, and Run
// applies injections between events, so a live arrival lands at the
// current frontier even behind a long backlog. Futures are the join
// handles for host work dispatched outside the simulation: NewFuture and
// Join must run on a process of the owning engine, Complete/Fail on the
// worker; every future must be joined before shutdown, and Run panics on
// leaks. See DESIGN.md, "One engine".
package des
