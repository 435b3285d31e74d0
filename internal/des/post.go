package des

import "fmt"

// post is one buffered message: spawn body as a fresh process at time at.
// Posts are ordered by (at, srcKey, seq). srcKey identifies the logical
// sender and seq orders the posts of one sender, so the delivery order of
// posts due at the same instant depends only on who sent them, not on the
// order in which their senders happened to run.
type post struct {
	at     Time
	srcKey int
	seq    uint64
	name   string
	body   func(p *Proc)
}

// before orders posts by (at, srcKey, seq) for the engine's post heap.
func (a post) before(b post) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.srcKey != b.srcKey {
		return a.srcKey < b.srcKey
	}
	return a.seq < b.seq
}

// Post schedules body as a fresh process named name at Now()+delay. It
// models a message with a latency — a job launch, a completion notice —
// whose handling starts after the delay. srcKey is the logical sender's
// stable identity: posts due at the same instant are applied in (srcKey,
// per-sender sequence) order, and every post due at T is applied before
// any ordinary event at T runs. delay must be positive. Like all engine
// state, Post must be called from a running process or from the owning
// goroutine before Run.
func (e *Engine) Post(srcKey int, delay Time, name string, body func(p *Proc)) {
	if delay <= 0 {
		panic(fmt.Sprintf("des: post %q needs a positive delay, got %v", name, delay))
	}
	seq := e.seqs[srcKey]
	e.seqs[srcKey] = seq + 1
	e.posts.push(post{at: e.now + delay, srcKey: srcKey, seq: seq, name: name, body: body})
}
