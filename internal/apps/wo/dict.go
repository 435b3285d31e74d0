package wo

import (
	"sync"

	"repro/internal/mph"
	"repro/internal/workload"
)

// dictBudget caps the dictionary words the shared memo holds at once —
// about six of the paper's 43k-word dictionaries. A dictionary larger than
// the whole budget is built on every call and never cached, so one
// oversized submission cannot pin memory.
const dictBudget = 1 << 18

// Dictionary returns the seeded size-word dictionary and its minimal
// perfect hash. Both are pure functions of (seed, size), so they are
// memoised and shared between jobs: callers must treat the slice and the
// table as read-only. That is the closure-capture contract's clause (b),
// immutable shared inputs (see gpu.Backend), which lets kernel closures
// of concurrently running jobs read them without synchronisation.
func Dictionary(seed uint64, size int) ([]string, *mph.Table) {
	return dicts.get(seed, size)
}

var dicts = newDictMemo(dictBudget)

type dictKey struct {
	seed uint64
	size int
}

type dictEntry struct {
	words []string
	table *mph.Table
}

// dictMemo is a FIFO-evicted cache of dictionaries holding at most budget
// words in total.
type dictMemo struct {
	budget int

	mu    sync.Mutex
	m     map[dictKey]dictEntry
	fifo  []dictKey // insertion order, oldest first
	words int       // words held in m
}

func newDictMemo(budget int) *dictMemo {
	return &dictMemo{budget: budget, m: make(map[dictKey]dictEntry)}
}

func (d *dictMemo) get(seed uint64, size int) ([]string, *mph.Table) {
	k := dictKey{seed, size}
	d.mu.Lock()
	e, ok := d.m[k]
	d.mu.Unlock()
	if ok {
		return e.words, e.table
	}
	// Build outside the lock: a 43k-word build takes tens of milliseconds
	// and other keys must not wait behind it.
	e.words = workload.Dictionary(seed, size)
	table, err := mph.Build(e.words)
	if err != nil {
		panic("wo: mph build failed: " + err.Error())
	}
	e.table = table
	if size > d.budget {
		return e.words, e.table
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if won, ok := d.m[k]; ok {
		// Another caller built the same key meanwhile; keep its copy so
		// every job shares one table.
		return won.words, won.table
	}
	for d.words+size > d.budget {
		old := d.fifo[0]
		d.fifo = d.fifo[1:]
		d.words -= old.size
		delete(d.m, old)
	}
	d.m[k] = e
	d.fifo = append(d.fifo, k)
	d.words += size
	return e.words, e.table
}
