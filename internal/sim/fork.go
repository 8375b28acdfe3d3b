package sim

// join is the record behind one Fork call: its parent, its body and one slot
// per child. Records come from a per-Env free list and keep their children's
// Procs, so a fork and join allocates nothing once the list has grown to the
// peak number of Forks in flight and each record to its widest Fork.
type join struct {
	parent *Proc
	body   func(sp *Proc, i int) error
	kids   []forkKid
	parked int // the child the parent is parked on; -1 while it is not parked
}

// forkKid is one child slot of a join: the Proc that runs body for its index,
// reused from Fork to Fork, and that run's outcome.
type forkKid struct {
	p    *Proc
	err  error
	done bool
}

// Fork runs body(sp, i) for every i in [0, n) as n child processes, waits for
// all of them and returns the error of the lowest index that failed. It is
// the engine's one fan-out and join: work that runs on several drives, discs
// or streams at once goes through it.
//
// The children start in index order, exactly as n calls to Env.Go would. The
// parent waits in index order: it parks on the lowest unfinished child and
// only that child wakes it, so the engine queues exactly the events of
// waiting on one Completion per child in turn. n == 1 runs body on the
// caller, and n <= 0 returns nil at once.
//
// Child i's Name is name followed by i ("burn-r0/L84/S1-d" gives
// "burn-r0/L84/S1-d1"), formatted only when Name is called. A child starts
// with the caller's trace context, as a body run on the caller sees it.
//
// A child's Proc goes back to the Env when Fork returns and runs a later
// Fork's child, so body must not keep it; a wakeup addressed to its earlier
// life is dropped.
func (p *Proc) Fork(name string, n int, body func(sp *Proc, i int) error) error {
	switch {
	case n == 1:
		return body(p, 0)
	case n <= 0:
		return nil
	}
	e := p.env
	j := e.takeJoin(n)
	j.parent, j.body = p, body
	for i := range j.kids[:n] {
		c := j.kids[i].p
		c.fork, c.forkIdx = j, i
		e.start(c, name, runForkChild, false)
		c.tctx = p.tctx
	}
	var first error
	for i := range j.kids[:n] {
		k := &j.kids[i]
		if !k.done {
			j.parked = i
			p.park()
		}
		if first == nil {
			first = k.err
		}
	}
	for i := range j.kids[:n] {
		j.kids[i].err, j.kids[i].done = nil, false
	}
	j.parent, j.body = nil, nil
	e.joins = append(e.joins, j)
	return first
}

// runForkChild is the body of every Fork child: it runs its index of the
// join's body, records the outcome and wakes the parent if the parent is
// parked on it. It drops the child's trace context, so a Proc back on the
// free list keeps no finished trace alive.
func runForkChild(c *Proc) {
	j, i := c.fork, c.forkIdx
	err := j.body(c, i)
	c.tctx = nil
	j.kids[i].err, j.kids[i].done = err, true
	if j.parked == i {
		j.parked = -1
		j.parent.wake()
	}
}

// takeJoin returns a record from the free list, or a new one, with at least n
// child slots.
func (e *Env) takeJoin(n int) *join {
	var j *join
	if m := len(e.joins); m > 0 {
		j, e.joins = e.joins[m-1], e.joins[:m-1]
	} else {
		j = &join{parked: -1}
	}
	for len(j.kids) < n {
		j.kids = append(j.kids, forkKid{p: &Proc{env: e}})
	}
	return j
}
