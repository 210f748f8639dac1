// Package clean exercises the lock shapes the toolkit actually uses;
// none may produce a diagnostic: ascending rank order, ascending-loop
// footprint acquire, defer-scoped early returns, closures with their
// own lock state, and a suppressed known-odd case.
package clean

import "sync"

type part struct {
	//cmlint:lockrank 10
	dataMu sync.Mutex
}

type store struct {
	//cmlint:lockrank 20
	commitMu sync.Mutex
	shards   []shard
}

type shard struct {
	//cmlint:lockrank 30
	mu sync.Mutex
}

// commit takes the commit lock on behalf of callers.
//
//cmlint:acquires 20
func (s *store) commit(then func()) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
		s.shards[i].mu.Unlock()
	}
	if then != nil {
		then()
	}
}

// ascending is the documented footprint shape: dataMu in ascending
// index order, then the commit path.
func ascending(parts []*part, s *store) {
	for i := 0; i < len(parts); i++ {
		parts[i].dataMu.Lock()
	}
	s.commit(nil)
	for i := len(parts) - 1; i >= 0; i-- {
		parts[i].dataMu.Unlock()
	}
}

// earlyReturn holds via defer inside a branch, then re-locks on the
// main path — block-scoped defers must not read as double acquires.
func earlyReturn(s *store, cond bool) int {
	if cond {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		return 1
	}
	s.commitMu.Lock()
	s.commitMu.Unlock()
	return 0
}

// closure returns a cancel func locking the same mutex the registration
// path holds; the closure runs later, on its own schedule.
func closure(s *store) func() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	return func() {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
	}
}

// compactor is a stop-the-world footprint over a lock-striped store:
// the commit lock, then every stripe in ascending index order, all
// released by defers at the end of the fold.  Stop-the-world over an
// ascending footprint is rank-clean.
//
//cmlint:acquires 20, 30
func (s *store) compactor(fold func()) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	defer func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}()
	fold()
}

// suppressed shows the escape hatch: a genuine inversion silenced with
// a justified allow on the line above.
func suppressed(p *part, s *store) {
	s.commitMu.Lock()
	//cmlint:allow lockorder(fixture: deliberate inversion proving the suppression path)
	p.dataMu.Lock()
	p.dataMu.Unlock()
	s.commitMu.Unlock()
}
