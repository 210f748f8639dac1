// Package flagged seeds lockorder violations: rank inversions, a
// double acquire, a descending-loop acquire, and a call into an
// annotated acquiring function while holding a higher rank.
package flagged

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
func (s *store) commit() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
}

// inverted acquires the commit mutex before the partition lock —
// the reverse of the documented order.
func inverted(p *part, s *store) {
	s.commitMu.Lock()
	p.dataMu.Lock() // want `acquires dataMu \(rank 10\) while holding commitMu \(rank 20\)`
	p.dataMu.Unlock()
	s.commitMu.Unlock()
}

// shardFirst takes a shard stripe before the commit mutex.
func shardFirst(s *store) {
	s.shards[0].mu.Lock()
	s.commitMu.Lock() // want `acquires commitMu \(rank 20\) while holding mu \(rank 30\)`
	s.commitMu.Unlock()
	s.shards[0].mu.Unlock()
}

// double locks the same mutex twice on one straight-line path.
func double(s *store) {
	s.commitMu.Lock()
	s.commitMu.Lock() // want `locked again while already held`
	s.commitMu.Unlock()
}

// descending walks partitions backwards while locking — the footprint
// acquire must be ascending.
func descending(parts []*part) {
	for i := len(parts) - 1; i >= 0; i-- {
		parts[i].dataMu.Lock() // want `acquired inside a descending loop`
	}
	for i := 0; i < len(parts); i++ {
		parts[i].dataMu.Unlock()
	}
}

// compactorDescending is a striped store's stop-the-world footprint
// gone wrong: commit lock held, but the stripes acquired in descending
// index order — deadlock-prone against any ascending acquirer.
func compactorDescending(s *store) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	for i := len(s.shards) - 1; i >= 0; i-- {
		s.shards[i].mu.Lock() // want `acquired inside a descending loop`
	}
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
}

// callUnderShard calls the annotated commit() while holding a shard
// stripe: a cross-function rank inversion.
func callUnderShard(s *store) {
	s.shards[0].mu.Lock()
	s.commit() // want `calls commit \(acquires rank 20\) while holding mu \(rank 30\)`
	s.shards[0].mu.Unlock()
}
