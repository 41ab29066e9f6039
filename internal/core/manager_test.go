package core

import (
	"sync"
	"testing"
)

// TestSessionAllocationConcurrent hammers the lock-free session allocator
// from many goroutines: every session must get a distinct id, and
// NumSessions must count each one. (The counter cells behind the sessions
// are pinned in internal/metrics.)
func TestSessionAllocationConcurrent(t *testing.T) {
	const (
		spawners   = 8
		perSpawner = 200
	)
	m := NewTxManager()
	var wg sync.WaitGroup
	ids := make(chan int, spawners*perSpawner)
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSpawner; i++ {
				ids <- m.Session().ID()
			}
		}()
	}
	wg.Wait()
	close(ids)

	seen := make(map[int]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate session id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != spawners*perSpawner {
		t.Fatalf("allocated %d distinct ids, want %d", len(seen), spawners*perSpawner)
	}
	if n := m.NumSessions(); n != spawners*perSpawner {
		t.Fatalf("NumSessions = %d, want %d", n, spawners*perSpawner)
	}
}
