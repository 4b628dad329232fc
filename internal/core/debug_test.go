//go:build xrtreedebug

package core

import (
	"math/rand"
	"testing"

	"xrtree/internal/pagefile"
)

// TestDebugCheckUnseen runs the sampled post-mutation check on a tree
// larger than its full pool and checks that the walk is unseen: the pool's
// hit, miss and eviction counters, the page file's counters and the next
// eviction victim all stay as they were. CheckInvariants, which reads the
// same pages through the pool, moves them — so the walk does read pages
// the pool does not hold.
func TestDebugCheckUnseen(t *testing.T) {
	pool := newPool(t, 512, 16)
	es := genNested(rand.New(rand.NewSource(3)), 400, 8)
	tr := buildTree(t, pool, es, Options{})
	if _, pages := tr.StabStats(); pages == 0 {
		t.Fatal("no stab pages: the check would walk no stab chain")
	}
	if n := pool.File().NumPages(); n <= pool.Capacity() {
		t.Fatalf("%d pages fit the %d-frame pool", n, pool.Capacity())
	}
	next := pagefile.PageID(pool.File().NumPages())
	stats, fstats, victim := pool.Stats(), pool.File().Stats(), pool.NextVictim(next)
	if victim == pagefile.InvalidPage {
		t.Fatal("the pool is not full")
	}

	tr.w.Lock()
	tr.debugPostMutation() // under debugFullCheckBelow elements: always runs
	tr.w.Unlock()

	if got := pool.Stats(); got != stats {
		t.Errorf("pool stats moved: %+v, was %+v", got, stats)
	}
	if got := pool.File().Stats(); got != fstats {
		t.Errorf("page file stats moved: %+v, was %+v", got, fstats)
	}
	if got := pool.NextVictim(next); got != victim {
		t.Errorf("next eviction victim is page %d, was %d", got, victim)
	}

	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Stats(); got.BufferMisses == stats.BufferMisses {
		t.Errorf("CheckInvariants read no page the pool lacked: %+v", got)
	}
}
