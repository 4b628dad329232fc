//go:build xrtreedebug

package blink

import (
	"errors"
	"testing"

	"xrtree/internal/bufferpool"
	"xrtree/internal/pagefile"
	"xrtree/internal/platch"
)

// TestPinBalanceOwnPinsOnly proves the per-operation pin balance is live
// and attributable: a pin the operation took through the held-page
// helpers and still holds at exit panics, while pins taken meanwhile by
// another tree or a reader on the same pool do not.
func TestPinBalanceOwnPinsOnly(t *testing.T) {
	f := pagefile.NewMem(pagefile.Options{PageSize: 1024})
	defer f.Close()
	pool, err := bufferpool.New(f, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Shape:    &Shape{Type: 2, Header: 16, EntrySize: 8, OffNext: 8, OffHigh: 12},
		NotFound: errors.New("not found"), Duplicate: errors.New("duplicate"), Corrupt: errors.New("corrupt"),
	}
	var a, b Tree
	for i, tr := range []*Tree{&a, &b} {
		if _, err := New(tr, pool, platch.NewTable(), 0x54535430, uint32(i+1), cfg); err != nil {
			t.Fatal(err)
		}
	}

	done := a.debugPinBalance()
	if _, err := b.fetch(b.meta); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Fetch(a.meta); err != nil {
		t.Fatal(err)
	}
	done() // neither pin is a's operation's
	if err := b.unpin(b.meta, false); err != nil {
		t.Fatal(err)
	}
	if err := pool.Unpin(a.meta, false); err != nil {
		t.Fatal(err)
	}

	done = a.debugPinBalance()
	if _, err := a.fetch(a.meta); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("operation exit with a held pin did not panic")
		}
		a.unpin(a.meta, false)
	}()
	done()
}
