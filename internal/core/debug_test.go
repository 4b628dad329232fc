//go:build xrtreedebug

package core

import "testing"

// TestPinBalanceOwnPinsOnly proves the per-operation pin balance is live
// and attributable: a pin the operation took through the held-fetch
// helpers and still holds at exit panics, while pins taken meanwhile by
// another tree or a reader on the same pool do not.
func TestPinBalanceOwnPinsOnly(t *testing.T) {
	pool := newPool(t, 1024, 64)
	a, err := New(pool, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(pool, 2, Options{})
	if err != nil {
		t.Fatal(err)
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
