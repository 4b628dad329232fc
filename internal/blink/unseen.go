//go:build xrtreedebug

package blink

import "xrtree/internal/pagefile"

// CheckUnseen is Check with page reads that nobody sees: the backbone walk
// and the owner's checker read copies through Pool.Peek, so the check
// moves no pool or page file counter, no LRU position and no trace
// event. An assertion must not change what it asserts on; the owner's
// sampled post-mutation check runs through here. The caller holds the
// latch.
func (w *Writer) CheckUnseen() error {
	t := (*Tree)(w)
	t.peek = func(id pagefile.PageID) ([]byte, error) {
		data := make([]byte, t.pool.File().PageSize())
		return data, t.pool.Peek(id, data)
	}
	defer func() { t.peek = nil }()
	return w.Check()
}
