// Package a models the buffer-pool pinning protocol for the pinleak
// analyzer tests: a local Pool type with the real method shapes, plus
// positive (leaking) and negative (correctly released) functions.
package a

import "errors"

type PageID uint32

const invalid PageID = 0

var errShort = errors.New("short page")

type Pool struct{}

func (p *Pool) Fetch(id PageID) ([]byte, error)       { return nil, nil }
func (p *Pool) FetchNew() (PageID, []byte, error)     { return 0, nil, nil }
func (p *Pool) FetchCopy(id PageID, dst []byte) error { return nil }
func (p *Pool) Unpin(id PageID, dirty bool) error     { return nil }
func (p *Pool) Discard(id PageID) error               { return nil }

func use(b byte) {}

// ---- negative cases: every pin released on every path ----

func goodDeferDirect(p *Pool, id PageID) (byte, error) {
	data, err := p.Fetch(id)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(id, false)
	return data[0], nil
}

func goodExplicitBothPaths(p *Pool, id PageID) error {
	data, err := p.Fetch(id)
	if err != nil {
		return err
	}
	if data[0] == 0 {
		return p.Unpin(id, false)
	}
	err = p.Unpin(id, true)
	return err
}

func goodFetchNewDeferLit(p *Pool) error {
	id, data, err := p.FetchNew()
	if err != nil {
		return err
	}
	data[0] = 1
	defer func() { p.Unpin(id, true) }()
	return nil
}

func goodDiscard(p *Pool, id PageID) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	return p.Discard(id)
}

// goodChain walks a page chain, releasing each page before advancing —
// the elemlist/stab-list idiom.
func goodChain(p *Pool, id PageID) error {
	for id != invalid {
		data, err := p.Fetch(id)
		if err != nil {
			return err
		}
		next := PageID(data[0])
		if err := p.Unpin(id, false); err != nil {
			return err
		}
		id = next
	}
	return nil
}

func goodLoopUnpin(p *Pool, ids []PageID) error {
	for _, id := range ids {
		data, err := p.Fetch(id)
		if err != nil {
			return err
		}
		use(data[0])
		if err := p.Unpin(id, true); err != nil {
			return err
		}
	}
	return nil
}

func park(p *Pool, id PageID) {}

// goodHandoff passes the pinned page id to a function that assumes
// ownership of the release.
func goodHandoff(p *Pool, id PageID) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	park(p, id)
	return nil
}

type pageIter struct {
	p    *Pool
	id   PageID
	data []byte
}

// goodIterator stores the pinned data in a returned structure; the
// iterator now owns the pin.
func goodIterator(p *Pool, id PageID) (*pageIter, error) {
	data, err := p.Fetch(id)
	if err != nil {
		return nil, err
	}
	return &pageIter{p: p, id: id, data: data}, nil
}

// fetchWrap returns pinned data to its caller, making it a pin-returning
// wrapper (like core's fetchStab): its own mid-function release paths are
// clean, and the terminal return transfers the pin out.
func fetchWrap(p *Pool, id PageID) ([]byte, error) {
	data, err := p.Fetch(id)
	if err != nil {
		return nil, err
	}
	if data[0] == 0 {
		p.Unpin(id, false)
		return nil, errShort
	}
	return data, nil
}

func goodWrapCaller(p *Pool, id PageID) error {
	data, err := fetchWrap(p, id)
	if err != nil {
		return err
	}
	use(data[0])
	return p.Unpin(id, false)
}

// badCopyDoesNotRelease: a pinless copy is not a release — the demand pin
// from Fetch still leaks even though the same id was handed to FetchCopy.
func badCopyDoesNotRelease(p *Pool, id PageID, buf []byte) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	if err := p.FetchCopy(id, buf); err != nil {
		return err // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return nil // want `pin leak: id fetched at line \d+ is still pinned on this return path`
}

//xrvet:pinleak-ignore exercised only by pool-draining tests
func ignored(p *Pool, id PageID) {
	p.Fetch(id)
}

// ---- positive cases: leaks the analyzer must report ----

// badEarlyReturn leaks on one of several returns (multi-return case).
func badEarlyReturn(p *Pool, id PageID, cond bool) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	if cond {
		return nil // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return p.Unpin(id, false)
}

// badSecondFetch leaks the first pin on the second fetch's error path.
func badSecondFetch(p *Pool, a, b PageID) error {
	_, err := p.Fetch(a)
	if err != nil {
		return err
	}
	_, err = p.Fetch(b)
	if err != nil {
		return err // want `pin leak: a fetched at line \d+ is still pinned on this return path`
	}
	p.Unpin(b, false)
	return p.Unpin(a, false)
}

// badFetchNew leaks a freshly allocated page on one branch.
func badFetchNew(p *Pool, flag bool) error {
	id, data, err := p.FetchNew()
	if err != nil {
		return err
	}
	data[0] = 1
	if flag {
		return errShort // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return p.Unpin(id, true)
}

// badLoop re-enters the loop with the iteration's pin still held.
func badLoop(p *Pool, ids []PageID) error {
	sum := 0
	for _, id := range ids {
		data, err := p.Fetch(id) // want `pin leak: id fetched at line \d+ is still pinned when the loop repeats`
		if err != nil {
			return err
		}
		sum += int(data[0])
	}
	_ = sum
	return nil
}

// badOverwrite loses the only handle to a pinned page.
func badOverwrite(p *Pool, id, next PageID) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	id = next // want `pin leak: id is overwritten while still pinned \(fetched at line \d+\)`
	return p.Unpin(id, false)
}

// badDiscarded drops the pinned result on the floor.
func badDiscarded(p *Pool, id PageID) {
	p.Fetch(id) // want `pin leak: pinned result of p.Fetch is discarded`
}

// badWrapCaller inherits the pin obligation from fetchWrap and drops it.
func badWrapCaller(p *Pool, id PageID) int {
	data, err := fetchWrap(p, id)
	if err != nil {
		return 0
	}
	return len(data) // want `pin leak: id fetched at line \d+ is still pinned on this return path`
}

// badSwitch leaks in one case clause of a switch.
func badSwitch(p *Pool, id PageID, k int) error {
	_, err := p.Fetch(id)
	if err != nil {
		return err
	}
	switch k {
	case 0:
		return nil // want `pin leak: id fetched at line \d+ is still pinned on this return path`
	}
	return p.Unpin(id, false)
}

// badBreakOuter leaves the loop from inside a switch with the iteration's
// pin held: `break outer` exits the loop, not just the switch.
func badBreakOuter(p *Pool, id PageID, ks []int) error {
outer:
	for _, k := range ks {
		_, err := p.Fetch(id)
		if err != nil {
			return err
		}
		switch k {
		case 0:
			break outer
		}
		p.Unpin(id, false)
	}
	return nil // want `pin leak: id fetched at line \d+ is still pinned on this return path`
}

// badContinueOuter re-enters the outer loop from an inner range with the
// outer iteration's pin held: `continue outer` skips the Unpin.
func badContinueOuter(p *Pool, ids []PageID) error {
outer:
	for _, id := range ids {
		data, err := p.Fetch(id) // want `pin leak: id fetched at line \d+ is still pinned when the loop repeats`
		if err != nil {
			return err
		}
		for _, b := range data {
			if b == 0 {
				continue outer
			}
		}
		p.Unpin(id, false)
	}
	return nil
}

//xrvet:pinleak-ignore
func bareIgnored(p *Pool, id PageID) { // want `bare //xrvet:pinleak-ignore escape: add a justification`
	p.Fetch(id)
}
