// Package a models the pagefile/pool-sink counter idiom for the
// atomicfield analyzer tests: a stats struct whose counters are bumped
// with sync/atomic and must never be touched plainly.
package a

import "sync/atomic"

type Stats struct {
	Reads  uint64
	Writes uint64
	Mode   int32
	Label  string
}

type File struct {
	stats Stats
	open  bool
}

// ---- negative cases ----

func (f *File) Record() {
	atomic.AddUint64(&f.stats.Reads, 1)
	atomic.AddUint64(&f.stats.Writes, 1)
}

// goodSnapshot mirrors pagefile.Stats(): a fresh literal keyed by the
// tracked fields, populated from atomic loads — unshared, no race.
func (f *File) goodSnapshot() Stats {
	return Stats{
		Reads:  atomic.LoadUint64(&f.stats.Reads),
		Writes: atomic.LoadUint64(&f.stats.Writes),
		Mode:   atomic.LoadInt32(&f.stats.Mode),
	}
}

func (f *File) Snapshot() uint64 {
	return atomic.LoadUint64(&f.stats.Reads)
}

func (f *File) SetMode(m int32) {
	atomic.StoreInt32(&f.stats.Mode, m)
}

// Label is never touched atomically: plain access is fine.
func (f *File) PlainLabel() string { return f.stats.Label }

// open is not in the atomic set either.
func (f *File) Open() { f.open = true }

// NewFile initializes the counter before the value is shared; the
// escape carries its justification.
func NewFile() *File {
	f := &File{}
	//xrvet:atomicfield-ignore construction precedes sharing, no concurrent reader yet
	f.stats.Reads = 0
	return f
}

// ---- positive cases ----

func (f *File) BadRead() uint64 {
	return f.stats.Reads // want `non-atomic access to f.stats.Reads`
}

func (f *File) BadWrite() {
	f.stats.Reads++ // want `non-atomic access to f.stats.Reads`
}

func (f *File) BadMode() int32 {
	return f.stats.Mode // want `non-atomic access to f.stats.Mode`
}

func (f *File) BadDouble() uint64 {
	return f.stats.Reads + f.stats.Writes // want `non-atomic access to f.stats.Reads` `non-atomic access to f.stats.Writes`
}

// BadBare carries an escape with no justification: rejected.
func (f *File) BadBare() {
	//xrvet:atomicfield-ignore
	f.stats.Reads = 7 // want `bare //xrvet:atomicfield-ignore escape: add a justification`
}
