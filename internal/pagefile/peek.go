//go:build xrtreedebug

package pagefile

// Peek reads page id into dst, which must be exactly PageSize bytes, like
// ReadPage but unseen: it moves no counter and emits no trace event. The
// xrtreedebug invariant walks read through it, so an assertion never
// shows in the numbers it guards.
func (f *File) Peek(id PageID, dst []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.readLocked(id, dst)
}
