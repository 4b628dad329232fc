//go:build xrtreedebug

package bufferpool

import "xrtree/internal/pagefile"

// Peek copies page id into dst (PageSize bytes) as a fetch would see it,
// but unseen: it moves no hit, miss or eviction counter, no LRU position
// and no page file counter, admits no frame and emits no trace event. A
// resident frame is copied; any other page is current in the file, since
// eviction writes a dirty frame back before dropping it. The xrtreedebug
// invariant walks read through it.
func (p *Pool) Peek(id pagefile.PageID, dst []byte) error {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.frames[id]; ok {
		copy(dst, f.data)
		return nil
	}
	return p.file.Peek(id, dst)
}

// NextVictim returns the page that admitting page id would evict now: the
// least recently used unpinned frame of its shard, or InvalidPage when the
// shard has room or nothing to evict.
func (p *Pool) NextVictim(id pagefile.PageID) pagefile.PageID {
	s := p.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.frames) < s.cap || s.lru.tail == nil {
		return pagefile.InvalidPage
	}
	return s.lru.tail.id
}
