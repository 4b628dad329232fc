package wal

import (
	"fmt"
	"io"
	"path/filepath"

	"xrtree/internal/pagefile"
)

// Applier receives the redo stream during recovery. The page-file layer
// implements it; recovery writes committed images in log order, so the
// final content of every page is its newest committed image.
type Applier interface {
	// ApplyPage writes one committed page image, extending the file when
	// id lies past the current page count.
	ApplyPage(id pagefile.PageID, data []byte) error
}

// Report describes what one recovery pass found and did.
type Report struct {
	Segments     int    `json:"segments"`      // segment files scanned
	Records      int    `json:"records"`       // CRC-valid records scanned
	TxCommitted  int    `json:"tx_committed"`  // transactions redone
	TxDiscarded  int    `json:"tx_discarded"`  // uncommitted transactions dropped
	PagesApplied int    `json:"pages_applied"` // page images written (after coalescing)
	TornTail     bool   `json:"torn_tail"`     // the log ended in a torn record
	CleanClose   bool   `json:"clean_close"`   // last record was a clean shutdown
	NextLSN      uint64 `json:"next_lsn"`      // where the next log incarnation starts
}

// Replayed reports whether recovery changed or could have changed the
// page file — when false the previous shutdown was clean and the page
// file's free list can be trusted.
func (r Report) Replayed() bool { return r.PagesApplied > 0 || !r.CleanClose }

// maxWALRecord bounds a single record's stated payload length during
// replay, so corrupt length fields cannot ask for gigabyte allocations.
const maxWALRecord = 1 << 24

// Replay scans the log segments in dir and redoes every committed
// transaction through ap. A segment's records end at its zero fill or
// its end of file, and the log continues in the next segment, which must
// begin at the LSN where they end. Replay tolerates (and reports) a torn
// tail: the first incomplete or CRC-invalid record, or a gap before the
// next segment, ends the log, and transactions without a commit record
// are discarded. A missing or empty directory is an empty log. pageSize must
// match the store's; segments recording a different page size are
// rejected.
func Replay(fsys FS, dir string, pageSize int, ap Applier) (Report, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	var rep Report
	bases, err := listSegments(fsys, dir)
	if err != nil {
		return rep, err
	}
	// Committed images are coalesced per page (last wins) before applying,
	// so a hot page rewritten by hundreds of transactions costs one write.
	final := make(map[pagefile.PageID][]byte)
	order := []pagefile.PageID{}
	pending := make(map[uint64]map[pagefile.PageID][]byte)
	pendingOrder := make(map[uint64][]pagefile.PageID)
	lastType := byte(0)

scan:
	for i, base := range bases {
		rep.Segments++
		last := i == len(bases)-1
		if base > rep.NextLSN {
			rep.NextLSN = base
		}
		name := filepath.Join(dir, segmentName(base))
		data, err := readSegment(fsys, name)
		if err != nil {
			// The newest segment's header may itself be torn — the crash
			// hit inside Start or a rotation. Anything earlier is real
			// corruption.
			if last {
				rep.TornTail = true
				break scan
			}
			return rep, err
		}
		segPS, segBase, err := parseSegmentHeader(data)
		if err != nil {
			if last {
				rep.TornTail = true
				break scan
			}
			return rep, fmt.Errorf("wal: segment %s: %w", name, err)
		}
		if segPS != pageSize {
			return rep, fmt.Errorf("wal: segment %s page size %d, store has %d", name, segPS, pageSize)
		}
		if segBase != base {
			return rep, fmt.Errorf("wal: segment %s header base %d does not match its name", name, segBase)
		}
		body := data[segHeader:]
		off := 0
		for !endOfRecords(body[off:]) {
			rec, ok := parseRecord(body[off:])
			if !ok || len(rec.payload) > maxWALRecord {
				rep.TornTail = true
				break scan
			}
			switch rec.typ {
			case recPage:
				if len(rec.payload) != 4+pageSize {
					rep.TornTail = true
					break scan
				}
				id := pagefile.PageID(le.Uint32(rec.payload))
				if id == pagefile.InvalidPage {
					rep.TornTail = true
					break scan
				}
				img := make([]byte, pageSize)
				copy(img, rec.payload[4:])
				if pending[rec.txid] == nil {
					pending[rec.txid] = make(map[pagefile.PageID][]byte)
				}
				if _, dup := pending[rec.txid][id]; !dup {
					pendingOrder[rec.txid] = append(pendingOrder[rec.txid], id)
				}
				pending[rec.txid][id] = img
			case recCommit:
				for _, id := range pendingOrder[rec.txid] {
					if _, seen := final[id]; !seen {
						order = append(order, id)
					}
					final[id] = pending[rec.txid][id]
				}
				delete(pending, rec.txid)
				delete(pendingOrder, rec.txid)
				rep.TxCommitted++
			case recCheckpoint, recClean:
				// Barrier: the writer flushed every committed image and
				// fsynced the page file before appending the marker, so
				// redo work accumulated below it is already on disk —
				// and must be dropped, or replay would clobber pages the
				// store reused for unlogged bulk builds since then.
				final = make(map[pagefile.PageID][]byte)
				order = order[:0]
			}
			rep.Records++
			lastType = rec.typ
			off += rec.size
			rep.NextLSN = base + uint64(off)
		}
		// An older segment's records must end where the next segment
		// begins: rotation and Start name the next segment by the LSN
		// after the last record. A gap means the records stopped short of
		// their end — a zeroed or lost region — and replay stops there
		// rather than apply later transactions without the ones between.
		if !last && base+uint64(off) != bases[i+1] {
			rep.TornTail = true
			break scan
		}
	}
	// When the log stopped in an older segment, the next incarnation still
	// starts at or past every segment's base, so segment names keep rising
	// (its first segment replaces the newest one by name).
	if n := len(bases); n > 0 && bases[n-1] > rep.NextLSN {
		rep.NextLSN = bases[n-1]
	}
	rep.TxDiscarded = len(pending)
	rep.CleanClose = !rep.TornTail && lastType == recClean && rep.TxDiscarded == 0
	for _, id := range order {
		if err := ap.ApplyPage(id, final[id]); err != nil {
			return rep, fmt.Errorf("wal: redo page %d: %w", id, err)
		}
		rep.PagesApplied++
	}
	return rep, nil
}

// discardApplier swallows the redo stream; CleanlyClosed probes with it.
type discardApplier struct{}

func (discardApplier) ApplyPage(pagefile.PageID, []byte) error { return nil }

// CleanlyClosed reports whether the log in dir ends in a clean-shutdown
// record, without writing anything: a cleanly closed log means the page
// file is fully in sync and a store may be opened without the WAL. Any
// parse trouble reads as "not clean" — the caller then demands recovery.
func CleanlyClosed(fsys FS, dir string) (bool, error) {
	if fsys == nil {
		fsys = OSFS{}
	}
	bases, err := listSegments(fsys, dir)
	if err != nil || len(bases) == 0 {
		return false, err
	}
	data, err := readSegment(fsys, filepath.Join(dir, segmentName(bases[len(bases)-1])))
	if err != nil {
		return false, nil
	}
	ps, _, err := parseSegmentHeader(data)
	if err != nil {
		return false, nil
	}
	rep, err := Replay(fsys, dir, ps, discardApplier{})
	if err != nil {
		return false, nil
	}
	return rep.CleanClose, nil
}

// readSegment loads a whole segment file. Segments are bounded by the
// rotation threshold, so whole-file reads are fine at recovery time.
func readSegment(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenFile(name, 0, 0) // os.O_RDONLY == 0
	if err != nil {
		return nil, fmt.Errorf("wal: open segment %s: %w", name, err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, fmt.Errorf("wal: stat segment %s: %w", name, err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("wal: read segment %s: %w", name, err)
	}
	if len(buf) < segHeader {
		return nil, fmt.Errorf("wal: segment %s: %w", name, ErrBadSegment)
	}
	return buf, nil
}
