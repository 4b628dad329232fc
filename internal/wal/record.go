package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"xrtree/internal/pagefile"
)

var le = binary.LittleEndian

// On-disk format.
//
// A segment file is a fixed 32-byte header followed by a dense sequence of
// records and then the zero fill the segment was created with:
//
//	header: magic u32 | version u32 | pageSize u32 | pad u32 | baseLSN u64 | pad u64
//	record: length u32 | type u8 | txid u64 | crc u32 | payload (length bytes)
//
// All integers are little-endian (matching every other on-disk structure
// in this repository). A record's LSN is its byte position in the logical
// log stream: baseLSN plus the record's offset past the segment header, so
// LSNs stay strictly increasing across segment rotation. A segment's
// records end at the end of the file or at the first record header that is
// all zeros — no record has one, its type is never zero — and the log
// continues in the next segment; in the newest segment that is the end of
// the log. The CRC covers type, txid, and payload; a record whose stated
// length runs past the end of the segment, or whose CRC does not match, is
// the torn tail — it and everything after it is discarded by recovery. A
// tear that leaves unwritten only bytes that were to be zeros anyway (a
// page image's free space) leaves the record it cut whole: it reads as
// written in full, which it is.
//
// Version 2 segments carry the zero fill; version 1 segments (no fill,
// records end at the end of the file) still replay. A reader that knows
// only version 1 refuses version 2 rather than mistake an older segment's
// fill for the end of the log.
//
// Record types:
//
//	recPage:       payload pageID u32 | page image (pageSize bytes).
//	               Physical redo: the full after-image of one page as of
//	               the owning transaction's commit.
//	recCommit:     empty payload. The transaction's page images are
//	               durable and must be redone on recovery.
//	recCheckpoint: empty payload. Every committed image at a strictly
//	               lower LSN is durably in the page file; segments wholly
//	               below this record can be deleted.
//	recClean:      empty payload. Clean shutdown: the page file (including
//	               its free list) is in sync with the log.
const (
	segMagic   = 0x58525741 // "XRWA"
	segVersion = 2
	segHeader  = 32

	recHeader = 4 + 1 + 8 + 4 // length | type | txid | crc

	recPage       = 1
	recCommit     = 2
	recCheckpoint = 3
	recClean      = 4
)

// Errors surfaced by the log.
var (
	ErrClosed     = errors.New("wal: log is closed")
	ErrBadSegment = errors.New("wal: bad segment header")
)

// PageImage is one page's after-image inside a committing transaction.
type PageImage struct {
	ID   pagefile.PageID
	Data []byte
}

// appendRecord serializes one record onto buf. The header is built in
// place in buf: a local array would escape to the heap through the CRC
// routine, one allocation per record.
func appendRecord(buf []byte, typ byte, txid uint64, payload []byte) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, recHeader)...)
	hdr := buf[n:]
	le.PutUint32(hdr[0:], uint32(len(payload)))
	hdr[4] = typ
	le.PutUint64(hdr[5:], txid)
	crc := crc32.ChecksumIEEE(hdr[4:13])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	le.PutUint32(hdr[13:], crc)
	return append(buf, payload...)
}

// record is one decoded record.
type record struct {
	typ     byte
	txid    uint64
	payload []byte
	size    int // total on-disk bytes including the header
}

// endOfRecords reports whether b, the rest of a segment past its last
// record, holds no further record: it is empty, or its record header (as
// much of it as b holds) is still the segment's zero fill.
func endOfRecords(b []byte) bool {
	for _, c := range b[:min(len(b), recHeader)] {
		if c != 0 {
			return false
		}
	}
	return true
}

// parseRecord decodes the record at the front of b. It returns ok=false
// when b holds no complete, CRC-valid record — the torn-tail condition.
func parseRecord(b []byte) (record, bool) {
	if len(b) < recHeader {
		return record{}, false
	}
	n := int(le.Uint32(b[0:]))
	if n < 0 || len(b) < recHeader+n {
		return record{}, false
	}
	crc := crc32.ChecksumIEEE(b[4:13])
	crc = crc32.Update(crc, crc32.IEEETable, b[recHeader:recHeader+n])
	if crc != le.Uint32(b[13:]) {
		return record{}, false
	}
	typ := b[4]
	if typ < recPage || typ > recClean {
		return record{}, false
	}
	return record{typ: typ, txid: le.Uint64(b[5:]), payload: b[recHeader : recHeader+n], size: recHeader + n}, true
}

// segmentName renders the file name of the segment with the given base LSN.
func segmentName(base uint64) string { return fmt.Sprintf("%016x.wal", base) }

// parseSegmentName extracts the base LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if len(name) != 20 || name[16:] != ".wal" {
		return 0, false
	}
	var base uint64
	for i := 0; i < 16; i++ {
		c := name[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		base = base<<4 | d
	}
	return base, true
}

// encodeSegmentHeader renders a segment header.
func encodeSegmentHeader(pageSize int, base uint64) []byte {
	hdr := make([]byte, segHeader)
	le.PutUint32(hdr[0:], segMagic)
	le.PutUint32(hdr[4:], segVersion)
	le.PutUint32(hdr[8:], uint32(pageSize))
	le.PutUint64(hdr[16:], base)
	return hdr
}

// parseSegmentHeader validates a segment header and returns its page size
// and base LSN.
func parseSegmentHeader(hdr []byte) (pageSize int, base uint64, err error) {
	if len(hdr) < segHeader || le.Uint32(hdr[0:]) != segMagic {
		return 0, 0, ErrBadSegment
	}
	if v := le.Uint32(hdr[4:]); v != 1 && v != segVersion {
		return 0, 0, ErrBadSegment
	}
	ps := int(le.Uint32(hdr[8:]))
	if ps < pagefile.MinPageSize || ps&(ps-1) != 0 {
		return 0, 0, ErrBadSegment
	}
	return ps, le.Uint64(hdr[16:]), nil
}
