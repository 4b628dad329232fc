package wal

import (
	"os"
	"path/filepath"
	"testing"

	"xrtree/internal/pagefile"
)

const testPS = 512

// mapApplier collects replayed images in memory.
type mapApplier map[pagefile.PageID][]byte

func (m mapApplier) ApplyPage(id pagefile.PageID, data []byte) error {
	img := make([]byte, len(data))
	copy(img, data)
	m[id] = img
	return nil
}

func img(b byte) []byte {
	d := make([]byte, testPS)
	for i := range d {
		d[i] = b
	}
	return d
}

func startLog(t *testing.T, dir string, next uint64, opts Options) *Log {
	t.Helper()
	l, err := Start(dir, testPS, next, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRoundtrip commits transactions, crashes (Abandon), and checks that
// replay reconstructs the newest committed image of every page.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	if _, err := l.Commit([]PageImage{{ID: 3, Data: img(0xaa)}, {ID: 5, Data: img(0xbb)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]PageImage{{ID: 3, Data: img(0xcc)}}); err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TxCommitted != 2 || rep.TxDiscarded != 0 || rep.CleanClose {
		t.Fatalf("report %+v", rep)
	}
	if rep.PagesApplied != 2 {
		t.Fatalf("applied %d pages, want 2 (coalesced)", rep.PagesApplied)
	}
	if got[3][0] != 0xcc || got[5][0] != 0xbb {
		t.Fatalf("wrong images: page3=%x page5=%x", got[3][0], got[5][0])
	}
	if !rep.Replayed() {
		t.Fatal("crash recovery must report Replayed")
	}
}

// TestTornTail truncates the log mid-record: complete transactions before
// the tear replay, the torn one is discarded, and the tail is reported.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x11)}}); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Commit([]PageImage{{ID: 2, Data: img(0x22)}})
	if err != nil {
		t.Fatal(err)
	}
	l.Abandon()

	// Tear the last 5 bytes off the second transaction's commit record:
	// its page record is intact, the commit is not.
	name := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:segHeader+int(lsn)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail {
		t.Fatalf("torn tail not detected: %+v", rep)
	}
	if rep.TxCommitted != 1 || rep.TxDiscarded != 1 {
		t.Fatalf("report %+v", rep)
	}
	if _, ok := got[2]; ok {
		t.Fatal("discarded transaction's image was applied")
	}
	if got[1][0] != 0x11 {
		t.Fatal("committed transaction lost")
	}
}

// TestRotation forces segment rotation with a tiny threshold and replays
// across the resulting chain.
func TestRotation(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{SegmentBytes: 2 * testPS})
	for i := 0; i < 8; i++ {
		if _, err := l.Commit([]PageImage{{ID: pagefile.PageID(i + 1), Data: img(byte(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	l.Abandon()

	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments < 2 || rep.TxCommitted != 8 || len(got) != 8 {
		t.Fatalf("report %+v, %d images", rep, len(got))
	}
}

// TestCheckpointBarrier checks the barrier semantics replay relies on:
// images committed below a checkpoint are NOT re-applied (the writer
// flushed them to the page file before the marker), and segments wholly
// below it are pruned.
func TestCheckpointBarrier(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{SegmentBytes: 2 * testPS})
	// Two transactions overflow the tiny segment, so the checkpoint
	// rotates first and the old segment falls wholly below the marker.
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x01)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x03)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]PageImage{{ID: 2, Data: img(0x02)}}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Truncated == 0 {
		t.Fatalf("checkpoint pruned no segments: %+v", st)
	}
	l.Abandon()

	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got[1]; ok {
		t.Fatal("image below the checkpoint barrier was re-applied")
	}
	if got[2] == nil || got[2][0] != 0x02 {
		t.Fatalf("image above the barrier lost: %+v", rep)
	}
}

// TestCleanShutdown closes the log cleanly and checks that the following
// replay trusts it: nothing applied, CleanClose reported.
func TestCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	if _, err := l.Commit([]PageImage{{ID: 7, Data: img(0x77)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseClean(); err != nil {
		t.Fatal(err)
	}
	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CleanClose || rep.Replayed() || rep.PagesApplied != 0 {
		t.Fatalf("clean shutdown not honored: %+v", rep)
	}
	if rep.NextLSN == 0 {
		t.Fatal("NextLSN not advanced")
	}

	// Restarting at NextLSN and replaying again still works.
	l = startLog(t, dir, rep.NextLSN, Options{})
	if _, err := l.Commit([]PageImage{{ID: 8, Data: img(0x88)}}); err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	got = mapApplier{}
	rep2, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NextLSN <= rep.NextLSN || got[8] == nil {
		t.Fatalf("restarted log broken: %+v", rep2)
	}
}

// TestTornSegmentHeader simulates a crash inside Start or a rotation: the
// newest segment holds a short or garbage header. Replay must treat it as
// the torn tail, not corruption.
func TestTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x11)}}); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	l.Abandon()

	// A later segment whose header write was torn to 7 bytes.
	next := uint64(segHeader) + uint64(st.Bytes)
	if err := os.WriteFile(filepath.Join(dir, segmentName(next)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.TxCommitted != 1 || got[1] == nil {
		t.Fatalf("torn header not tolerated: %+v", rep)
	}
	if rep.NextLSN < next {
		t.Fatalf("NextLSN %d did not reach the torn segment base %d", rep.NextLSN, next)
	}
}

// TestPageSizeMismatch rejects a log recorded under a different page size.
func TestPageSizeMismatch(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x11)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseClean(); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(nil, dir, 2*testPS, mapApplier{}); err == nil {
		t.Fatal("page-size mismatch not rejected")
	}
}

// TestHasSegments reports segment presence for the recovery-needed probe.
func TestHasSegments(t *testing.T) {
	dir := t.TempDir()
	if ok, err := HasSegments(nil, dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	l := startLog(t, dir, 0, Options{})
	l.Abandon()
	if ok, err := HasSegments(nil, dir); err != nil || !ok {
		t.Fatalf("after start: ok=%v err=%v", ok, err)
	}
}

// TestGroupCommitStats hammers the log from concurrent goroutines and
// checks the group-commit signature on the stats.
func TestGroupCommitStats(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	const writers, per = 8, 25
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := l.Commit([]PageImage{{ID: pagefile.PageID(w + 1), Data: img(byte(i))}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if err := l.CloseClean(); err != nil {
		t.Fatal(err)
	}
	if st.Commits != writers*per {
		t.Fatalf("commits %d, want %d", st.Commits, writers*per)
	}
	if st.Fsyncs >= st.Commits {
		t.Fatalf("group commit absent: %d fsyncs for %d commits", st.Fsyncs, st.Commits)
	}
}

// writeSegment writes a segment file by hand: a header of the given
// version at base, then body.
func writeSegment(t *testing.T, dir string, version uint32, base uint64, body []byte) {
	t.Helper()
	hdr := encodeSegmentHeader(testPS, base)
	le.PutUint32(hdr[4:], version)
	if err := os.WriteFile(filepath.Join(dir, segmentName(base)), append(hdr, body...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// txRecords returns the records of one committed transaction that writes
// page id full of b.
func txRecords(txid uint64, id pagefile.PageID, b byte) []byte {
	payload := make([]byte, 4+testPS)
	le.PutUint32(payload, uint32(id))
	copy(payload[4:], img(b))
	return appendRecord(appendRecord(nil, recPage, txid, payload), recCommit, txid, nil)
}

// TestFillEndsLog checks that a segment is created at full size and that
// the zero fill past the newest segment's records is the end of the log,
// not a torn tail — after a crash and after a clean close alike.
func TestFillEndsLog(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	name := filepath.Join(dir, segmentName(0))
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != segHeader+DefaultSegmentBytes {
		t.Fatalf("new segment is %d bytes, want %d", st.Size(), segHeader+DefaultSegmentBytes)
	}
	if _, err := l.Commit([]PageImage{{ID: 1, Data: img(0x11)}}); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Commit([]PageImage{{ID: 2, Data: img(0x22)}})
	if err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	rep, err := Replay(nil, dir, testPS, mapApplier{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || rep.CleanClose || rep.TxCommitted != 2 || rep.NextLSN != lsn {
		t.Fatalf("crash over zero fill: report %+v, want 2 tx ending at %d", rep, lsn)
	}

	l = startLog(t, dir, rep.NextLSN, Options{})
	if _, err := l.Commit([]PageImage{{ID: 3, Data: img(0x33)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.CloseClean(); err != nil {
		t.Fatal(err)
	}
	rep, err = Replay(nil, dir, testPS, mapApplier{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || !rep.CleanClose || rep.Replayed() {
		t.Fatalf("clean close over zero fill: report %+v", rep)
	}
}

// TestFillContinuesIntoNextSegment: zero fill after an older segment's
// records ends that segment only; replay goes on in the next one when it
// begins where those records end, and stops as a torn tail when not.
func TestFillContinuesIntoNextSegment(t *testing.T) {
	dir := t.TempDir()
	tx1, tx2 := txRecords(1, 1, 0x11), txRecords(2, 2, 0x22)
	fill := make([]byte, 1000)
	writeSegment(t, dir, segVersion, 0, append(tx1, fill...))
	next := uint64(len(tx1))
	writeSegment(t, dir, segVersion, next, append(tx2, fill...))
	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || rep.Segments != 2 || rep.TxCommitted != 2 || rep.NextLSN != next+uint64(len(tx2)) {
		t.Fatalf("report %+v", rep)
	}
	if got[1] == nil || got[1][0] != 0x11 || got[2] == nil || got[2][0] != 0x22 {
		t.Fatal("a segment's transaction was lost at the fill")
	}

	// Zeros where a transaction's records were, so the first segment's
	// records end short of the next segment's base: the log ends there.
	dir = t.TempDir()
	gap := len(txRecords(3, 3, 0x33))
	writeSegment(t, dir, segVersion, 0, append(tx1, make([]byte, gap+1000)...))
	writeSegment(t, dir, segVersion, next+uint64(gap), append(tx2, fill...))
	got = mapApplier{}
	rep, err = Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.TxCommitted != 1 || rep.NextLSN != next+uint64(gap) || got[2] != nil {
		t.Fatalf("records ending short of the next segment: report %+v", rep)
	}
}

// TestTornRecordInFill: a record cut short inside the zero fill is still
// a torn tail; the committed transaction before it replays.
func TestTornRecordInFill(t *testing.T) {
	dir := t.TempDir()
	l := startLog(t, dir, 0, Options{})
	lsn, err := l.Commit([]PageImage{{ID: 1, Data: img(0x11)}})
	if err != nil {
		t.Fatal(err)
	}
	l.Abandon()
	f, err := os.OpenFile(filepath.Join(dir, segmentName(0)), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first 100 bytes of the next transaction's page record.
	if _, err := f.WriteAt(txRecords(2, 2, 0x22)[:100], segHeader+int64(lsn)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.TxCommitted != 1 || rep.NextLSN != lsn || got[1] == nil || got[2] != nil {
		t.Fatalf("torn record in the fill: report %+v", rep)
	}
}

// TestVersion1Replays: segments from before the zero fill (version 1,
// records to the end of the file) still replay; an unknown version is
// refused.
func TestVersion1Replays(t *testing.T) {
	dir := t.TempDir()
	tx1, tx2 := txRecords(1, 1, 0x11), txRecords(2, 2, 0x22)
	writeSegment(t, dir, 1, 0, tx1)
	writeSegment(t, dir, 1, uint64(len(tx1)), tx2)
	got := mapApplier{}
	rep, err := Replay(nil, dir, testPS, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail || rep.TxCommitted != 2 || got[1] == nil || got[2] == nil {
		t.Fatalf("version 1 log: report %+v", rep)
	}

	writeSegment(t, dir, segVersion+1, 0, tx1)
	if _, err := Replay(nil, dir, testPS, mapApplier{}); err == nil {
		t.Fatal("segment of an unknown version accepted")
	}
}
