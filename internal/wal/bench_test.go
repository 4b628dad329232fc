package wal

import (
	"testing"

	"xrtree/internal/pagefile"
)

// BenchmarkCommit times one durable commit of three 4 KiB page images —
// the transaction of an XR-tree insert that splits no page — through the
// flusher's fsync, from a single committer. The log lives in b.TempDir():
// where /tmp is a tmpfs, point TMPDIR at a disk-backed directory, or the
// fsync costs nothing. Besides ns/op and B/op it reports fsyncs/op, one
// per commit for a lone committer (segment creation syncs are not
// counted).
func BenchmarkCommit(b *testing.B) {
	const pageSize = 4096
	l, err := Start(b.TempDir(), pageSize, 1, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Abandon()
	images := make([]PageImage, 3)
	for i := range images {
		data := make([]byte, pageSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		images[i] = PageImage{ID: pagefile.PageID(i + 2), Data: data}
	}
	b.ReportAllocs()
	n := 0
	for b.Loop() {
		if _, err := l.Commit(images); err != nil {
			b.Fatal(err)
		}
		n++
	}
	b.ReportMetric(float64(l.Stats().Fsyncs)/float64(n), "fsyncs/op")
}
