package wal

import (
	"testing"

	"repro/internal/ids"
)

// benchPayload is a typical record size: an incoming-call record with a
// small argument stream (what the Figure-1 workloads append per call).
var benchPayload = make([]byte, 128)

func BenchmarkWALAppend(b *testing.B) {
	l, err := OpenSet(b.TempDir(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	l.SetSegmentBytes(1 << 30) // no rolls during the measurement
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendInto measures the encode-into path core's appendRec
// uses: the payload is built directly in a pooled scratch buffer.
func BenchmarkWALAppendInto(b *testing.B) {
	l, err := OpenSet(b.TempDir(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	l.SetSegmentBytes(1 << 30)
	enc := EncodeFunc(func(dst []byte) ([]byte, error) {
		return append(dst, benchPayload...), nil
	})
	b.ReportAllocs()
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendLinked(0, 1, enc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCursorScan(b *testing.B) {
	l, err := OpenSet(b.TempDir(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const records = 4096
	for i := 0; i < records; i++ {
		if _, err := l.Append(1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(records * len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := l.ScanFrom(ids.NilLSN)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			rec, ok, err := cur.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			if len(rec.Payload) != len(benchPayload) {
				b.Fatalf("record %d: payload %d bytes", n, len(rec.Payload))
			}
			n++
		}
		if n != records {
			b.Fatalf("scanned %d records, want %d", n, records)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	l, err := OpenSet(b.TempDir(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	const records = 4096
	for i := 0; i < records; i++ {
		if _, err := l.Append(1, benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(records * len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := l.Scan(ids.NilLSN, func(rec Record) error {
			n++
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if n != records {
			b.Fatalf("scanned %d records, want %d", n, records)
		}
	}
}

// BenchmarkReaderPositioned measures the chain walk's read: one reader
// visiting every fourth record of the log, as a replay worker visits
// the records of one context among its neighbours'.
func BenchmarkReaderPositioned(b *testing.B) {
	l, err := OpenSet(b.TempDir(), nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var lsns []ids.LSN
	for i := 0; i < 4096; i++ {
		lsn, err := l.Append(1, benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			lsns = append(lsns, lsn)
		}
	}
	if err := l.Flush(); err != nil {
		b.Fatal(err)
	}
	rd := readerOn(l, readBlock)
	b.ReportAllocs()
	b.SetBytes(int64(len(lsns) * len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lsn := range lsns {
			rec, err := rd.ReadAt(lsn)
			if err != nil {
				b.Fatal(err)
			}
			if len(rec.Payload) != len(benchPayload) {
				b.Fatalf("record %v: payload %d bytes", lsn, len(rec.Payload))
			}
		}
	}
}
