package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ids"
)

// A sharded log is a log directory plus a shards.meta file recording
// its reshard eras and, once a checkpoint has been published, how far
// each stream was stable then (Set.MarkStable). Each era is a
// contiguous run of stream tags; the streams of the latest era are the
// appendable shards, earlier eras are read-only history that recovery
// still scans and trim still reclaims. Stream tags are assigned monotonically across eras —
// never reused — so raw LSN comparison orders records first by era
// (temporal order), then by offset within a stream.
//
// Stream s lives in the shard-<s> subdirectory; tags start at 1.
// Stream 0 is the tag of a bare Log (Open), which no Set contains.

// Era is one reshard era: streams Base..Base+Count-1.
type Era struct {
	Base  uint32
	Count int
}

const (
	// shardMetaName is the era-list file inside a sharded log
	// directory.
	shardMetaName = "shards.meta"
	// shardMetaMagic heads the meta file.
	shardMetaMagic = "PHXSHARDS1"
)

// shardDirName is the subdirectory of stream s.
func shardDirName(stream uint32) string {
	return fmt.Sprintf("shard-%03d", stream)
}

// loadShardMeta reads the era list and the stable watermarks recorded
// beside it, by stream. A missing file returns (nil, nil, nil).
func loadShardMeta(dir string) ([]Era, map[uint32]ids.LSN, error) {
	f, err := os.Open(filepath.Join(dir, shardMetaName))
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open shard meta: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != shardMetaMagic {
		return nil, nil, fmt.Errorf("wal: bad shard meta magic in %s", dir)
	}
	var eras []Era
	stable := make(map[uint32]ids.LSN)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A line must be exactly what saveShardMeta writes: Sscanf alone
		// would accept trailing tokens.
		var stream uint32
		var off uint64
		if _, err := fmt.Sscanf(line, "stable %d %d", &stream, &off); err == nil {
			mark := ids.StreamLSN(stream, ids.LSN(off))
			if line != fmt.Sprintf("stable %d %d", stream, off) || mark.Stream() != stream || uint64(mark.Offset()) != off {
				return nil, nil, fmt.Errorf("wal: bad shard meta line %q", line)
			}
			stable[stream] = mark
			continue
		}
		var e Era
		if _, err := fmt.Sscanf(line, "era %d %d", &e.Base, &e.Count); err != nil ||
			line != fmt.Sprintf("era %d %d", e.Base, e.Count) {
			return nil, nil, fmt.Errorf("wal: bad shard meta line %q", line)
		}
		if e.Base < 1 || e.Count < 1 || uint64(e.Base)+uint64(e.Count)-1 > ids.MaxStream {
			return nil, nil, fmt.Errorf("wal: shard meta era out of range: %+v", e)
		}
		if len(eras) > 0 && e.Base <= eras[len(eras)-1].Base+uint32(eras[len(eras)-1].Count)-1 {
			return nil, nil, fmt.Errorf("wal: shard meta eras not monotonic at %+v", e)
		}
		eras = append(eras, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("wal: read shard meta: %w", err)
	}
	if len(eras) == 0 {
		return nil, nil, fmt.Errorf("wal: shard meta in %s lists no eras", dir)
	}
	return eras, stable, nil
}

// saveShardMeta writes the era list and the stable watermarks
// atomically: temp file, fsync, rename over shards.meta, fsync the
// directory — the same crash discipline as the well-known file, since
// losing the era list after a reshard would strand the new shard
// directories.
func saveShardMeta(dir string, eras []Era, stable map[uint32]ids.LSN) error {
	var b strings.Builder
	b.WriteString(shardMetaMagic)
	b.WriteByte('\n')
	for _, e := range eras {
		fmt.Fprintf(&b, "era %d %d\n", e.Base, e.Count)
		for s := e.Base; s < e.Base+uint32(e.Count); s++ {
			if mark, ok := stable[s]; ok {
				fmt.Fprintf(&b, "stable %d %d\n", s, uint64(mark.Offset()))
			}
		}
	}
	return atomicWriteFile(filepath.Join(dir, shardMetaName), []byte(b.String()))
}

// atomicWriteFile makes data the durable content of path: write to a
// temp file in the same directory, fsync it, rename into place, fsync
// the directory so the rename itself survives a crash.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
