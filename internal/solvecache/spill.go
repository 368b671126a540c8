// Write-behind disk spill for the cache: every stored entry is
// appended (asynchronously from the caller's point of view — the store
// itself never waits on fsync) to a segment log, and a cache
// constructed over the same directory replays the log to pre-warm its
// LRU.
//
// On-disk layout, inside the spill directory:
//
//	cache-00000001.seg   framed records (see codec.go), append-only
//	cache-00000002.seg   ...
//
// The directory scan is the log's only index: a MANIFEST file left by an
// older version is ignored. A segment rotates once it crosses
// SegmentBytes: the old file is fsync'd and a fresh segment opened — so
// everything outside the active tail is durable, and only the tail can
// be crash-torn. Replay reads the segments in name order: a truncated
// record in the final segment is treated as a torn tail and physically
// truncated away; corruption anywhere else abandons the rest of that
// segment (its framing can no longer be trusted) but keeps replaying
// the following ones. Version-skewed records are skipped individually.
// After replay, the live entries are compacted into a fresh segment
// generation and the old files deleted, so the log's size tracks the
// cache's population instead of its entire store history.
package solvecache

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	segmentPrefix       = "cache-"
	segmentSuffix       = ".seg"
	defaultSegmentBytes = 4 << 20
)

// spillLog is the append side of the segment log. It is not
// concurrency-safe on its own: Cache serialises access under spillMu.
type spillLog struct {
	dir          string
	segmentBytes int64
	f            *os.File // active segment
	fSize        int64
	seq          int // sequence number of the active segment
}

// attachSpill opens (or creates) the spill log under cfg, replays it
// into the cache, compacts the surviving entries, and wires the log in
// for write-behind appends. Called from NewWithConfig before the cache
// is shared, so replay stores through putLocked without spill
// re-appends.
func (c *Cache[V]) attachSpill(cfg *SpillConfig) error {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return fmt.Errorf("solvecache: spill dir: %w", err)
	}
	segBytes := cfg.SegmentBytes
	if segBytes <= 0 {
		segBytes = defaultSegmentBytes
	}
	segs, maxSeq, err := listSegments(cfg.Dir)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		replayed, skipped, err := c.replaySegment(seg, i == len(segs)-1)
		if err != nil {
			return err
		}
		c.st.Replayed += replayed
		c.st.ReplaySkipped += skipped
	}
	log := &spillLog{dir: cfg.Dir, segmentBytes: segBytes, seq: maxSeq}
	if err := c.compact(log, segs); err != nil {
		return err
	}
	c.spill = log
	return nil
}

// listSegments returns the directory's segment files in name (== age)
// order, plus the highest sequence number seen.
func listSegments(dir string) (paths []string, maxSeq int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("solvecache: spill dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		var seq int
		if _, err := fmt.Sscanf(name, segmentPrefix+"%08d"+segmentSuffix, &seq); err != nil {
			continue
		}
		if seq > maxSeq {
			maxSeq = seq
		}
		paths = append(paths, filepath.Join(dir, name))
	}
	sort.Strings(paths)
	return paths, maxSeq, nil
}

// replaySegment replays one segment file into the cache. A torn record
// in the log's final segment (isTail) is truncated away; any other
// frame failure skips the rest of the segment, and a value that does
// not unmarshal skips its record. Only I/O errors — not data errors —
// fail the replay.
func (c *Cache[V]) replaySegment(path string, isTail bool) (replayed, skipped int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("solvecache: replay %s: %w", path, err)
	}
	off := 0
	for off < len(b) {
		rec, n, err := DecodeRecord(b[off:])
		switch {
		case err == nil:
			off += n
			var v V
			if json.Unmarshal(rec.Value, &v) != nil {
				skipped++
				continue
			}
			c.mu.Lock()
			evicted, _ := c.putLocked(rec.Key, v)
			c.mu.Unlock()
			c.notifyEvicted(evicted)
			replayed++
		case errors.Is(err, errVersionSkew):
			// The frame validated, so n is trustworthy: skip just this
			// record and keep going.
			off += n
			skipped++
		case errors.Is(err, ErrTruncated) && isTail:
			// Crash-torn tail: drop the partial record from disk so the
			// next writer appends onto a clean prefix.
			skipped++
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return replayed, skipped, fmt.Errorf("solvecache: truncate torn tail of %s: %w", path, terr)
			}
			return replayed, skipped, nil
		default:
			// Corruption (or truncation away from the tail, which means
			// a sealed segment lost bytes): record boundaries after
			// this point are unknowable, so abandon the segment.
			skipped++
			return replayed, skipped, nil
		}
	}
	return replayed, skipped, nil
}

// compact writes the cache's current population into a fresh segment
// generation and deletes the replayed files, leaving the log no larger
// than the live set. The LRU list is written back-to-front, so
// replaying the compacted log reproduces the recency order (most recent
// inserted last = most recent). Like replay, it runs before the cache
// is shared.
func (c *Cache[V]) compact(log *spillLog, oldSegs []string) error {
	if err := log.openSegment(); err != nil {
		return err
	}
	var buf []byte
	for e := c.ll.Back(); e != nil; e = e.Prev() {
		ent := e.Value.(*entry[V])
		val, err := json.Marshal(ent.v)
		if err != nil {
			continue // unmarshalable: drop from the log only
		}
		buf, err = AppendRecord(buf[:0], Record{Key: ent.key, Value: val})
		if err != nil {
			continue
		}
		if _, err := log.f.Write(buf); err != nil {
			return fmt.Errorf("solvecache: compact: %w", err)
		}
		log.fSize += int64(len(buf))
	}
	if err := log.f.Sync(); err != nil {
		return fmt.Errorf("solvecache: compact: %w", err)
	}
	// The compacted segment is durable; now retire the old generation.
	for _, p := range oldSegs {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("solvecache: compact: %w", err)
		}
	}
	return nil
}

// openSegment starts the next segment file in sequence.
func (l *spillLog) openSegment() error {
	l.seq++
	path := filepath.Join(l.dir, fmt.Sprintf(segmentPrefix+"%08d"+segmentSuffix, l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("solvecache: open segment: %w", err)
	}
	l.f, l.fSize = f, 0
	return nil
}

// append frames and writes one record to the active segment, rotating
// first when the segment is full. Write-behind: no per-record fsync —
// a crash loses at most the tail since the last rotation, which replay
// already tolerates.
func (l *spillLog) append(rec Record) error {
	buf, err := AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	if l.fSize > 0 && l.fSize+int64(len(buf)) > l.segmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("solvecache: spill append: %w", err)
	}
	l.fSize += int64(len(buf))
	return nil
}

// rotate seals the active segment (fsync + close) and opens the next
// one.
func (l *spillLog) rotate() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("solvecache: seal segment: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("solvecache: seal segment: %w", err)
	}
	return l.openSegment()
}

// close syncs and closes the active segment.
func (l *spillLog) close() error {
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close() //nolint:errcheck
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// spillAppend write-behinds one stored entry to the log. Failures are
// counted, never propagated: the entry stays resident, only its
// persistence is lost.
func (c *Cache[V]) spillAppend(key string, v V) {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return
	}
	val, err := json.Marshal(v)
	if err != nil {
		c.spillErrors.Add(1)
		return
	}
	if err := c.spill.append(Record{Key: key, Value: val}); err != nil {
		c.spillErrors.Add(1)
		return
	}
	c.spilled.Add(1)
}

// Close flushes and closes the spill log (a no-op for memory-only
// caches). The cache itself remains usable; further stores simply stop
// being persisted.
func (c *Cache[V]) Close() error {
	c.spillMu.Lock()
	defer c.spillMu.Unlock()
	if c.spill == nil {
		return nil
	}
	err := c.spill.close()
	c.spill = nil
	return err
}
