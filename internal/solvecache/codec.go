// The cache's spill-log record frame (AppendRecord/DecodeRecord), and
// Solution, the daemon's cached solve result.
//
// Framing (all integers big-endian):
//
//	magic   u8   0xC5 — rejects files that are not a spill log at all
//	version u8   record payload version (currently 2: JSON values)
//	keyLen  u32  length of the key bytes
//	valLen  u32  length of the value bytes
//	crc     u32  CRC-32 (IEEE) over key ++ value
//	key     keyLen bytes
//	value   valLen bytes
//
// The frame — magic, lengths, checksum — is fixed for all versions, so
// a reader that meets a record with an unknown version can still trust
// the lengths, verify the checksum, and skip the record whole. Only the
// value payload is versioned; version 2 is the value's encoding/json
// form, and older binary records are skipped. The version also guards
// answers: records are keyed by request, so a change to a workload
// generator or a solver that alters the answer a key stands for must
// bump it, or a restarted daemon would replay stale answers. Decode
// errors distinguish a torn tail (ErrTruncated: the bytes simply stop
// mid-record, expected after a crash, fixed by truncating) from
// corruption (ErrCorrupt: the bytes are there but wrong — bad magic,
// insane lengths, checksum mismatch — so nothing after them can be
// trusted either).
package solvecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	recordMagic   = 0xC5
	recordVersion = 2
	// recordHeaderLen is the fixed frame prefix: magic + version +
	// keyLen + valLen + crc.
	recordHeaderLen = 1 + 1 + 4 + 4 + 4

	// maxKeyLen and maxValueLen bound what a decoder will believe. A
	// request key is ~140 bytes and a solution a few KB; anything
	// near these limits is garbage lengths from a corrupt frame, and
	// refusing them keeps a flipped length bit from making the decoder
	// "skip" gigabytes.
	maxKeyLen   = 64 << 10
	maxValueLen = 16 << 20
)

// ErrTruncated reports a record frame that stops before its declared
// end — the expected shape of a crash-torn segment tail.
var ErrTruncated = errors.New("solvecache: truncated record")

// ErrCorrupt reports a record frame that is present but fails
// validation (magic, length bounds, or checksum).
var ErrCorrupt = errors.New("solvecache: corrupt record")

// errVersionSkew reports a record whose frame validates but whose
// payload version this build does not speak; the record is skippable
// because the frame fixed its length.
var errVersionSkew = errors.New("solvecache: unknown record version")

// Record is one framed key/value pair of the spill log.
type Record struct {
	Key   string
	Value []byte
}

// AppendRecord appends rec's framed encoding to dst and returns the
// extended slice. It errors (leaving dst unchanged) when the key or
// value exceeds the frame's length bounds.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if len(rec.Key) > maxKeyLen {
		return dst, fmt.Errorf("solvecache: key of %d bytes exceeds the %d-byte frame limit", len(rec.Key), maxKeyLen)
	}
	if len(rec.Value) > maxValueLen {
		return dst, fmt.Errorf("solvecache: value of %d bytes exceeds the %d-byte frame limit", len(rec.Value), maxValueLen)
	}
	crc := crc32.NewIEEE()
	crc.Write([]byte(rec.Key)) //nolint:errcheck // hash writes cannot fail
	crc.Write(rec.Value)       //nolint:errcheck
	dst = append(dst, recordMagic, recordVersion)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Key)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Value)))
	dst = binary.BigEndian.AppendUint32(dst, crc.Sum32())
	dst = append(dst, rec.Key...)
	dst = append(dst, rec.Value...)
	return dst, nil
}

// DecodeRecord decodes the first record framed in b, returning it and
// the number of bytes it consumed. On errVersionSkew, n still covers
// the whole (validated) frame so the caller can skip it. On ErrTruncated
// or ErrCorrupt, n is 0 — the caller decides whether the remaining
// bytes are a torn tail (truncate) or rot (skip the segment).
func DecodeRecord(b []byte) (rec Record, n int, err error) {
	if len(b) < recordHeaderLen {
		return Record{}, 0, ErrTruncated
	}
	if b[0] != recordMagic {
		return Record{}, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrCorrupt, b[0])
	}
	version := b[1]
	keyLen := binary.BigEndian.Uint32(b[2:6])
	valLen := binary.BigEndian.Uint32(b[6:10])
	wantCRC := binary.BigEndian.Uint32(b[10:14])
	if keyLen > maxKeyLen || valLen > maxValueLen {
		return Record{}, 0, fmt.Errorf("%w: implausible lengths key=%d value=%d", ErrCorrupt, keyLen, valLen)
	}
	total := recordHeaderLen + int(keyLen) + int(valLen)
	if len(b) < total {
		return Record{}, 0, ErrTruncated
	}
	key := b[recordHeaderLen : recordHeaderLen+int(keyLen)]
	val := b[recordHeaderLen+int(keyLen) : total]
	crc := crc32.NewIEEE()
	crc.Write(key) //nolint:errcheck
	crc.Write(val) //nolint:errcheck
	if crc.Sum32() != wantCRC {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if version != recordVersion {
		return Record{}, total, fmt.Errorf("%w: %d", errVersionSkew, version)
	}
	return Record{Key: string(key), Value: append([]byte(nil), val...)}, total, nil
}

// Solution is a solve result in cacheable form: everything the daemon
// needs to answer a repeated request — assignment, cost, and the solve
// metadata the response reports — with no live solver state, so it
// marshals to the spill log and survives a restart. The server builds
// one from each *cosched.Schedule it decides to cache.
type Solution struct {
	Cost        float64
	AvgCost     float64
	Groups      [][]int
	Machines    [][]string
	Degraded    bool
	AbortReason string
	Fallbacks   []SolutionFallback
	SolveMS     float64
	SolveID     uint64
}

// SolutionFallback is one SolveRobust ladder attempt, stored with the
// solution and sent as is in the response (server.FallbackInfo).
type SolutionFallback struct {
	// Method is the rung's algorithm; Degraded/Aborted/Err mirror
	// cosched.Fallback.
	Method   string `json:"method"`
	Degraded bool   `json:"degraded,omitempty"`
	Aborted  string `json:"aborted,omitempty"`
	Err      string `json:"err,omitempty"`
}

// SizeBytes reports the solution's approximate size, used as the
// cache's byte-cost function.
func (s *Solution) SizeBytes() int {
	n := 8 + 8 + 8 + 1 + len(s.AbortReason) + 8 + 8 // fixed fields
	for _, g := range s.Groups {
		n += 4 + 8*len(g)
	}
	for _, m := range s.Machines {
		n += 4
		for _, name := range m {
			n += 4 + len(name)
		}
	}
	for _, fb := range s.Fallbacks {
		n += 1 + len(fb.Method) + len(fb.Aborted) + len(fb.Err) + 3*4
	}
	return n
}
