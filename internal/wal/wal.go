// Package wal is the durability substrate under the serving layer: a
// checksummed, segmented write-ahead log of encoded row blocks, plus the
// checkpoint store (checkpoint.go) that bounds how much of the log a restart
// must replay.
//
// The log exists to make the wait-free build pipeline recoverable. Every
// ingest batch is appended — and fsynced per the configured policy — before
// the serving layer acknowledges it, so the acked row stream survives a
// crash at any point of the build → freeze → publish cycle; on restart the
// tail after the last checkpoint is replayed through the incremental
// builder, reproducing a table bit-identical to an uninterrupted build over
// the same rows (the chaos suite in internal/serve proves exactly this).
//
// Record format (one record per ingest batch, inside a segment file that
// begins with the magic "WFWAL1\n"):
//
//	[crc32c : 4 bytes LE]  Castagnoli CRC over header+payload
//	[seq    : uvarint]     record sequence number, contiguous from 1
//	[length : uvarint]     payload byte length
//	[payload]              uvarint count of keys, then one uvarint per key
//
// Keys are the mixed-radix row encodings produced by encoding.EncodeRows —
// the same integers the builder counts — so replay feeds the builder
// directly without re-encoding. Rows are validated against the codec before
// they are appended, which is what makes the compact key representation
// safe.
//
// Segments rotate at Options.SegmentBytes; a file is named wal-<firstseq>.seg
// so ordering and checkpoint-driven truncation need only the directory
// listing. Open tolerates a torn tail (a crash mid-append): the final
// segment is scanned and truncated back to its last whole, checksummed,
// sequence-contiguous record. A record that fails any of those checks is
// never surfaced to replay.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"waitfreebn/internal/faultinject"
	"waitfreebn/internal/obs"
)

// Metric names published by the log.
const (
	metricAppends     = "wal_appends_total"
	metricAppendBytes = "wal_append_bytes_total"
	metricFsyncs      = "wal_fsyncs_total"
	metricSegments    = "wal_segments"
	metricLastSeq     = "wal_last_seq"
	metricTornBytes   = "wal_torn_tail_bytes_total"
	metricReplayed    = "wal_replayed_records_total"
)

// segMagic opens every segment file and versions the record format.
var segMagic = []byte("WFWAL1\n")

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
	// maxPayload bounds a single record so a corrupt length varint cannot
	// drive an unbounded allocation during scan.
	maxPayload = 1 << 27
)

// SyncPolicy says when appends reach stable storage.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs at durability barriers only — before a
	// checkpoint manifest commits and at Sync/Close. A process crash loses
	// nothing (the OS holds the pages); an OS crash can lose the un-synced
	// suffix of acked rows.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append, before the record is
	// acknowledged: zero acked rows lost at any kill point, at the cost of
	// one fsync per ingest batch.
	SyncAlways
	// SyncNever never fsyncs (benchmarks only).
	SyncNever
)

// String returns the policy's flag spelling.
func (s SyncPolicy) String() string {
	switch s {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "batch"
	}
}

// ParseSyncPolicy parses the -fsync flag values always|batch|never.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	default:
		return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|never)", s)
	}
}

// crcTable is the Castagnoli polynomial table (CRC32C, hardware-accelerated
// on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes Open. Dir is required.
type Options struct {
	// Dir holds the segments (and, conventionally, the checkpoint files).
	// Created if absent.
	Dir string
	// SegmentBytes rotates to a fresh segment once the active one exceeds
	// this size. 0 = 64 MiB.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// Obs receives the wal_* metrics (nil = disabled, zero overhead).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Log is an append-only, crash-recoverable record log. Append/Sync/Close
// are safe for concurrent use (serialized internally); Replay may run on a
// freshly opened log before any appends.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        *os.File // active segment
	size     int64    // bytes written to the active segment
	lastSeq  uint64   // sequence of the last durable-ordered record
	segStart uint64   // first sequence the active segment holds (lastSeq+1 at creation)
	segments []uint64 // first-seq of every on-disk segment, ascending (last = active)
	dirty    bool     // appended since the last fsync
	closed   bool

	// Fault-injection occurrence counters. The deterministic fault engine
	// fires as a pure function of (point, worker, seq); keying on the record
	// sequence would make every retry of a failed append re-draw the same
	// outcome, defeating the caller's retry-with-backoff. Counting calls
	// instead gives each attempt fresh coordinates, which models transient
	// I/O errors.
	faultAppends uint64
	faultFsyncs  uint64

	appends   *obs.Counter
	bytes     *obs.Counter
	fsyncs    *obs.Counter
	replayed  *obs.Counter
	tornBytes *obs.Counter
	segG      *obs.Gauge
	lastSeqG  *obs.Gauge
}

// Open scans dir, truncates a torn tail off the newest segment, and returns
// a log positioned to append after the last valid record (LastSeq). An
// empty or absent dir starts a fresh log at sequence 1.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	reg := opts.Obs
	l := &Log{
		opts:      opts,
		appends:   reg.Counter(metricAppends),
		bytes:     reg.Counter(metricAppendBytes),
		fsyncs:    reg.Counter(metricFsyncs),
		replayed:  reg.Counter(metricReplayed),
		tornBytes: reg.Counter(metricTornBytes),
		segG:      reg.Gauge(metricSegments),
		lastSeqG:  reg.Gauge(metricLastSeq),
	}
	if reg != nil {
		reg.Help(metricAppends, "records appended to the write-ahead log")
		reg.Help(metricFsyncs, "fsync calls issued by the write-ahead log")
		reg.Help(metricSegments, "write-ahead log segments on disk")
		reg.Help(metricLastSeq, "sequence number of the last appended record")
		reg.Help(metricTornBytes, "bytes truncated off torn segment tails at open")
		reg.Help(metricReplayed, "records replayed from the log")
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	// Scan the newest segment to find the valid tail; everything after the
	// last whole, checksummed, contiguous record is a torn append. A newest
	// segment whose magic itself is torn (a crash inside segment creation,
	// e.g. mid-rotation) holds no records at all: remove it and fall back to
	// the previous segment, preserving its first-seq for numbering.
	var validEnd int64
	var last, lastSeq uint64
	freshStart := uint64(1)
	for len(segs) > 0 {
		last = segs[len(segs)-1]
		validEnd, lastSeq, err = scanSegment(l.segPath(last), last, 0, nil)
		if err == nil {
			break
		}
		if _, torn := err.(*tornError); !torn {
			return nil, err
		}
		if rerr := os.Remove(l.segPath(last)); rerr != nil {
			return nil, fmt.Errorf("wal: removing torn segment: %w", rerr)
		}
		freshStart = last
		segs = segs[:len(segs)-1]
	}
	if len(segs) == 0 {
		if err := l.newSegment(freshStart); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.segments = segs
	path := l.segPath(last)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > validEnd {
		l.tornBytes.Add(uint64(fi.Size() - validEnd))
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = validEnd
	l.segStart = last
	l.lastSeq = lastSeq
	l.segG.Set(float64(len(l.segments)))
	l.lastSeqG.Set(float64(l.lastSeq))
	return l, nil
}

// LastSeq returns the sequence number of the last appended (or recovered)
// record; 0 means the log is empty.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Segments returns how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}

// Dir returns the directory the log lives in.
func (l *Log) Dir() string { return l.opts.Dir }

// Append writes one record holding the encoded keys of an ingest batch and
// returns its sequence number. The record is on its way to the OS when
// Append returns; with SyncAlways it is also fsynced, so a nil return means
// the batch survives any crash. The wal-write and wal-fsync fault points
// fire here (before the write and before the fsync respectively); on any
// error the record is not considered appended.
func (l *Log) Append(keys []uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log")
	}
	seq := l.lastSeq + 1
	l.faultAppends++
	if err := faultinject.Active().MaybeErr(faultinject.WALWriteFail, 0, l.faultAppends); err != nil {
		return 0, err
	}
	rec := appendRecord(nil, seq, keys)
	if l.size+int64(len(rec)) > l.opts.SegmentBytes && l.size > int64(len(segMagic)) {
		if err := l.rotate(seq); err != nil {
			return 0, err
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		// A partial write leaves a torn tail; the next Open truncates it, so
		// the in-memory position must not advance past the valid prefix.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(len(rec))
	l.dirty = true
	l.lastSeq = seq
	if l.opts.Sync == SyncAlways {
		if err := l.fsyncLocked(); err != nil {
			// The bytes hit the file but their durability is unknown
			// (fsyncgate): report failure so the batch is never acked. A
			// restart may legitimately find and replay it — replaying an
			// unacked batch is safe; losing an acked one is not.
			return 0, err
		}
	}
	l.appends.Inc()
	l.bytes.Add(uint64(len(rec)))
	l.lastSeqG.Set(float64(l.lastSeq))
	return seq, nil
}

// Sync flushes appended records to stable storage (a durability barrier for
// SyncBatch). No-op when nothing is pending or policy is SyncNever.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || !l.dirty || l.opts.Sync == SyncNever {
		return nil
	}
	return l.fsyncLocked()
}

func (l *Log) fsyncLocked() error {
	l.faultFsyncs++
	if err := faultinject.Active().MaybeErr(faultinject.WALFsyncFail, 0, l.faultFsyncs); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.dirty = false
	l.fsyncs.Inc()
	return nil
}

// Close syncs (per policy) and closes the active segment. The log cannot be
// used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.dirty && l.opts.Sync != SyncNever {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay streams every valid record with sequence > after, in order,
// through fn. It stops cleanly (nil) at a torn tail of the newest segment;
// an invalid record anywhere earlier is real corruption and is reported —
// but never surfaced to fn. fn errors abort the replay.
func (l *Log) Replay(after uint64, fn func(seq uint64, keys []uint64) error) error {
	l.mu.Lock()
	segs := append([]uint64{}, l.segments...)
	l.mu.Unlock()
	for i, start := range segs {
		final := i == len(segs)-1
		// Skip whole segments the caller's checkpoint already covers.
		if !final && segs[i+1] > 0 && segs[i+1]-1 <= after {
			continue
		}
		_, _, err := scanSegment(l.segPath(start), start, after, func(seq uint64, keys []uint64) error {
			l.replayed.Inc()
			return fn(seq, keys)
		})
		if err != nil {
			if _, torn := err.(*tornError); torn && final {
				return nil
			}
			return err
		}
	}
	return nil
}

// TruncateThrough deletes segments every record of which has sequence <=
// seq — the space reclamation a checkpoint enables. The active segment is
// never deleted.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := l.segments[:0]
	for i, start := range l.segments {
		// Segment i covers [start, nextStart-1]; only a successor segment
		// bounds it, so the last segment always stays.
		if i+1 < len(l.segments) && l.segments[i+1]-1 <= seq {
			if err := os.Remove(l.segPath(start)); err != nil && !os.IsNotExist(err) {
				// Keep the entry; a later truncation retries.
				kept = append(kept, start)
				continue
			}
			continue
		}
		kept = append(kept, start)
	}
	l.segments = kept
	l.segG.Set(float64(len(l.segments)))
	return nil
}

func (l *Log) segPath(start uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", segPrefix, start, segSuffix))
}

// newSegment creates and activates the segment whose first record will be
// firstSeq.
func (l *Log) newSegment(firstSeq uint64) error {
	f, err := os.OpenFile(l.segPath(firstSeq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment magic: %w", err)
	}
	l.f = f
	l.size = int64(len(segMagic))
	l.segStart = firstSeq
	l.lastSeq = firstSeq - 1
	l.segments = append(l.segments, firstSeq)
	l.dirty = true
	l.segG.Set(float64(len(l.segments)))
	return nil
}

// rotate seals the active segment and opens the next one starting at seq.
func (l *Log) rotate(seq uint64) error {
	if l.opts.Sync != SyncNever {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sealing segment: %w", err)
		}
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	last := l.lastSeq
	if err := l.newSegment(seq); err != nil {
		return err
	}
	l.lastSeq = last
	return nil
}

// appendRecord encodes (seq, keys) as one framed record into dst.
func appendRecord(dst []byte, seq uint64, keys []uint64) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		payload = binary.AppendUvarint(payload, k)
	}
	hdr := binary.AppendUvarint(nil, seq)
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	crc := crc32.Update(0, crcTable, hdr)
	crc = crc32.Update(crc, crcTable, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, hdr...)
	dst = append(dst, payload...)
	return dst
}

// tornError marks a scan that ended at an incomplete or corrupt record —
// tolerated at the newest segment's tail, fatal anywhere else.
type tornError struct {
	path   string
	offset int64
	reason string
}

func (e *tornError) Error() string {
	return fmt.Sprintf("wal: %s: invalid record at offset %d (%s)", e.path, e.offset, e.reason)
}

// scanSegment reads the segment starting at firstSeq, calling fn (if
// non-nil) for every valid record with seq > after, and returns the byte
// offset just past the last valid record plus the last valid sequence. A
// malformed or checksum-failing record stops the scan with a *tornError; no
// part of it is ever passed to fn.
func scanSegment(path string, firstSeq, after uint64, fn func(seq uint64, keys []uint64) error) (validEnd int64, lastSeq uint64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		return 0, 0, &tornError{path, 0, "bad segment magic"}
	}
	off := int64(len(segMagic))
	want := firstSeq
	lastSeq = firstSeq - 1
	for int64(len(data)) > off {
		rest := data[off:]
		if len(rest) < 4 {
			return validEndOr(off, lastSeq, path, "short crc", fn == nil)
		}
		crc := binary.LittleEndian.Uint32(rest[:4])
		body := rest[4:]
		seq, n1 := binary.Uvarint(body)
		if n1 <= 0 {
			return validEndOr(off, lastSeq, path, "bad seq varint", fn == nil)
		}
		plen, n2 := binary.Uvarint(body[n1:])
		if n2 <= 0 || plen > maxPayload {
			return validEndOr(off, lastSeq, path, "bad length varint", fn == nil)
		}
		hdrLen := n1 + n2
		if uint64(len(body)) < uint64(hdrLen)+plen {
			return validEndOr(off, lastSeq, path, "truncated payload", fn == nil)
		}
		record := body[:uint64(hdrLen)+plen]
		if crc32.Checksum(record, crcTable) != crc {
			return validEndOr(off, lastSeq, path, "crc mismatch", fn == nil)
		}
		if seq != want {
			return validEndOr(off, lastSeq, path, fmt.Sprintf("sequence %d, want %d", seq, want), fn == nil)
		}
		if fn != nil && seq > after {
			keys, derr := decodePayload(record[hdrLen:])
			if derr != nil {
				return validEndOr(off, lastSeq, path, derr.Error(), false)
			}
			if err := fn(seq, keys); err != nil {
				return off, lastSeq, err
			}
		} else if fn == nil {
			// Tail scan still validates payload structure so Open never
			// positions the append cursor after a semantically torn record.
			if _, derr := decodePayload(record[hdrLen:]); derr != nil {
				return validEndOr(off, lastSeq, path, derr.Error(), true)
			}
		}
		off += int64(4+hdrLen) + int64(plen)
		lastSeq = seq
		want = seq + 1
	}
	return off, lastSeq, nil
}

// validEndOr packages a scan stop: when scanning for the append position
// (tailScan) a torn tail is expected and returned as data, otherwise it is
// an error the caller classifies (tolerated only on the newest segment).
func validEndOr(off int64, lastSeq uint64, path, reason string, tailScan bool) (int64, uint64, error) {
	if tailScan {
		return off, lastSeq, nil
	}
	return off, lastSeq, &tornError{path, off, reason}
}

// decodePayload parses a record payload into its keys.
func decodePayload(p []byte) ([]uint64, error) {
	n, used := binary.Uvarint(p)
	if used <= 0 || n > maxPayload {
		return nil, fmt.Errorf("bad key count")
	}
	keys := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		k, u := binary.Uvarint(p[used:])
		if u <= 0 {
			return nil, fmt.Errorf("bad key varint")
		}
		used += u
		keys = append(keys, k)
	}
	if used != len(p) {
		return nil, fmt.Errorf("trailing bytes in payload")
	}
	return keys, nil
}

// listSegments returns the first-sequence of every segment file in dir,
// ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var start uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &start); err != nil || start == 0 {
			continue
		}
		segs = append(segs, start)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}
