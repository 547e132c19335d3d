package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The write-ahead log is a sequence of segments, each a flat file of
// checksummed records:
//
//	wal-<firstLSN hex>.seg
//	record := uint32(len(payload)) | uint32(crc32c(payload)) | payload
//
// Records are numbered by a monotonically increasing log sequence number
// (LSN, starting at 1); a segment's file name carries the LSN of its
// first record, so replay can skip whole segments already covered by a
// snapshot without reading them, and each record's LSN is its segment's
// first LSN plus its index. Little-endian framing, CRC32-Castagnoli.
//
// Appends are group-committed: Append assigns the record's LSN at enqueue
// time (log order = arrival order) and a single flusher goroutine batches
// whatever accumulated during the previous write+fsync into the next one,
// so N concurrent commits cost one fsync, not N. A caller is only
// acknowledged after its batch's fsync (under FsyncPerCommit), preserving
// the returned ⇒ durable contract.

const (
	walPrefix    = "wal-"
	walSuffix    = ".seg"
	recordHeader = 8
	// maxRecordBytes bounds a single record so a corrupted length field
	// cannot demand an absurd allocation during replay.
	maxRecordBytes = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, firstLSN, walSuffix)
}

func parseSegmentName(name string) (firstLSN uint64, ok bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's WAL segments sorted by first LSN.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSegmentName(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// frame assembles one on-disk record.
func frame(payload []byte) []byte {
	buf := make([]byte, recordHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeader:], payload)
	return buf
}

// readRecord parses the record at data[off:]. A short or checksum-failed
// record returns ok=false — at the log tail that is a torn write, not an
// error.
func readRecord(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+recordHeader > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxRecordBytes || off+recordHeader+n > len(data) {
		return nil, off, false
	}
	payload = data[off+recordHeader : off+recordHeader+n]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, off, false
	}
	return payload, off + recordHeader + n, true
}

// walWaiter carries one queued record's flush outcome back to its
// appender. done is closed by the flusher after the record's group flush
// lands (or fails); err is written before the close.
type walWaiter struct {
	err  error
	done chan struct{}
}

// queuedRecord is one accepted-but-unflushed append: the framed bytes,
// the LSN assigned at enqueue, and the waiter to acknowledge.
type queuedRecord struct {
	buf []byte
	lsn uint64
	w   *walWaiter
}

// wal is the appendable log. Safe for concurrent use; replay happens
// before construction (see replaySegments).
type wal struct {
	dir          string
	policy       FsyncPolicy
	segmentBytes int64

	// fmu guards the active segment (f, size) and all segment file I/O:
	// the flusher holds it across a group flush, and Sync / Close /
	// ResetTo / TruncateThrough take it to exclude in-flight writes.
	// Lock order: fmu before mu — never acquire fmu while holding mu.
	fmu  sync.Mutex
	f    *os.File // active segment (nil until first append after open)
	size int64

	mu   sync.Mutex
	cond *sync.Cond // broadcast on enqueue, flush completion, close
	// queue holds records accepted but not yet written; the flusher
	// drains it in whole batches.
	queue    []queuedRecord
	flushing bool
	// lastLSN is the log head: the highest LSN assigned, including
	// records still queued behind an in-flight flush.
	lastLSN uint64
	// writtenLSN is the highest LSN whose group flush finished: written
	// to a segment file and, under FsyncPerCommit, fsynced. Snapshot
	// captures wait on it (WaitWritten) because record LSNs are
	// positional — a snapshot claiming an LSN the files do not reach
	// would desynchronize replay numbering after a crash — and
	// replication ships no record past it.
	writtenLSN uint64
	// syncedLSN is the durable log position: the highest LSN known to
	// have reached stable storage (followers and operators read it as
	// Stats.DurableLSN). Under FsyncOff it only advances on explicit
	// syncs (rotation, Close).
	syncedLSN uint64
	// notify is closed and replaced after every successful flush — the
	// broadcast the replication source's long-poll waits on.
	notify chan struct{}
	dirty  bool // unsynced appends (interval / off policies)
	closed bool
	// wedged marks a log whose tail state is unknown after a failed write
	// or fsync. Queued records already carry assigned LSNs that cannot be
	// renumbered, so all pending and future appends fail; a restart
	// replays what actually landed.
	wedged bool

	flusherDone chan struct{}

	appends       uint64
	appendedBytes uint64
	syncs         uint64
	groupFlushes  uint64
}

// openWAL readies the log for appends after recovery. lastLSN is the
// highest LSN the recovered state covers (snapshot or replayed record);
// appends continue from there. diskLSN is the highest positional LSN the
// segment files actually reach: when it trails lastLSN (a snapshot ran
// ahead of the log — e.g. a crash tore records the snapshot had already
// covered), the active segment's positional numbering cannot continue at
// lastLSN+1, so the next append starts a fresh, correctly named segment
// instead of appending misnumbered records.
func openWAL(dir string, policy FsyncPolicy, segmentBytes int64, lastLSN, diskLSN uint64) (*wal, error) {
	// Everything replay saw is on disk already, so the durable position
	// starts at the log head.
	w := &wal{dir: dir, policy: policy, segmentBytes: segmentBytes,
		lastLSN: lastLSN, writtenLSN: lastLSN, syncedLSN: lastLSN,
		notify: make(chan struct{}), flusherDone: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 && diskLSN >= lastLSN {
		path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.f, w.size = f, st.Size()
	}
	go w.flushLoop()
	return w, nil
}

// Append writes one record and returns its LSN, honoring the fsync
// policy: it does not return until the record's group flush has landed.
func (w *wal) Append(payload []byte) (uint64, error) {
	lsn, wait, err := w.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	if err := wait(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendAsync enqueues one record for the next group flush and returns
// its LSN plus a wait function. The LSN is assigned immediately, under
// the same mutex every appender serializes through, so log order equals
// call order; wait blocks until the record's flush completes (write +
// fsync under FsyncPerCommit) and returns its outcome. Callers may
// release higher-level locks between AppendAsync and wait — that window
// is exactly where concurrent commits coalesce into one fsync.
func (w *wal) AppendAsync(payload []byte) (uint64, func() error, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, nil, fmt.Errorf("store: append on closed WAL")
	}
	if w.wedged {
		w.mu.Unlock()
		return 0, nil, errWedged()
	}
	if len(payload) > maxRecordBytes {
		// Replay rejects anything larger as corruption, so appending it
		// would plant a time bomb: fail the commit now instead.
		w.mu.Unlock()
		return 0, nil, fmt.Errorf("store: record %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	w.lastLSN++
	lsn := w.lastLSN
	waiter := &walWaiter{done: make(chan struct{})}
	w.queue = append(w.queue, queuedRecord{buf: frame(payload), lsn: lsn, w: waiter})
	w.cond.Broadcast()
	w.mu.Unlock()
	return lsn, func() error { <-waiter.done; return waiter.err }, nil
}

func errWedged() error {
	return fmt.Errorf("store: WAL wedged by a failed write or fsync; restart to recover")
}

// flushLoop is the group-commit engine: it drains whole batches of
// queued records — everything that arrived while the previous batch was
// being written and fsynced — and flushes each batch with one write and
// one fsync. It exits once the log is closed and the queue drained.
func (w *wal) flushLoop() {
	defer close(w.flusherDone)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		batch := w.queue
		w.queue = nil
		w.flushing = true
		wedged := w.wedged
		w.mu.Unlock()

		w.flushBatch(batch, wedged)

		w.mu.Lock()
		w.flushing = false
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// flushBatch writes one batch to the active segment (rotating at the
// same size threshold single appends used, so a record never spans
// segments), fsyncs once under FsyncPerCommit, publishes the new log
// positions and acknowledges every waiter. Any write or fsync failure
// wedges the log: later queued records already carry assigned LSNs that
// cannot be renumbered, and record numbering is positional — writing
// past a hole would corrupt replay.
func (w *wal) flushBatch(batch []queuedRecord, wedged bool) {
	if wedged {
		finishBatch(batch, errWedged())
		return
	}
	w.fmu.Lock()
	var (
		err   error
		wrote uint64
	)
	t0 := time.Now()
	i := 0
	for i < len(batch) {
		if w.f == nil || w.size >= w.segmentBytes {
			if err = w.rotateFile(batch[i].lsn); err != nil {
				break
			}
		}
		// Gather the run of records that lands in the active segment: a
		// record is admitted while the segment is under the threshold
		// (and may overflow it), exactly as single appends behaved.
		j, n := i, 0
		for j < len(batch) {
			n += len(batch[j].buf)
			j++
			if w.size+int64(n) >= w.segmentBytes {
				break
			}
		}
		chunk := batch[i].buf
		if j-i > 1 {
			chunk = make([]byte, 0, n)
			for _, q := range batch[i:j] {
				chunk = append(chunk, q.buf...)
			}
		}
		if _, werr := w.f.Write(chunk); werr != nil {
			// Cut the file back so the log stays well-formed for replay;
			// the flush still wedges the log below — only the repair of
			// the file is attempted here.
			w.f.Truncate(w.size)
			err = werr
			break
		}
		w.size += int64(n)
		wrote += uint64(n)
		i = j
	}
	if err == nil {
		walAppendSeconds.Observe(time.Since(t0).Seconds())
		if w.policy == FsyncPerCommit {
			ts := time.Now()
			if serr := w.f.Sync(); serr != nil {
				// After a failed fsync the on-disk fate of the batch is
				// unknown (the kernel may have dropped the dirty pages).
				err = serr
			} else {
				walFsyncSeconds.Observe(time.Since(ts).Seconds())
			}
		}
	}

	last := batch[len(batch)-1].lsn
	w.mu.Lock()
	if err != nil {
		w.wedged = true
	} else {
		w.writtenLSN = last
		w.appends += uint64(len(batch))
		w.appendedBytes += wrote
		walAppendedBytes.Add(wrote)
		walGroupCommitRecords.Observe(float64(len(batch)))
		w.groupFlushes++
		if w.policy == FsyncPerCommit {
			w.syncs++
			w.syncedLSN = last
		} else {
			w.dirty = true
		}
		close(w.notify)
		w.notify = make(chan struct{})
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	w.fmu.Unlock()
	finishBatch(batch, err)
}

// finishBatch delivers one flush outcome to every waiter in the batch.
func finishBatch(batch []queuedRecord, err error) {
	for _, q := range batch {
		q.w.err = err
		close(q.w.done)
	}
}

// rotateFile closes the active segment (syncing it, whatever the
// policy — a finished segment is immutable and must be durable before
// its successor starts) and opens a new one whose first record will be
// firstLSN. Caller holds fmu.
func (w *wal) rotateFile(firstLSN uint64) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return err
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
		w.mu.Lock()
		w.syncs++
		// Every record below the new segment's first LSN is written and
		// now synced; records queued behind this flush are not.
		w.syncedLSN = firstLSN - 1
		w.dirty = false
		w.mu.Unlock()
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(firstLSN)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.f, w.size = f, 0
	return syncDir(w.dir)
}

// AppendC returns a channel closed by the next successful flush — the
// replication source's long-poll broadcast. Callers grab the channel
// BEFORE checking for new records, so an append racing the check is never
// missed.
func (w *wal) AppendC() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.notify
}

// DurableLSN returns the highest LSN known to be on stable storage.
func (w *wal) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedLSN
}

// WrittenLSN returns the highest LSN whose group flush has finished:
// written to the segment files and, under FsyncPerCommit, fsynced.
func (w *wal) WrittenLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writtenLSN
}

// WaitWritten blocks until every record up to lsn has been written to the
// segment files (not necessarily fsynced). Snapshots call it before
// publishing a snapshot named by the log head: record LSNs are positional
// (segment first LSN + index), so a snapshot covering records the files
// never received would make post-crash appends misnumber themselves.
func (w *wal) WaitWritten(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.writtenLSN < lsn && !w.wedged && !w.closed {
		w.cond.Wait()
	}
	if w.writtenLSN >= lsn {
		return nil
	}
	return fmt.Errorf("store: WAL flush stalled before lsn %d (wedged=%v closed=%v)", lsn, w.wedged, w.closed)
}

// Sync flushes records already written to the active segment (interval
// policy's ticker and Close). Records still queued behind an in-flight
// group flush are not covered — their own flush syncs them. A failed
// sync wedges the log like a failed per-commit sync does.
func (w *wal) Sync() error {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	w.mu.Lock()
	if !w.dirty || w.f == nil {
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()
	err := w.f.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.wedged = true
		return err
	}
	w.dirty = false
	w.syncs++
	w.syncedLSN = w.writtenLSN
	return nil
}

// LastLSN returns the log head: the LSN of the newest accepted record,
// including records still queued for their group flush.
func (w *wal) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// GroupFlushes reports how many group flushes the log has performed; the
// ratio appends/groupFlushes is the achieved commit coalescing.
func (w *wal) GroupFlushes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.groupFlushes
}

// TruncateThrough deletes segments whose records are all covered by a
// snapshot at lsn. The active segment is never deleted.
func (w *wal) TruncateThrough(lsn uint64) (removed int, err error) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	for i, first := range segs {
		// A segment's records end where the next segment begins; the
		// newest segment is the active one and always stays.
		if i == len(segs)-1 {
			break
		}
		if segs[i+1] <= lsn+1 {
			if err := os.Remove(filepath.Join(w.dir, segmentName(first))); err != nil {
				return removed, err
			}
			removed++
		}
	}
	if removed > 0 {
		err = syncDir(w.dir)
	}
	return removed, err
}

// Segments reports the live segment count and their total bytes.
func (w *wal) Segments() (n int, bytes int64) {
	w.fmu.Lock()
	defer w.fmu.Unlock()
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, 0
	}
	for _, first := range segs {
		if st, err := os.Stat(filepath.Join(w.dir, segmentName(first))); err == nil {
			bytes += st.Size()
		}
	}
	return len(segs), bytes
}

// Close drains the queue, stops the flusher, syncs and closes the active
// segment; further appends fail.
func (w *wal) Close() error {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.flusherDone
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if err == nil {
		w.mu.Lock()
		w.syncedLSN = w.writtenLSN
		w.dirty = false
		w.mu.Unlock()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// ResetTo discards the entire log and restarts it at lsn: the follower's
// re-bootstrap path after the leader compacted past its cursor. Every
// segment is deleted first, so a crash mid-reset leaves either the old
// state (old snapshot + no segments is recoverable) or the new baseline —
// never a segment whose names disagree with the new LSN sequence.
func (w *wal) ResetTo(lsn uint64) error {
	// Drain in-flight and queued appends first: resetting under a live
	// flush would interleave old-numbered records into the new baseline.
	w.mu.Lock()
	for len(w.queue) > 0 || w.flushing {
		w.cond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("store: reset on closed WAL")
	}
	w.mu.Unlock()
	w.fmu.Lock()
	defer w.fmu.Unlock()
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f, w.size = nil, 0
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, first := range segs {
		if err := os.Remove(filepath.Join(w.dir, segmentName(first))); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.lastLSN, w.writtenLSN, w.syncedLSN = lsn, lsn, lsn
	w.dirty, w.wedged = false, false
	w.mu.Unlock()
	return syncDir(w.dir)
}

// replayResult reports what replaySegments found.
type replayResult struct {
	lastLSN  uint64 // highest LSN the recovered state covers (≥ fromLSN)
	diskLSN  uint64 // highest positional LSN present in the segment files
	replayed int    // records handed to fn
	tornTail bool   // the final segment ended in a damaged record
}

// replaySegments walks every record with LSN > fromLSN through fn, in log
// order. A short or corrupt record in the final segment is a torn tail:
// the file is truncated back to the last intact record and replay stops
// cleanly. The same damage in a non-final segment is real corruption and
// fails, as does any fn error (the log no longer matches the snapshot it
// is being replayed onto).
func replaySegments(dir string, fromLSN uint64, fn func(lsn uint64, payload []byte) error) (replayResult, error) {
	res := replayResult{lastLSN: fromLSN}
	segs, err := listSegments(dir)
	if err != nil {
		return res, err
	}
	if len(segs) > 0 && segs[0] > fromLSN+1 {
		// Compaction only ever deletes segments the recovery snapshot
		// covers, so a first segment beyond fromLSN+1 means records
		// between the snapshot and the log are missing — refuse to start
		// rather than recover with a silent gap.
		return res, fmt.Errorf("store: log gap: snapshot covers lsn %d but oldest segment starts at %d", fromLSN, segs[0])
	}
	for i, first := range segs {
		final := i == len(segs)-1
		// Skip segments fully covered by the snapshot without reading
		// them: all their LSNs precede the next segment's first.
		if !final && segs[i+1] <= fromLSN+1 {
			if segs[i+1] > 0 && segs[i+1]-1 > res.lastLSN {
				res.lastLSN = segs[i+1] - 1
			}
			if segs[i+1] > 0 && segs[i+1]-1 > res.diskLSN {
				res.diskLSN = segs[i+1] - 1
			}
			continue
		}
		path := filepath.Join(dir, segmentName(first))
		data, err := os.ReadFile(path)
		if err != nil {
			return res, err
		}
		lsn := first - 1
		off := 0
		for off < len(data) {
			payload, next, ok := readRecord(data, off)
			if !ok {
				if !final {
					return res, fmt.Errorf("store: corrupt record at %s offset %d", filepath.Base(path), off)
				}
				res.tornTail = true
				if err := os.Truncate(path, int64(off)); err != nil {
					return res, fmt.Errorf("store: truncating torn tail of %s: %w", filepath.Base(path), err)
				}
				break
			}
			lsn++
			if lsn > fromLSN {
				if err := fn(lsn, payload); err != nil {
					return res, err
				}
				res.replayed++
			}
			if lsn > res.lastLSN {
				res.lastLSN = lsn
			}
			if lsn > res.diskLSN {
				res.diskLSN = lsn
			}
			off = next
		}
	}
	return res, nil
}

// syncDir fsyncs a directory so renames and segment creations survive a
// crash. Best-effort on platforms where directories cannot be opened.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

func isSyncUnsupported(err error) bool {
	return strings.Contains(err.Error(), "invalid argument") ||
		strings.Contains(err.Error(), "not supported")
}
