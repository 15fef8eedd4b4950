package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/failpoint"
)

// The job journal is the server's write-ahead log: every accepted job is
// appended (and fsynced) before the submission is acknowledged, and
// every state transition is appended as it happens, so a crash at any
// instant loses at most work the client was never told about. The file
// is a flat sequence of framed records:
//
//	magic "HFDJ" (4) | version u32 | payloadLen u32 |
//	sha256(payload) (32) | payload (JSON JournalRecord)
//
// All integers little-endian — the same magic|version|checksum entry
// discipline as the ckpt store, adapted to an append-only log. A crash
// mid-append leaves a torn final frame; ReadJournal stops at the first
// byte that fails verification and reports the valid prefix length, and
// the server truncates the tail away on recovery (a torn record was by
// construction never acknowledged, because the fsync that precedes the
// acknowledgement had not completed). Compaction happens at open: the
// recovered state is rewritten atomically (ckpt.WriteFileAtomic) as one
// accept record per job plus the final state of terminal jobs, so the
// journal's size is bounded by the job table, not by the transition
// history.
const (
	journalMagic   = "HFDJ"
	journalVersion = 1
	// journalFrameHeader is the fixed frame overhead before the payload.
	journalFrameHeader = 4 + 4 + 4 + sha256.Size
	// journalKeepTerminal bounds how many terminal jobs compaction
	// retains (most recent first); live jobs are always kept. This keeps
	// the journal and the recovered job table from growing without bound
	// across restarts under sustained traffic.
	journalKeepTerminal = 10000
)

// Journal ops.
const (
	// opAccept records a job's admission: request, correlation ID and
	// creation time. It is durably on disk before the client sees the job
	// ID. The job's identity is not journaled: recovery derives it from
	// the request, so it always matches the running build's fingerprint.
	opAccept = "accept"
	// opState records a lifecycle transition for an accepted job.
	opState = "state"
)

// StateInterrupted is a journal-only state: the job was observed running
// when the server shut down (or, implicitly, when it crashed — a job
// whose last journaled state is "running" is equally interrupted).
// Recovery resubmits interrupted jobs. One whose result reached the
// cache completes from it without a run, and one that got past
// extraction resumes from its netex checkpoint; a run killed earlier,
// mid-reconstruction, starts over from acquisition, because netex is
// the only stage checkpoint. It never appears in the HTTP API's job
// table.
const StateInterrupted State = "interrupted"

// JournalRecord is one journal entry's payload.
type JournalRecord struct {
	Op   string    `json:"op"`
	ID   string    `json:"id"`
	Time time.Time `json:"time"`
	// Accept fields. Corr is the job's correlation ID (the request ID
	// of the HTTP submission); it rides the accept record so a
	// recovered job keeps the ID its first life was submitted under.
	Req  *Request `json:"req,omitempty"`
	Corr string   `json:"corr,omitempty"`
	// State fields.
	State State  `json:"state,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// Journal is an open append handle. Append serializes, writes and
// fsyncs one frame under an internal lock.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// off is the durable length: bytes through the last fully fsynced
	// frame. A failed write or sync rolls the file back to off so bytes
	// of a record the caller will report as failed can never replay as
	// an acked job.
	off int64
	// broken poisons the handle after a failed write whose rollback also
	// failed: the on-disk tail is untrusted, so every further Append
	// errors immediately (submissions surface retryable 503s) until a
	// restart recovers and truncates the tail.
	broken bool
}

// frameRecord renders one framed record.
func frameRecord(rec JournalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return framePayload(payload), nil
}

// framePayload wraps one JSON payload in the frame header.
func framePayload(payload []byte) []byte {
	buf := make([]byte, 0, journalFrameHeader+len(payload))
	buf = append(buf, journalMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, journalVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf
}

// parseFrame verifies one frame at the head of data and returns the
// record and the frame's total length. Any shortfall or mismatch is an
// error — the caller treats the position as the start of a torn tail.
func parseFrame(data []byte) (JournalRecord, int, error) {
	var rec JournalRecord
	if len(data) < journalFrameHeader {
		return rec, 0, fmt.Errorf("serve: journal: truncated frame header")
	}
	if string(data[:4]) != journalMagic {
		return rec, 0, fmt.Errorf("serve: journal: bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != journalVersion {
		return rec, 0, fmt.Errorf("serve: journal: stale version %d (want %d)", v, journalVersion)
	}
	plen := int(binary.LittleEndian.Uint32(data[8:12]))
	if len(data) < journalFrameHeader+plen {
		return rec, 0, fmt.Errorf("serve: journal: truncated payload (%d of %d bytes)", len(data)-journalFrameHeader, plen)
	}
	payload := data[journalFrameHeader : journalFrameHeader+plen]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[12:12+sha256.Size]) {
		return rec, 0, fmt.Errorf("serve: journal: payload checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("serve: journal: bad record: %w", err)
	}
	return rec, journalFrameHeader + plen, nil
}

// ReadJournal replays path. It returns the records of the valid prefix,
// the prefix length in bytes, and the number of torn trailing bytes
// beyond it (0 for a clean file). Verification stops at the first frame
// that fails any check: in an append-only log nothing after a bad frame
// is reachable, so the tail — torn mid-append by a crash, or fed garbage
// — is reported, never parsed. A missing file is an empty journal.
func ReadJournal(path string) (recs []JournalRecord, valid int64, torn int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: journal: %w", err)
	}
	off := 0
	for off < len(data) {
		rec, n, perr := parseFrame(data[off:])
		if perr != nil {
			break
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), int64(len(data) - off), nil
}

// CreateJournal atomically rewrites path to contain exactly recs (the
// compaction step) and returns an append handle positioned after them.
// The rewrite goes through ckpt.WriteFileAtomic, and the directory is
// fsynced after the rename so the compacted journal itself survives a
// crash immediately after startup.
func CreateJournal(path string, recs []JournalRecord) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	var off int64
	err := ckpt.WriteFileAtomic(path, func(w io.Writer) error {
		for _, rec := range recs {
			frame, err := frameRecord(rec)
			if err != nil {
				return err
			}
			if _, err := w.Write(frame); err != nil {
				return err
			}
			off += int64(len(frame))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	syncDir(filepath.Dir(path))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return &Journal{f: f, path: path, off: off}, nil
}

// Append writes one record and fsyncs it. On return the record is
// durable: this is what makes "journaled before acknowledged" a real
// guarantee rather than a buffered hope.
func (j *Journal) Append(rec JournalRecord) error {
	if j == nil {
		return nil
	}
	frame, err := frameRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal: closed")
	}
	if j.broken {
		return fmt.Errorf("serve: journal: disabled after unrepaired write failure")
	}
	if ferr := failpoint.Inject("journal.append"); ferr != nil {
		if errors.Is(ferr, failpoint.ErrTorn) {
			// Tear for real: persist half the frame and poison the handle
			// — the on-disk state a crash mid-append leaves when even the
			// rollback never ran. The next recovery truncates the tail.
			_, _ = j.f.Write(frame[:len(frame)/2])
			_ = j.f.Sync()
			j.broken = true
			return fmt.Errorf("serve: journal append: %w", ferr)
		}
		return j.failLocked("append", ferr)
	}
	if _, err := j.f.Write(frame); err != nil {
		return j.failLocked("append", err)
	}
	if ferr := failpoint.Inject("journal.sync"); ferr != nil {
		return j.failLocked("sync", ferr)
	}
	if err := j.f.Sync(); err != nil {
		return j.failLocked("sync", err)
	}
	j.off += int64(len(frame))
	return nil
}

// failLocked rolls the file back to the last durable frame after a
// failed write or fsync: the record being appended was (or may have
// been) partially persisted without the fsync that acking requires, so
// its bytes must not survive to replay as an acked job. O_APPEND writes
// land at the current EOF, so appending continues correctly after the
// truncate. If even the rollback fails the handle is poisoned — see
// Journal.broken.
func (j *Journal) failLocked(op string, err error) error {
	if terr := j.f.Truncate(j.off); terr != nil {
		j.broken = true
		return fmt.Errorf("serve: journal %s: %w (rollback failed: %v; journal disabled)", op, err, terr)
	}
	return fmt.Errorf("serve: journal %s: %w", op, err)
}

// Broken reports whether the handle was poisoned by an unrepaired write
// failure (false for nil).
func (j *Journal) Broken() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.broken
}

// Close releases the append handle.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's file path ("" for nil).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Best effort: not every filesystem supports it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// JournalFsck is the report of FsckJournal — the `hifidram journal fsck`
// view of a journal file the chaos harness checks after every kill.
type JournalFsck struct {
	// Records is the number of valid records in the prefix.
	Records int
	// Jobs / Live / Terminal summarize the replayed job table.
	Jobs     int
	Live     int
	Terminal int
	// ValidBytes is the verified prefix length; TornBytes counts the
	// trailing bytes beyond it (a crash-torn append, or corruption).
	ValidBytes int64
	TornBytes  int64
}

// FsckJournal verifies every frame of a journal and summarizes the
// replayed state. A torn tail is normal after a SIGKILL (the server
// truncates it on the next start) and is reported, not failed; only an
// unreadable file or a journal whose entire non-empty content fails
// verification is an error.
func FsckJournal(path string) (JournalFsck, []JournalRecord, error) {
	var r JournalFsck
	if _, err := os.Stat(path); err != nil {
		return r, nil, fmt.Errorf("serve: journal fsck: %w", err)
	}
	recs, valid, torn, err := ReadJournal(path)
	if err != nil {
		return r, nil, err
	}
	r.Records = len(recs)
	r.ValidBytes = valid
	r.TornBytes = torn
	if len(recs) == 0 && torn > 0 {
		return r, nil, fmt.Errorf("serve: journal fsck: no valid records in %d bytes", torn)
	}
	states := replayJournal(recs)
	r.Jobs = len(states)
	for _, st := range states {
		if st.state.terminal() {
			r.Terminal++
		} else {
			r.Live++
		}
	}
	return r, recs, nil
}

// replayedJob is one job's journal-derived state.
type replayedJob struct {
	accept JournalRecord
	state  State // StateQueued when only the accept record exists
	cause  string
	at     time.Time // time of the deciding record
}

// replayJournal folds records into the per-job last-writer-wins state.
// State records for unknown IDs are dropped (their accept record was in
// a tail an earlier recovery truncated — the job was never acked), and
// so are records of any other op, such as the "breaker" records older
// builds wrote.
func replayJournal(recs []JournalRecord) map[string]*replayedJob {
	jobs := make(map[string]*replayedJob)
	for _, rec := range recs {
		switch rec.Op {
		case opAccept:
			if rec.ID == "" || rec.Req == nil {
				continue
			}
			jobs[rec.ID] = &replayedJob{accept: rec, state: StateQueued, at: rec.Time}
		case opState:
			j, ok := jobs[rec.ID]
			if !ok {
				continue
			}
			j.state = rec.State
			j.cause = rec.Cause
			j.at = rec.Time
		}
	}
	return jobs
}

// compactRecords renders the minimal journal for a replayed table: one
// accept per job (ID order) plus the final state of terminal jobs.
// Live jobs carry no state record — recovery is about to requeue them,
// and their fresh transitions append behind the compacted prefix. At
// most journalKeepTerminal terminal jobs are kept, newest IDs first,
// so one long-running deployment cannot grow the journal forever.
func compactRecords(jobs map[string]*replayedJob) []JournalRecord {
	ids := make([]string, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sortJobIDs(ids)
	// Count terminals from the newest end to find the retention cutoff.
	keep := make(map[string]bool, len(ids))
	terminals := 0
	for i := len(ids) - 1; i >= 0; i-- {
		j := jobs[ids[i]]
		if !j.state.terminal() {
			keep[ids[i]] = true
			continue
		}
		if terminals < journalKeepTerminal {
			keep[ids[i]] = true
			terminals++
		}
	}
	var recs []JournalRecord
	for _, id := range ids {
		if !keep[id] {
			continue
		}
		j := jobs[id]
		recs = append(recs, j.accept)
		if j.state.terminal() {
			recs = append(recs, JournalRecord{
				Op: opState, ID: id, Time: j.at, State: j.state, Cause: j.cause,
			})
		}
	}
	return recs
}
