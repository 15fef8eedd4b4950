package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func acceptRec(id string, req Request) JournalRecord {
	return JournalRecord{
		Op: opAccept, ID: id, Time: time.Now().UTC().Truncate(time.Millisecond),
		Req: &req,
	}
}

func stateRec(id string, st State, cause string) JournalRecord {
	return JournalRecord{Op: opState, ID: id, Time: time.Now().UTC(), State: st, Cause: cause}
}

// TestJournalRoundTrip: records appended with fsync read back verbatim
// with no torn bytes.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := CreateJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []JournalRecord{
		acceptRec("job-000001", reqN(1)),
		stateRec("job-000001", StateRunning, ""),
		stateRec("job-000001", StateDone, ""),
		acceptRec("job-000002", reqN(2)),
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("clean journal reports %d torn bytes", torn)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].ID != want[i].ID || got[i].State != want[i].State {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Req == nil || got[0].Req.Chip != "B4" {
		t.Fatalf("accept record lost the request: %+v", got[0].Req)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn final frame.
// Whatever byte the write stopped at, replay returns exactly the intact
// prefix and reports the tail; it never parses past the tear.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	j, err := CreateJournal(full, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JournalRecord{
		acceptRec("job-000001", reqN(1)),
		acceptRec("job-000002", reqN(2)),
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	frame1, err := frameRecord(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Truncate inside the second frame at every offset: header, checksum
	// and payload tears alike must yield exactly one valid record.
	for cut := len(frame1) + 1; cut < len(data); cut++ {
		path := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid, torn, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(got) != 1 || got[0].ID != "job-000001" {
			t.Fatalf("cut %d: got %d records, want the intact first", cut, len(got))
		}
		if valid != int64(len(frame1)) || torn != int64(cut-len(frame1)) {
			t.Fatalf("cut %d: valid %d torn %d, want %d/%d", cut, valid, torn, len(frame1), cut-len(frame1))
		}
	}
	// Appended garbage (a tear that flipped bytes rather than truncating)
	// is equally a tail, not a parse.
	garbage := append(append([]byte{}, data...), []byte("HFDJ****not a frame")...)
	path := filepath.Join(dir, "garbage.journal")
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, torn, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || torn == 0 {
		t.Fatalf("garbage tail: %d records, %d torn bytes", len(got), torn)
	}
	// Compaction rewrites just the valid prefix; the rewritten file is
	// clean.
	if _, err := CreateJournal(path, compactRecords(replayJournal(got))); err != nil {
		t.Fatal(err)
	}
	got2, _, torn2, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn2 != 0 || len(got2) != 2 {
		t.Fatalf("post-compaction: %d records, %d torn bytes", len(got2), torn2)
	}
}

// TestJournalFsck: the fsck modes the chaos harness relies on — clean
// and torn-tail journals pass, a missing or all-garbage file fails.
func TestJournalFsck(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := FsckJournal(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("fsck of a missing file passed")
	}
	path := filepath.Join(dir, "jobs.journal")
	j, err := CreateJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JournalRecord{
		acceptRec("job-000001", reqN(1)),
		stateRec("job-000001", StateDone, ""),
		acceptRec("job-000002", reqN(2)),
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, _, err := FsckJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 3 || rep.Jobs != 2 || rep.Live != 1 || rep.Terminal != 1 || rep.TornBytes != 0 {
		t.Fatalf("clean fsck: %+v", rep)
	}
	// A torn tail is reported, not failed.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("partial")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rep, _, err = FsckJournal(path)
	if err != nil {
		t.Fatalf("torn tail failed fsck: %v", err)
	}
	if rep.Records != 3 || rep.TornBytes == 0 {
		t.Fatalf("torn fsck: %+v", rep)
	}
	// A file with no valid content at all is an error, not an empty
	// journal.
	bad := filepath.Join(dir, "bad.journal")
	if err := os.WriteFile(bad, []byte("this was never a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := FsckJournal(bad); err == nil {
		t.Fatal("fsck of pure garbage passed")
	}
}

// TestReplayAndCompact: last-writer-wins replay, orphan state records
// dropped, and compaction emitting one accept per job plus terminal
// states only.
func TestReplayAndCompact(t *testing.T) {
	recs := []JournalRecord{
		acceptRec("job-000001", reqN(1)),
		stateRec("job-000001", StateRunning, ""),
		acceptRec("job-000002", reqN(2)),
		stateRec("job-000002", StateRunning, ""),
		stateRec("job-000002", StateFailed, "boom"),
		acceptRec("job-000003", reqN(3)),
		// Orphan: its accept was in a previously truncated tail, so the
		// job was never acknowledged and must not resurrect.
		stateRec("job-000099", StateDone, ""),
	}
	jobs := replayJournal(recs)
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	if jobs["job-000001"].state != StateRunning {
		t.Fatalf("job 1 state %s", jobs["job-000001"].state)
	}
	if jobs["job-000002"].state != StateFailed || jobs["job-000002"].cause != "boom" {
		t.Fatalf("job 2 state %s cause %q", jobs["job-000002"].state, jobs["job-000002"].cause)
	}
	if jobs["job-000003"].state != StateQueued {
		t.Fatalf("job 3 state %s", jobs["job-000003"].state)
	}

	compact := compactRecords(jobs)
	// job 1 (live): accept only; job 2 (terminal): accept + state; job 3
	// (live): accept only.
	if len(compact) != 4 {
		t.Fatalf("compacted to %d records, want 4: %+v", len(compact), compact)
	}
	if compact[0].ID != "job-000001" || compact[0].Op != opAccept {
		t.Fatalf("compact[0] = %+v", compact[0])
	}
	if compact[2].Op != opState || compact[2].State != StateFailed || compact[2].Cause != "boom" {
		t.Fatalf("compact[2] = %+v", compact[2])
	}
	// Replay of the compaction keeps terminal states; live jobs come
	// back as queued — their in-flight transitions are deliberately
	// dropped, since recovery requeues them anyway.
	again := replayJournal(compact)
	for id, j := range jobs {
		want := j.state
		if !want.terminal() {
			want = StateQueued
		}
		if again[id] == nil || again[id].state != want {
			t.Fatalf("job %s: state %v after recompaction, want %v", id, again[id], want)
		}
	}
}

// TestJobIDOrderPastSixDigits: job IDs sort by number across newJobID's
// six-digit padding, both where recovery orders its requeues and where
// compaction picks the newest journalKeepTerminal terminal jobs to keep.
func TestJobIDOrderPastSixDigits(t *testing.T) {
	for _, tc := range []struct{ in, want []string }{
		{[]string{"job-000002", "job-000001"}, []string{"job-000001", "job-000002"}},
		{[]string{"job-1000000", "job-999999"}, []string{"job-999999", "job-1000000"}},
		{
			[]string{"job-1000001", "job-000010", "job-10000000", "job-1000000", "job-999999"},
			[]string{"job-000010", "job-999999", "job-1000000", "job-1000001", "job-10000000"},
		},
	} {
		got := append([]string(nil), tc.in...)
		sortJobIDs(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("sortJobIDs(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}

	// One terminal job too many, the newest being job-1000000: the
	// oldest is the one compaction drops.
	const last = 1000000
	jobs := make(map[string]*replayedJob)
	for n := last - journalKeepTerminal; n <= last; n++ {
		id := newJobID(n)
		jobs[id] = &replayedJob{accept: acceptRec(id, reqN(1)), state: StateDone}
	}
	var kept []string
	for _, rec := range compactRecords(jobs) {
		if rec.Op == opAccept {
			kept = append(kept, rec.ID)
		}
	}
	first, newest := newJobID(last-journalKeepTerminal+1), newJobID(last)
	if len(kept) != journalKeepTerminal || kept[0] != first || kept[len(kept)-1] != newest {
		t.Fatalf("compaction kept %d jobs %s..%s, want %d jobs %s..%s",
			len(kept), kept[0], kept[len(kept)-1], journalKeepTerminal, first, newest)
	}
}

// writeLegacyJournal writes raw JSON accept payloads through the journal
// framing — records a build whose JournalRecord had other fields wrote.
func writeLegacyJournal(t *testing.T, path string, payloads ...string) {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		data = append(data, framePayload([]byte(p))...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// legacyAccept renders an accept record in the form older builds
// journaled, with the job's unit, fingerprint and dedupe key copied
// beside the request.
func legacyAccept(id, req, fp string) string {
	return fmt.Sprintf(`{"op":"accept","id":%q,"time":"2026-01-02T03:04:05Z","req":%s,"unit":"B4","fp":%q,"dedupe":"B4/%s"}`,
		id, req, fp, fp)
}
