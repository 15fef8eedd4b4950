package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/failpoint"
)

// Disk-pressure guard: a watchdog over the filesystem holding the
// journal and cache. The journal's whole contract — never ack a job it
// couldn't fsync — turns a silently filling disk into a hard outage, so
// below the watermark (free < DiskHardBytes) the guard rejects every
// submission with 507 (even would-be cache hits journal an accept
// record) and sweeps the cache down to CacheBytes; /metrics, job reads
// and artifact fetches stay alive. Above it nothing changes: the sweep
// that runs after every job already keeps the cache at its budget.
//
// The free-bytes probe honors the "serve.disk.free" value failpoint, so
// the smoke drives the watermark deterministically on a healthy disk.

// ErrDiskFull rejects submissions while free space is under the hard
// watermark. Maps to HTTP 507 Insufficient Storage; retryable once GC
// (or an operator) frees space.
var ErrDiskFull = errors.New("serve: disk full")

// Disk pressure levels (the serve.disk_pressure gauge).
const (
	diskOK   = 0
	diskHard = 1
)

// defaultDiskPoll is the free-space probe interval (Config.diskPoll
// overrides it in tests).
const defaultDiskPoll = 2 * time.Second

// diskGuardEnabled reports whether the watermark is configured.
func (s *Server) diskGuardEnabled() bool {
	return s.cfg.DiskHardBytes > 0 && s.diskPath() != ""
}

// diskPath is the directory whose filesystem the guard watches: the
// journal's (durability is the scarcer promise), else the cache's.
func (s *Server) diskPath() string {
	if s.cfg.JournalPath != "" {
		return filepath.Dir(s.cfg.JournalPath)
	}
	if s.cfg.Cache != nil {
		return s.cfg.Cache.Dir()
	}
	return ""
}

// diskWatch polls the watermark until shutdown.
func (s *Server) diskWatch() {
	defer s.wg.Done()
	poll := s.cfg.diskPoll
	if poll <= 0 {
		poll = defaultDiskPoll
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.diskCheck()
		}
	}
}

// diskCheck measures free space and applies the watermark. Also called
// synchronously from Start (a server started on a full disk must reject
// from its first request) and after a journal ENOSPC.
func (s *Server) diskCheck() {
	free, err := s.diskFreeBytes()
	if err != nil {
		s.cfg.Obs.Info("serve: disk probe failed", "path", s.diskPath(), "error", err)
		return
	}
	s.diskFree.Store(free)
	level := int32(diskOK)
	if free < s.cfg.DiskHardBytes {
		level = diskHard
	}
	if prev := s.diskPressure.Swap(level); level != prev {
		s.cfg.Obs.Count(fmt.Sprintf("serve.disk_pressure_%d", level), 1)
		s.cfg.Obs.Info("serve: disk pressure changed", "path", s.diskPath(),
			"free_bytes", free, "level", level, "was", prev)
	}
	if level == diskHard {
		// Reclaim what the budgeted sweep can; pinned entries stay.
		s.maybeGC()
	}
}

// diskFreeBytes probes free space on the guarded filesystem: the
// "serve.disk.free" value failpoint when armed, the test hook when set,
// else statfs.
func (s *Server) diskFreeBytes() (int64, error) {
	if v, ok := failpoint.Value("serve.disk.free"); ok {
		return v, nil
	}
	probe := s.cfg.diskFree
	if probe == nil {
		probe = diskFreeBytes
	}
	return probe(s.diskPath())
}
