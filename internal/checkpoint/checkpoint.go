// Package checkpoint provides durable, atomic, self-verifying checkpoints
// for training runs. A Store manages one directory of numbered checkpoint
// files plus a manifest; every write follows the temp-file → fsync →
// rename → fsync-dir protocol so a crash at any instant leaves either the
// previous state or the new one, never a torn file being the latest.
//
// Layout of a checkpoint directory:
//
//	ckpt-00000042.json   one checkpoint (envelope + CRC + payload)
//	MANIFEST.json        latest pointer + retained history with per-file CRCs
//	LEASE                primary-liveness lease for warm-standby failover
//
// Each checkpoint file is self-verifying (its envelope carries the CRC of
// its own payload), so restore can fall back to a directory scan when the
// manifest itself is torn or missing. Corrupt or truncated files are
// skipped — reported through the skip hook, never fatal — and restore
// lands on the newest file that checks out.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Version identifies the on-disk envelope/manifest format. Bump on any
// incompatible change; Load rejects versions it does not understand.
const Version = 1

const (
	manifestName = "MANIFEST.json"
	filePrefix   = "ckpt-"
	fileSuffix   = ".json"
)

// DefaultRetain is how many checkpoints a Store keeps when the caller
// passes retain <= 0.
const DefaultRetain = 3

// ErrNoCheckpoint is returned by Latest when the directory holds no valid
// checkpoint (empty, or everything corrupt).
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint found")

// envelope is the on-disk frame around one checkpoint payload. CRC32
// (IEEE) covers exactly the Payload bytes, making every file verifiable
// in isolation. Save writes it by hand (appendEnvelopeHead); a change to
// its fields or tags must change both.
type envelope struct {
	Version         int             `json:"version"`
	Step            int             `json:"step"`
	SavedAtUnixNano int64           `json:"saved_at_unix_nano"`
	CRC32           uint32          `json:"crc32"`
	Payload         json.RawMessage `json:"payload"`
}

// manifestEntry describes one retained checkpoint file.
type manifestEntry struct {
	File            string `json:"file"`
	Step            int    `json:"step"`
	CRC32           uint32 `json:"crc32"`
	Size            int64  `json:"size"`
	SavedAtUnixNano int64  `json:"saved_at_unix_nano"`
}

// manifest is the directory index: a latest pointer plus the retained
// history, newest last.
type manifest struct {
	Version int             `json:"version"`
	Latest  string          `json:"latest"`
	Entries []manifestEntry `json:"entries"`
}

// Info describes a saved or loaded checkpoint.
type Info struct {
	File    string
	Step    int
	Size    int64
	SavedAt time.Time
}

// Store manages one checkpoint directory. The caller serialises Save,
// Latest and List (the cluster master calls them from its training loop
// only). The lease methods — WriteLease, ReadLease, ReleaseLease — may run
// concurrently with those (the master renews its lease from a goroutine
// of its own): they touch only the LEASE file, and Save keeps no state
// the lease path shares.
type Store struct {
	dir    string
	retain int
	// skip, when set, is invoked once per corrupt/unreadable file or
	// manifest encountered during restore. Wired to the
	// checkpoint_restore_skipped metric by the cluster master.
	skip func(file string, reason error)
}

// NewStore opens (creating if needed) a checkpoint directory. retain <= 0
// means DefaultRetain.
func NewStore(dir string, retain int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("checkpoint: empty directory")
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	return &Store{dir: dir, retain: retain}, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetSkipHook registers a callback invoked for every corrupt or unreadable
// file skipped during restore. Pass nil to clear.
func (s *Store) SetSkipHook(fn func(file string, reason error)) { s.skip = fn }

func (s *Store) skipped(file string, reason error) {
	if s.skip != nil {
		s.skip(file, reason)
	}
}

func checkpointFileName(step int) string {
	return fmt.Sprintf("%s%08d%s", filePrefix, step, fileSuffix)
}

// Save durably writes payload as the checkpoint for step. The file lands
// first, then the manifest is updated to point at it; old checkpoints
// beyond the retention count are pruned afterwards.
//
// The file's bytes are exactly json.Marshal(envelope{…}) of the payload.
// Save writes them as three pieces — the envelope's head, the marshalled
// payload, the closing brace — instead of marshalling the envelope, which
// would re-scan and copy the whole payload to compact and escape it:
// json.Marshal output is already compact and HTML-escaped.
func (s *Store) Save(step int, payload any) (Info, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return Info{}, fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	now := time.Now()
	crc := crc32.ChecksumIEEE(raw)
	head := appendEnvelopeHead(make([]byte, 0, 128), step, now.UnixNano(), crc)
	size := int64(len(head) + len(raw) + len(envelopeTail))
	name := checkpointFileName(step)
	if err := writeFileAtomic(filepath.Join(s.dir, name), head, raw, envelopeTail); err != nil {
		return Info{}, err
	}

	m, _ := s.readManifest() // torn/missing manifest is rebuilt from this entry on
	entries := m.Entries
	// Replace any previous entry for the same file (same-step overwrite).
	kept := entries[:0]
	for _, e := range entries {
		if e.File != name {
			kept = append(kept, e)
		}
	}
	entries = append(kept, manifestEntry{
		File:            name,
		Step:            step,
		CRC32:           crc,
		Size:            size,
		SavedAtUnixNano: now.UnixNano(),
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].Step < entries[j].Step })

	// Prune beyond retention: drop oldest entries and their files.
	var pruned []manifestEntry
	if len(entries) > s.retain {
		pruned = append(pruned, entries[:len(entries)-s.retain]...)
		entries = entries[len(entries)-s.retain:]
	}
	newM := manifest{Version: Version, Latest: name, Entries: entries}
	mdata, err := json.MarshalIndent(newM, "", "  ")
	if err != nil {
		return Info{}, fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, manifestName), mdata); err != nil {
		return Info{}, err
	}
	// Only after the manifest durably stopped referencing them.
	for _, e := range pruned {
		os.Remove(filepath.Join(s.dir, e.File))
	}
	return Info{File: name, Step: step, Size: size, SavedAt: now}, nil
}

// envelopeTail closes the envelope after the payload bytes.
var envelopeTail = []byte("}")

// appendEnvelopeHead appends what json.Marshal(envelope{…}) writes before
// the payload's bytes: the fixed fields in declaration order, then the
// payload key.
func appendEnvelopeHead(dst []byte, step int, savedAtUnixNano int64, crc uint32) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendInt(dst, Version, 10)
	dst = append(dst, `,"step":`...)
	dst = strconv.AppendInt(dst, int64(step), 10)
	dst = append(dst, `,"saved_at_unix_nano":`...)
	dst = strconv.AppendInt(dst, savedAtUnixNano, 10)
	dst = append(dst, `,"crc32":`...)
	dst = strconv.AppendUint(dst, uint64(crc), 10)
	return append(dst, `,"payload":`...)
}

// Latest loads the newest valid checkpoint into payload (a pointer).
// Corrupt entries are skipped (reported via the skip hook) and the next
// newest is tried; a torn or missing manifest falls back to scanning the
// directory for self-verifying files. Returns ErrNoCheckpoint when nothing
// valid exists.
func (s *Store) Latest(payload any) (Info, error) {
	if _, err := os.Stat(s.dir); err != nil {
		return Info{}, ErrNoCheckpoint
	}
	candidates := s.candidateFiles()
	for _, name := range candidates {
		info, err := s.loadFile(name, payload)
		if err != nil {
			s.skipped(name, err)
			continue
		}
		return info, nil
	}
	return Info{}, ErrNoCheckpoint
}

// candidateFiles returns checkpoint file names to try, newest first. The
// manifest and a directory scan are merged: a crash between a checkpoint's
// rename and the manifest's rename leaves a durable file the manifest does
// not know about, and that file — being newest and self-verifying — must
// still win. Step numbers are zero-padded, so lexical order is step order.
func (s *Store) candidateFiles() []string {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if name != "" && !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	m, err := s.readManifest()
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		s.skipped(manifestName, err)
	}
	add(m.Latest)
	for _, e := range m.Entries {
		add(e.File)
	}
	names, _ := os.ReadDir(s.dir)
	for _, de := range names {
		n := de.Name()
		if strings.HasPrefix(n, filePrefix) && strings.HasSuffix(n, fileSuffix) {
			add(n)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out
}

// loadFile reads one checkpoint file, verifying version and CRC, and
// unmarshals its payload.
func (s *Store) loadFile(name string, payload any) (Info, error) {
	if name != filepath.Base(name) {
		// A hostile manifest must not make restore read outside the dir.
		return Info{}, fmt.Errorf("invalid checkpoint file name %q", name)
	}
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Info{}, fmt.Errorf("decode envelope: %w", err)
	}
	if env.Version != Version {
		return Info{}, fmt.Errorf("unsupported checkpoint version %d", env.Version)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		return Info{}, fmt.Errorf("crc mismatch: file says %08x, payload is %08x", env.CRC32, got)
	}
	if err := json.Unmarshal(env.Payload, payload); err != nil {
		return Info{}, fmt.Errorf("decode payload: %w", err)
	}
	return Info{
		File:    name,
		Step:    env.Step,
		Size:    int64(len(data)),
		SavedAt: time.Unix(0, env.SavedAtUnixNano),
	}, nil
}

// List returns the steps of all retained checkpoints per the manifest,
// oldest first. Intended for tests and tooling.
func (s *Store) List() ([]int, error) {
	m, err := s.readManifest()
	if err != nil {
		return nil, err
	}
	steps := make([]int, len(m.Entries))
	for i, e := range m.Entries {
		steps[i] = e.Step
	}
	return steps, nil
}

func (s *Store) readManifest() (manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return manifest{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, fmt.Errorf("decode manifest: %w", err)
	}
	if m.Version != Version {
		return manifest{}, fmt.Errorf("unsupported manifest version %d", m.Version)
	}
	return m, nil
}

// writeFileAtomic writes the concatenation of parts at path via a temp
// file in the same directory: write → fsync file → close → rename → fsync
// directory. After it returns nil the file is durable under the final
// name.
func writeFileAtomic(path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	for _, data := range parts {
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return fmt.Errorf("checkpoint: write temp: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: fsync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("checkpoint: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("checkpoint: fsync dir: %w", err)
	}
	return nil
}
