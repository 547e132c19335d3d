package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Compiled-profile blobs: side files under <dir>/profiles/, one per
// schema fingerprint, written atomically (tmp + rename), never journaled
// and never replicated.
//
// The daemon no longer reads or writes them. A restart compiles the
// profile cache's warm set straight from the registry, which is cheaper
// than decoding a blob per schema, and Open deletes a profiles/
// directory left behind by older versions (removeStaleProfiles). The
// blob API below survives only for the benchmark's traced replay, which
// still compiles against it; it goes once that replay mirrors the
// compile warm-up.

// profilesDirName is the store subdirectory holding profile artifacts.
const profilesDirName = "profiles"

// validProfileFingerprint guards the fingerprint-to-filename mapping:
// fingerprints are lowercase hex (schema.Fingerprint emits 32 chars),
// so nothing path-hostile can reach the filesystem.
func validProfileFingerprint(fp string) bool {
	if len(fp) == 0 || len(fp) > 128 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) profilePath(fp string) string {
	return filepath.Join(s.opts.Dir, profilesDirName, fp+".json")
}

// SaveProfile atomically writes one compiled-profile blob. Errors are
// returned, not fatal: a failed artifact write only loses warm-start
// work.
func (s *Store) SaveProfile(fp string, blob []byte) error {
	if !validProfileFingerprint(fp) {
		return fmt.Errorf("store: invalid profile fingerprint %q", fp)
	}
	dir := filepath.Join(s.opts.Dir, profilesDirName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: profiles dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-profile-*")
	if err != nil {
		return fmt.Errorf("store: profile tmp: %w", err)
	}
	if _, err = tmp.Write(blob); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: profile write: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.profilePath(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: profile rename: %w", err)
	}
	return nil
}

// LoadProfile reads one profile blob; ok is false when no artifact
// exists for the fingerprint.
func (s *Store) LoadProfile(fp string) ([]byte, bool) {
	if !validProfileFingerprint(fp) {
		return nil, false
	}
	data, err := os.ReadFile(s.profilePath(fp))
	if err != nil {
		return nil, false
	}
	return data, true
}

// DeleteProfile removes a fingerprint's artifact (no-op when absent).
func (s *Store) DeleteProfile(fp string) {
	if !validProfileFingerprint(fp) {
		return
	}
	os.Remove(s.profilePath(fp))
}

// ProfileFingerprints lists the fingerprints with stored artifacts.
func (s *Store) ProfileFingerprints() []string {
	entries, err := os.ReadDir(filepath.Join(s.opts.Dir, profilesDirName))
	if err != nil {
		return nil
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		fp, ok := strings.CutSuffix(name, ".json")
		if !ok || !validProfileFingerprint(fp) {
			continue
		}
		out = append(out, fp)
	}
	return out
}

// removeStaleProfiles deletes the profiles/ directory older versions
// persisted compiled profiles into. Best-effort: the blobs are derived
// data, never journaled, so losing them loses nothing, and a failure is
// only logged. On a 10k-schema store they outweigh the snapshot.
func removeStaleProfiles(dir string, logf func(format string, args ...any)) {
	path := filepath.Join(dir, profilesDirName)
	if _, err := os.Lstat(path); err != nil {
		return
	}
	if err := os.RemoveAll(path); err != nil {
		logf("store: removing stale compiled-profile blobs %s: %v", path, err)
		return
	}
	logf("store: removed stale compiled-profile blobs %s", path)
}
