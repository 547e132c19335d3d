package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"harmony/internal/registry"
)

// Snapshots are full registry serializations (registry.SnapshotView's
// Encode) named for the highest LSN they cover:
//
//	snap-<lsn hex>.json
//
// Recovery loads the newest decodable snapshot and replays only WAL
// records with a higher LSN; compaction deletes segments the snapshot
// covers. The previous snapshot is kept as a fallback against a torn or
// corrupted newest one.

const (
	snapPrefix = "snap-"
	snapSuffix = ".json"
	// snapKeep is how many snapshots survive pruning.
	snapKeep = 2
)

func snapshotName(lsn uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix)
}

func parseSnapshotName(name string) (lsn uint64, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns snapshot LSNs sorted newest first.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if lsn, ok := parseSnapshotName(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out, nil
}

// writeSnapshot persists one snapshot atomically (temp + fsync + rename,
// via the registry's shared writer, plus a directory sync so the rename
// itself survives a crash).
func writeSnapshot(dir string, lsn uint64, data []byte) error {
	if err := registry.WriteFileAtomic(filepath.Join(dir, snapshotName(lsn)), data); err != nil {
		return err
	}
	return syncDir(dir)
}

// pruneSnapshots removes all but the newest snapKeep snapshots.
func pruneSnapshots(dir string) error {
	snaps, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, lsn := range snaps[min(len(snaps), snapKeep):] {
		if err := os.Remove(filepath.Join(dir, snapshotName(lsn))); err != nil {
			return err
		}
	}
	return nil
}
