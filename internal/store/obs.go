package store

import "harmony/internal/obs"

// Store instrumentation registers on the process-wide registry: WAL and
// snapshot latencies are properties of the process's disks, not of any
// one HTTP server, and tests exercising the store directly still show up
// on /metrics.
var (
	walAppendSeconds = obs.Default().Histogram(
		"harmony_wal_append_seconds",
		"WAL record write latency (framing + file write, excluding fsync).",
		obs.DefBuckets)
	walFsyncSeconds = obs.Default().Histogram(
		"harmony_wal_fsync_seconds",
		"WAL fsync latency under the per-commit durability policy.",
		obs.DefBuckets)
	walAppendedBytes = obs.Default().Counter(
		"harmony_wal_appended_bytes_total",
		"Bytes appended to the WAL, including record framing.")
	walGroupCommitRecords = obs.Default().Histogram(
		"harmony_wal_group_commit_records",
		"Records coalesced into one WAL group flush (one write + one fsync).",
		obs.CountBuckets)
	snapshotSeconds = obs.Default().Histogram(
		"harmony_store_snapshot_seconds",
		"Wall time of successful snapshot runs (capture, write, prune, truncate).",
		obs.DefBuckets)
)
