//! Persistent tuning cache keyed by `(workload, cluster, config)`.

use std::collections::{hash_map, HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use tilelink::{OverlapConfig, OverlapReport};
use tilelink_probe::metrics::TUNE_CACHE_OPEN_ERRORS;

use crate::{Priced, Result, TuneError};

/// Environment variable overriding the default cache location.
pub const CACHE_PATH_ENV: &str = "TILELINK_TUNE_CACHE";

/// Test-only crash injection for [`TuneCache::flush`]. When this variable is
/// set to one of the recognised points, `flush` calls
/// [`std::process::abort`] there, simulating a crash:
///
/// - `mid-write` — after roughly half the bytes of the new file have been
///   written to the temp sibling,
/// - `pre-rename` — after the temp sibling is complete but before it is
///   renamed over the real file.
///
/// The torn-write regression tests spawn a child process with this set and
/// then assert the real cache file is untouched. Never set it outside tests.
pub const FLUSH_ABORT_ENV: &str = "TILELINK_TUNE_CACHE_FLUSH_ABORT";

/// Second column of a floor line (`key<TAB>floor<TAB>seconds`). Floor lines
/// have three columns, so a parser that only knows four-column report lines
/// skips them as malformed instead of reading a bound as a timing.
const FLOOR_TAG: &str = "floor";

/// Second column of a total line (`key<TAB>total<TAB>seconds`): three columns
/// like a floor line, so four-column readers skip it too, and readers that
/// only know the floor tag skip it as an unknown tag.
const TOTAL_TAG: &str = "total";

fn flush_abort_point(point: &str) {
    if std::env::var(FLUSH_ABORT_ENV).as_deref() == Ok(point) {
        std::process::abort();
    }
}

/// Serialises the read-merge-rename sequence in [`TuneCache::flush`] within
/// one process so two in-process flushes cannot interleave their
/// read-then-rewrite windows and drop each other's entries. Cross-process
/// writers are protected by the merge itself (best effort: the window between
/// a flush's re-read and its rename is not locked across processes, but it is
/// microseconds instead of the whole tuning run).
static FLUSH_LOCK: Mutex<()> = Mutex::new(());

/// One cache entry; the three kinds are the three line kinds of a cache
/// file, keyed alike.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    /// Certified branch-and-bound floor: the objective value is at least this.
    Floor(f64),
    /// Exact objective value, without the comm-only/compute-only split.
    Total(f64),
    /// Exact report, split included.
    Report(OverlapReport),
}

impl Entry {
    /// Precedence of the kind: a report supersedes a total, which
    /// supersedes a floor.
    fn rank(&self) -> u8 {
        match self {
            Entry::Floor(_) => 0,
            Entry::Total(_) => 1,
            Entry::Report(_) => 2,
        }
    }
}

#[derive(Debug, Default)]
struct Contents {
    entries: HashMap<String, Entry>,
}

impl Contents {
    /// Merges `entry` into `key`'s entry by precedence: a higher kind
    /// replaces a lower one and is never replaced by it; between two floors
    /// the larger wins, between two priced entries of one kind the incoming
    /// one. Non-finite floors are ignored. Returns whether the stored entry
    /// changed.
    fn merge(&mut self, key: String, entry: Entry) -> bool {
        if matches!(entry, Entry::Floor(f) if !f.is_finite()) {
            return false;
        }
        let old = match self.entries.entry(key) {
            hash_map::Entry::Vacant(slot) => {
                slot.insert(entry);
                return true;
            }
            hash_map::Entry::Occupied(slot) => slot.into_mut(),
        };
        let replace = match old.rank().cmp(&entry.rank()) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match (*old, entry) {
                (Entry::Floor(a), Entry::Floor(b)) => b > a,
                (a, b) => a != b,
            },
        };
        if replace {
            *old = entry;
        }
        replace
    }

    /// Every key, whatever its kind, in `scope` but outside `current_prefix`.
    fn stale_keys<'a>(
        &'a self,
        scope: &'a str,
        current_prefix: &str,
    ) -> impl Iterator<Item = &'a String> + 'a {
        let current = format!("{current_prefix}|");
        self.entries
            .keys()
            .filter(move |k| k.starts_with(scope) && !k.starts_with(&current))
    }
}

/// A persistent map from tuning keys to simulated objective values and
/// reports, plus the certified lower bounds of candidates that
/// branch-and-bound disposed of.
///
/// The on-disk format is a line-oriented TSV so cache files can be inspected
/// and diffed. It has three line kinds, told apart by their shape:
///
/// * a report line `key<TAB>total_s<TAB>comm_only_s<TAB>comp_only_s` holds
///   the full [`OverlapReport`] (the tuner writes one for each search's
///   winner, see [`TuneCache::insert`]);
/// * a total line `key<TAB>total<TAB>seconds` holds the exact objective value
///   of a candidate the search ranked without pricing its comm-only and
///   compute-only split ([`TuneCache::insert_total`]);
/// * a floor line `key<TAB>floor<TAB>seconds` proves the objective value of
///   that candidate is at least `seconds` (the clock at which a bounded
///   simulation aborted past the incumbent, see [`TuneCache::record_floor`]).
///
/// Total and floor lines have three columns, so a reader that only
/// understands report lines skips them as malformed and can never mistake a
/// bound for a timing or read a report without its split; a reader that
/// knows floor lines but not total lines skips the unknown tag.
///
/// Keys combine the oracle's workload key, the [`crate::cluster_key`] of the
/// cluster, the cost-model revision ([`crate::CostOracle::cost_revision`]),
/// the objective key ([`crate::Objective::key`]) and
/// [`OverlapConfig::cache_key`], none of which contain tabs or newlines.
/// Because the revision and the objective are part of the key, entries
/// evaluated under a different cost model — or tuned for a different
/// statistic of the sampled makespans — simply miss: a stale cache
/// self-invalidates instead of serving timings the current model would not
/// produce, and mean-tuned entries never alias with p99-tuned ones.
///
/// One key holds one entry, and the kinds rank report > total > floor: a
/// higher kind supersedes a lower one for the same key — in memory, on load
/// and in the flush merge. [`TuneCache::get`] returns the objective value of
/// a report or a total, [`TuneCache::report`] full reports only, and a floor
/// is only ever used to skip a candidate whose floor already reaches the
/// current cutoff.
///
/// # Persistence semantics
///
/// [`TuneCache::flush`] rewrites the file atomically: the new contents are
/// written to a sibling temp file which is then `rename`d over the real path,
/// so readers always see either the old complete file or the new complete
/// file — an interrupted flush can never truncate the cache. Before
/// rewriting, `flush` re-reads the on-disk file and merges it with the
/// in-memory entries (union by the precedence above; between two entries of
/// one priced kind the in-memory one wins, and the larger of two floors
/// wins), so concurrent tuners
/// sharing one cache file — as CI's shared `TILELINK_TUNE_CACHE` does across
/// smoke steps — accumulate entries instead of clobbering each other.
/// Unparseable lines are still skipped on load, so a cache file damaged by
/// external means only loses the damaged entries, never the whole cache.
///
/// A flush is a no-op unless this handle changed an entry or swept a key
/// since its last successful flush, so a run answered
/// entirely from the cache never rewrites the file.
#[derive(Debug)]
pub struct TuneCache {
    path: Option<PathBuf>,
    contents: Contents,
    /// Keys removed by [`TuneCache::sweep_stale`]. The flush merge re-reads
    /// the on-disk file, which would silently resurrect swept entries;
    /// tombstones make the removal stick until the next flush rewrites the
    /// file without them.
    tombstones: HashSet<String>,
    /// Whether this handle changed anything since its last successful flush.
    /// Atomic because [`TuneCache::flush`] takes `&self`.
    dirty: AtomicBool,
}

impl TuneCache {
    /// An in-memory cache that never touches the filesystem.
    pub fn in_memory() -> Self {
        Self {
            path: None,
            contents: Contents::default(),
            tombstones: HashSet::new(),
            dirty: AtomicBool::new(false),
        }
    }

    /// Opens (or initialises) a cache backed by `path`.
    ///
    /// A missing file is treated as an empty cache; it is created on the first
    /// [`TuneCache::flush`] that has something to write.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::CacheIo`] if the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let contents = Self::read_contents(&path)?;
        Ok(Self {
            path: Some(path),
            contents,
            ..Self::in_memory()
        })
    }

    /// Parses the TSV at `path`, treating a missing file as empty and
    /// skipping unparseable lines. Shared by [`TuneCache::open`] and the
    /// merge pass of [`TuneCache::flush`].
    fn read_contents(path: &Path) -> Result<Contents> {
        let mut contents = Contents::default();
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(contents),
            Err(e) => {
                return Err(TuneError::CacheIo {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        for line in text.lines() {
            let mut parts = line.split('\t');
            let (Some(key), Some(second), Some(third)) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            let entry = match parts.next() {
                Some(comp) => {
                    let (Ok(total), Ok(comm), Ok(comp)) = (
                        second.parse::<f64>(),
                        third.parse::<f64>(),
                        comp.parse::<f64>(),
                    ) else {
                        continue;
                    };
                    Entry::Report(OverlapReport::new(total, comm, comp))
                }
                None => {
                    let Ok(seconds) = third.parse::<f64>() else {
                        continue;
                    };
                    match second {
                        FLOOR_TAG => Entry::Floor(seconds),
                        TOTAL_TAG => Entry::Total(seconds),
                        _ => continue,
                    }
                }
            };
            // Precedence, not file order, decides between kinds of one key.
            contents.merge(key.to_string(), entry);
        }
        Ok(contents)
    }

    /// The default cache location: `$TILELINK_TUNE_CACHE` if set, otherwise
    /// `tilelink-tune-cache.tsv` in the system temp directory.
    pub fn default_path() -> PathBuf {
        std::env::var_os(CACHE_PATH_ENV)
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("tilelink-tune-cache.tsv"))
    }

    /// Opens the default cache (see [`TuneCache::default_path`]). Falls back
    /// to an in-memory cache if the file exists but is unreadable — loudly:
    /// see [`TuneCache::open_or_warn`].
    pub fn open_default() -> Self {
        Self::open_or_warn(Self::default_path())
    }

    /// Opens the cache at `path`, falling back to an *empty in-memory* cache
    /// if the file exists but cannot be read.
    ///
    /// Unlike a silent fallback, the error is reported on stderr and counted
    /// in the `tune.cache.open_errors` probe counter, so a permissions typo
    /// on `$TILELINK_TUNE_CACHE` shows up as a warning instead of
    /// masquerading as a cold cache that re-runs every search.
    pub fn open_or_warn(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        match Self::open(path) {
            Ok(cache) => cache,
            Err(e) => {
                TUNE_CACHE_OPEN_ERRORS.inc();
                eprintln!(
                    "warning: tuning cache {} is unreadable ({e}); continuing with an \
                     empty in-memory cache, so every search will re-simulate and \
                     nothing will be persisted",
                    path.display()
                );
                Self::in_memory()
            }
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of priced entries — reports and totals (floors are not
    /// counted).
    pub fn len(&self) -> usize {
        self.contents
            .entries
            .values()
            .filter(|e| !matches!(e, Entry::Floor(_)))
            .count()
    }

    /// Returns `true` if the cache holds no report and no total.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared `workload|cluster|revision|objective` prefix of every key
    /// of one tuning run.
    ///
    /// All four parts are fixed for the duration of a [`crate::Tuner::tune`]
    /// call, so the tuner builds this once per run and derives per-candidate
    /// keys with [`TuneCache::key_in`] instead of re-assembling (and
    /// re-allocating) the full quadruple on every cache probe.
    pub fn key_prefix(
        workload_key: &str,
        cluster_key: &str,
        cost_revision: &str,
        objective_key: &str,
    ) -> String {
        format!("{workload_key}|{cluster_key}|{cost_revision}|{objective_key}")
    }

    /// The full cache key of one candidate under a memoized
    /// [`TuneCache::key_prefix`].
    pub fn key_in(prefix: &str, cfg: &OverlapConfig) -> String {
        format!("{prefix}|{}", cfg.cache_key())
    }

    /// The full cache key for one (workload, cluster, cost-model revision,
    /// objective, config) quintuple.
    pub fn key(
        workload_key: &str,
        cluster_key: &str,
        cost_revision: &str,
        objective_key: &str,
        cfg: &OverlapConfig,
    ) -> String {
        Self::key_in(
            &Self::key_prefix(workload_key, cluster_key, cost_revision, objective_key),
            cfg,
        )
    }

    /// Looks up the exact objective value cached for `key`: a report's
    /// `total_s` or a total. Floors are never returned here.
    pub fn get(&self, key: &str) -> Option<Priced> {
        match self.contents.entries.get(key)? {
            Entry::Report(report) => Some(Priced {
                total_s: report.total_s,
            }),
            Entry::Total(total_s) => Some(Priced { total_s: *total_s }),
            Entry::Floor(_) => None,
        }
    }

    /// Looks up a cached full report. Totals and floors are never returned
    /// here.
    pub fn report(&self, key: &str) -> Option<OverlapReport> {
        match self.contents.entries.get(key)? {
            Entry::Report(report) => Some(*report),
            _ => None,
        }
    }

    /// The certified lower bound recorded for `key`, if the candidate was
    /// disposed of by branch-and-bound and never fully simulated.
    pub fn floor(&self, key: &str) -> Option<f64> {
        match self.contents.entries.get(key)? {
            Entry::Floor(floor) => Some(*floor),
            _ => None,
        }
    }

    /// Number of entries — of every kind — for the same
    /// `workload|cluster` scope that were recorded under a *different*
    /// cost-model revision or objective than `current_prefix` (a full
    /// [`TuneCache::key_prefix`]).
    ///
    /// These entries are not wrong — they self-invalidate by missing — but
    /// every one of them represents an oracle call the current run has to
    /// repeat, which is worth surfacing in the metrics registry.
    pub fn count_stale(&self, scope: &str, current_prefix: &str) -> usize {
        self.contents.stale_keys(scope, current_prefix).count()
    }

    /// Removes every entry — of every kind — in `scope` recorded under a
    /// different cost-model revision or objective than `current_prefix` (the
    /// same notion of stale as [`TuneCache::count_stale`]) and returns how
    /// many were swept.
    ///
    /// Swept keys are tombstoned so the next [`TuneCache::flush`] drops them
    /// from the backing file too instead of resurrecting them through the
    /// disk merge. This is the long-running daemon's memory/disk bound: a
    /// cost-model upgrade no longer leaves the superseded revision's entries
    /// behind forever. One-shot CLI runs that alternate between cost models
    /// should prefer `count_stale`, which keeps both revisions warm.
    pub fn sweep_stale(&mut self, scope: &str, current_prefix: &str) -> usize {
        let stale: Vec<String> = self
            .contents
            .stale_keys(scope, current_prefix)
            .cloned()
            .collect();
        for key in &stale {
            self.contents.entries.remove(key);
        }
        if !stale.is_empty() {
            self.dirty.store(true, Ordering::Relaxed);
        }
        let swept = stale.len();
        self.tombstones.extend(stale);
        swept
    }

    /// Inserts (or replaces) a cached report, superseding any total or floor
    /// recorded for the same key. Call [`TuneCache::flush`] to persist.
    pub fn insert(&mut self, key: String, report: OverlapReport) {
        self.record(key, Entry::Report(report));
    }

    /// Caches the exact objective value of `key` without its comm-only and
    /// compute-only split, superseding any floor. Ignored when a report for
    /// the key is cached. Call [`TuneCache::flush`] to persist.
    pub fn insert_total(&mut self, key: String, total: f64) {
        self.record(key, Entry::Total(total));
    }

    /// Records a certified lower bound on the objective value of `key`: the
    /// clock of a bounded simulation that aborted past the incumbent
    /// ([`tilelink_sim::BoundedMakespan::Exceeded`]). Ignored when a report or
    /// total for the key is cached or a larger floor is already known, and
    /// for non-finite values. Call [`TuneCache::flush`] to persist.
    pub fn record_floor(&mut self, key: String, floor: f64) {
        self.record(key, Entry::Floor(floor));
    }

    fn record(&mut self, key: String, entry: Entry) {
        if self.contents.merge(key.clone(), entry) {
            self.tombstones.remove(&key);
            self.dirty.store(true, Ordering::Relaxed);
        }
    }

    /// Writes the cache to its backing file (no-op for in-memory caches, and
    /// for a handle with no changes since its last successful flush).
    ///
    /// The rewrite is atomic (temp sibling + `rename`) and merges with the
    /// current on-disk contents first — union of both sides, a report from
    /// either side superseding a total and a total superseding a floor, the
    /// in-memory entry winning between two reports or two totals, and the
    /// larger floor winning between two floors — so an interrupted flush
    /// never truncates the file and concurrent writers never clobber each
    /// other's entries. Reports are written sorted by key, then totals, then
    /// floors, so the file is deterministic. A failed flush leaves the
    /// handle dirty, so the next one retries.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError::CacheIo`] on any filesystem error.
    pub fn flush(&self) -> Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if !self.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        let io_err = |e: std::io::Error| TuneError::CacheIo {
            path: path.display().to_string(),
            message: e.to_string(),
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
        }
        let _serialize = FLUSH_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        // Merge with whatever is on disk right now: another tuner may have
        // flushed since this cache was opened. In-memory entries win within
        // a priced kind (they are this run's freshest measurements), and
        // keys swept by `sweep_stale` are dropped from the merge so the
        // rewrite shrinks the file instead of re-reading the stale entries
        // back in.
        let mut merged = Self::read_contents(path)?;
        for key in &self.tombstones {
            merged.entries.remove(key);
        }
        for (key, entry) in &self.contents.entries {
            merged.merge(key.clone(), *entry);
        }

        let mut sorted: Vec<(&String, &Entry)> = merged.entries.iter().collect();
        sorted.sort_by(|a, b| b.1.rank().cmp(&a.1.rank()).then_with(|| a.0.cmp(b.0)));
        let mut out = Vec::with_capacity(sorted.len() * 64);
        for (key, entry) in sorted {
            match entry {
                Entry::Report(r) => writeln!(
                    out,
                    "{key}\t{:.17e}\t{:.17e}\t{:.17e}",
                    r.total_s, r.comm_only_s, r.comp_only_s
                ),
                Entry::Total(total) => writeln!(out, "{key}\t{TOTAL_TAG}\t{total:.17e}"),
                Entry::Floor(floor) => writeln!(out, "{key}\t{FLOOR_TAG}\t{floor:.17e}"),
            }
            .map_err(io_err)?;
        }

        // Write the new contents to a temp sibling, then rename it over the
        // real file: readers only ever observe a complete file. The temp name
        // embeds the pid so two processes flushing at once stage separately.
        let mut tmp_name = path.file_name().map(|n| n.to_os_string()).ok_or_else(|| {
            io_err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cache path has no file name",
            ))
        })?;
        tmp_name.push(format!(".{}.tmp", std::process::id()));
        let tmp_path = path.with_file_name(tmp_name);
        let write_result = (|| {
            let mut file = std::fs::File::create(&tmp_path)?;
            let half = out.len() / 2;
            file.write_all(&out[..half])?;
            flush_abort_point("mid-write");
            file.write_all(&out[half..])?;
            file.sync_all()?;
            flush_abort_point("pre-rename");
            std::fs::rename(&tmp_path, path)
        })();
        if write_result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        write_result.map_err(io_err)?;
        self.dirty.store(false, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tilelink-tune-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = tmp("roundtrip.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        assert!(cache.is_empty());
        let key = TuneCache::key("w", "c", "analytic-v2", "mean", &OverlapConfig::default());
        cache.insert(key.clone(), OverlapReport::new(1.25e-3, 5e-4, 1e-3));
        cache.flush().unwrap();

        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        let r = reloaded.report(&key).unwrap();
        assert_eq!(r.total_s, 1.25e-3);
        assert_eq!(r.comm_only_s, 5e-4);
        assert_eq!(r.comp_only_s, 1e-3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_lines_are_skipped() {
        let path = tmp("corrupt.tsv");
        std::fs::write(&path, "good\t1.0\t0.5\t0.5\nbad line\nworse\tnan-ish\t\t\n").unwrap();
        let cache = TuneCache::open(&path).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get("good").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_merge_instead_of_clobbering() {
        // Mirrors CI's shared TILELINK_TUNE_CACHE: two tuners open the same
        // file, each learns a different entry, and both flush. Before the
        // merge-on-flush fix the second flush rewrote the file from its own
        // (disjoint) view and the first tuner's entry was lost.
        let path = tmp("two-writer.tsv");
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        a.insert("ka".into(), OverlapReport::new(1.0, 0.4, 0.8));
        a.flush().unwrap();
        b.insert("kb".into(), OverlapReport::new(2.0, 0.9, 1.5));
        b.flush().unwrap();

        let merged = TuneCache::open(&path).unwrap();
        assert!(
            merged.get("ka").is_some(),
            "entry flushed by writer A must survive writer B's flush"
        );
        assert!(merged.get("kb").is_some());
        assert_eq!(merged.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_conflict_resolution_prefers_in_memory() {
        let path = tmp("conflict.tsv");
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        a.insert("k".into(), OverlapReport::new(1.0, 0.4, 0.8));
        a.flush().unwrap();
        b.insert("k".into(), OverlapReport::new(3.0, 1.0, 2.5));
        b.flush().unwrap();

        let merged = TuneCache::open(&path).unwrap();
        assert_eq!(
            merged.get("k").unwrap().total_s,
            3.0,
            "on key conflict the flushing cache's own value wins"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_leaves_no_temp_files_behind() {
        let dir = std::env::temp_dir().join(format!("tilelink-tmpscan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.tsv");
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert("k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.flush().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "flush must clean up its temp sibling");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_cache_surfaces_open_error() {
        // A directory is unreadable as a file on every platform; before the
        // fix open_or_warn/open_default swallowed this and the counter did
        // not exist.
        let dir = std::env::temp_dir().join(format!("tilelink-unreadable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let before = TUNE_CACHE_OPEN_ERRORS.get();
        let cache = TuneCache::open_or_warn(&dir);
        assert!(
            cache.path().is_none(),
            "fallback cache must be in-memory so a later flush cannot damage the path"
        );
        assert!(
            TUNE_CACHE_OPEN_ERRORS.get() > before,
            "an unreadable cache file must be counted in tune.cache.open_errors"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_never_writes() {
        let mut cache = TuneCache::in_memory();
        cache.insert("k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.flush().unwrap();
        assert!(cache.path().is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_embed_all_five_parts() {
        let k = TuneCache::key(
            "mlp",
            "h800x8",
            "analytic-v2",
            "mean",
            &OverlapConfig::default(),
        );
        assert!(k.starts_with("mlp|h800x8|analytic-v2|mean|"));
        assert!(k.contains("ct128x128"));
    }

    #[test]
    fn memoized_prefix_produces_identical_keys() {
        let cfg = OverlapConfig::default();
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "p95");
        assert_eq!(
            TuneCache::key_in(&prefix, &cfg),
            TuneCache::key("mlp", "h800x8", "analytic-v2", "p95", &cfg)
        );
    }

    #[test]
    fn keys_differ_across_cost_model_revisions() {
        let cfg = OverlapConfig::default();
        let analytic = TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg);
        let calibrated = TuneCache::key("mlp", "h800x8", "calibrated-00ff", "mean", &cfg);
        assert_ne!(analytic, calibrated);
        let mut cache = TuneCache::in_memory();
        cache.insert(analytic.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        assert!(cache.get(&analytic).is_some());
        assert!(
            cache.get(&calibrated).is_none(),
            "an entry written under one revision must miss under another"
        );
    }

    #[test]
    fn stale_entries_are_counted_per_scope() {
        let cfg = OverlapConfig::default();
        let r = OverlapReport::new(1.0, 0.5, 0.5);
        let mut cache = TuneCache::in_memory();
        cache.insert(
            TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg),
            r,
        );
        cache.insert(
            TuneCache::key("mlp", "h800x8", "calibrated-00ff", "mean", &cfg),
            r,
        );
        cache.insert(
            TuneCache::key("moe", "h800x8", "analytic-v2", "mean", &cfg),
            r,
        );
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        // One mlp entry under another revision is stale; the moe entry is out
        // of scope and the matching-revision entry is current.
        assert_eq!(cache.count_stale("mlp|h800x8|", &prefix), 1);
        let p95 = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "p95");
        assert_eq!(cache.count_stale("mlp|h800x8|", &p95), 2);
        assert_eq!(cache.count_stale("lm|", &prefix), 0);
    }

    #[test]
    fn sweep_stale_removes_entries_and_shrinks_the_file() {
        let path = tmp("sweep.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = OverlapConfig::default();
        let r = OverlapReport::new(1.0, 0.5, 0.5);
        let mut cache = TuneCache::open(&path).unwrap();
        let stale_key = TuneCache::key("mlp", "h800x8", "analytic-v1", "mean", &cfg);
        let fresh_key = TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &cfg);
        let other_scope = TuneCache::key("moe", "h800x8", "analytic-v1", "mean", &cfg);
        let floor_cfg = OverlapConfig {
            num_stages: 4,
            ..cfg
        };
        let stale_floor = TuneCache::key("mlp", "h800x8", "analytic-v1", "mean", &floor_cfg);
        let fresh_floor = TuneCache::key("mlp", "h800x8", "analytic-v2", "mean", &floor_cfg);
        cache.insert(stale_key.clone(), r);
        cache.insert(fresh_key.clone(), r);
        cache.insert(other_scope.clone(), r);
        cache.record_floor(stale_floor.clone(), 2.0);
        cache.record_floor(fresh_floor.clone(), 2.0);
        cache.flush().unwrap();

        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        assert_eq!(cache.count_stale("mlp|h800x8|", &prefix), 2);
        let swept = cache.sweep_stale("mlp|h800x8|", &prefix);
        assert_eq!(swept, 2, "the stale report and the stale floor");
        assert!(cache.get(&stale_key).is_none());
        assert!(cache.floor(&stale_floor).is_none());
        assert!(cache.get(&fresh_key).is_some());
        assert_eq!(cache.floor(&fresh_floor), Some(2.0));
        assert!(cache.get(&other_scope).is_some(), "out of scope, untouched");

        // The flush merge re-reads the disk file; without tombstones the
        // swept entries would ride back in through the merge.
        let before = std::fs::metadata(&path).unwrap().len();
        cache.flush().unwrap();
        let reloaded = TuneCache::open(&path).unwrap();
        assert!(
            reloaded.get(&stale_key).is_none(),
            "swept entry must be dropped from the backing file too"
        );
        assert!(
            reloaded.floor(&stale_floor).is_none(),
            "swept floor must be dropped from the backing file too"
        );
        assert_eq!(reloaded.floor(&fresh_floor), Some(2.0));
        assert_eq!(reloaded.len(), 2);
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reinserting_a_swept_key_clears_its_tombstone() {
        let path = tmp("sweep-reinsert.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = OverlapConfig::default();
        let mut cache = TuneCache::open(&path).unwrap();
        let key = TuneCache::key("mlp", "h800x8", "analytic-v1", "mean", &cfg);
        cache.insert(key.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        let prefix = TuneCache::key_prefix("mlp", "h800x8", "analytic-v2", "mean");
        assert_eq!(cache.sweep_stale("mlp|h800x8|", &prefix), 1);
        // Re-learned under the old prefix (e.g. the CLI switched back): the
        // fresh value must survive the next flush.
        cache.insert(key.clone(), OverlapReport::new(2.0, 1.0, 1.5));
        cache.flush().unwrap();
        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.get(&key).unwrap().total_s, 2.0);
        let _ = std::fs::remove_file(&path);
    }

    /// The report reader as it was before floor lines existed: exactly the
    /// first four tab-separated columns, the last three parsed as `f64`.
    fn four_column_keys(text: &str) -> Vec<&str> {
        text.lines()
            .filter_map(|line| {
                let mut parts = line.split('\t');
                let (Some(key), Some(total), Some(comm), Some(comp)) =
                    (parts.next(), parts.next(), parts.next(), parts.next())
                else {
                    return None;
                };
                (total.parse::<f64>().is_ok()
                    && comm.parse::<f64>().is_ok()
                    && comp.parse::<f64>().is_ok())
                .then_some(key)
            })
            .collect()
    }

    #[test]
    fn a_four_column_file_opens_unchanged() {
        let path = tmp("four-column.tsv");
        let text = "a|k\t1.00000000000000000e0\t5.00000000000000000e-1\t7.50000000000000000e-1\n\
                    b|k\t2.00000000000000000e0\t1.00000000000000000e0\t1.50000000000000000e0\n";
        std::fs::write(&path, text).unwrap();
        let mut cache = TuneCache::open(&path).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.report("a|k"),
            Some(OverlapReport::new(1.0, 0.5, 0.75))
        );
        assert!(cache.floor("a|k").is_none());
        // Nothing changed, so the flush leaves the file alone.
        cache.flush().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        // A rewrite keeps every report line byte for byte.
        cache.record_floor("c|k".into(), 3.0);
        cache.insert_total("d|k".into(), 4.0);
        cache.flush().unwrap();
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(rewritten.starts_with(text), "{rewritten}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_four_column_parser_skips_floor_lines() {
        let path = tmp("floor-lines.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert("report|k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.record_floor("floor|k".into(), 2.5e-3);
        cache.flush().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("floor|k\tfloor\t"), "{text}");
        assert_eq!(four_column_keys(&text), ["report|k"]);

        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1, "floors are not reports");
        assert!(reloaded.get("floor|k").is_none());
        assert_eq!(reloaded.floor("floor|k"), Some(2.5e-3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn the_four_column_parser_skips_total_lines() {
        let path = tmp("total-lines.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert("report|k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.insert_total("total|k".into(), 1.5e-3);
        cache.record_floor("floor|k".into(), 2.5e-3);
        cache.flush().unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("total|k\ttotal\t"), "{text}");
        assert_eq!(four_column_keys(&text), ["report|k"]);
        // A reader that knows floor lines but not total lines skips the
        // unknown tag.
        let floor_keys: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split_once('\t'))
            .filter(|(_, rest)| rest.starts_with("floor\t"))
            .map(|(key, _)| key)
            .collect();
        assert_eq!(floor_keys, ["floor|k"]);

        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 2, "a total is priced, a floor is not");
        assert!(
            reloaded.report("total|k").is_none(),
            "a total is not a report"
        );
        assert_eq!(reloaded.get("total|k"), Some(Priced { total_s: 1.5e-3 }));
        assert_eq!(reloaded.get("report|k"), Some(Priced { total_s: 1.0 }));
        assert!(reloaded.get("floor|k").is_none());
        assert!(reloaded.floor("total|k").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reports_supersede_totals_which_supersede_floors() {
        // In memory, whatever the insertion order.
        let mut cache = TuneCache::in_memory();
        cache.record_floor("k".into(), 2.0);
        cache.insert_total("k".into(), 3.0);
        assert!(cache.floor("k").is_none());
        cache.record_floor("k".into(), 4.0);
        assert_eq!(
            cache.get("k"),
            Some(Priced { total_s: 3.0 }),
            "a floor never shadows a total"
        );
        cache.insert("k".into(), OverlapReport::new(3.0, 1.0, 2.0));
        cache.insert_total("k".into(), 3.0);
        assert_eq!(cache.report("k"), Some(OverlapReport::new(3.0, 1.0, 2.0)));

        // On load, wherever the lines sit in the file.
        let path = tmp("precedence.tsv");
        std::fs::write(
            &path,
            "a\ttotal\t3.0\na\tfloor\t2.0\nb\t3.0\t1.0\t2.0\nb\ttotal\t3.0\n\
             c\tfloor\t5.0\nc\ttotal\t6.0\nc\tfloor\t7.0\n",
        )
        .unwrap();
        let opened = TuneCache::open(&path).unwrap();
        assert_eq!(opened.get("a"), Some(Priced { total_s: 3.0 }));
        assert!(opened.floor("a").is_none());
        assert_eq!(opened.report("b"), Some(OverlapReport::new(3.0, 1.0, 2.0)));
        assert_eq!(opened.get("c"), Some(Priced { total_s: 6.0 }));
        assert!(opened.floor("c").is_none());

        // In the flush merge, from either side.
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        b.insert("report".into(), OverlapReport::new(3.0, 1.0, 2.0));
        b.insert_total("total".into(), 4.0);
        b.record_floor("floor".into(), 5.0);
        b.flush().unwrap();
        a.insert_total("report".into(), 3.0);
        a.record_floor("total".into(), 3.5);
        a.insert_total("floor".into(), 6.0);
        a.flush().unwrap();
        let merged = TuneCache::open(&path).unwrap();
        assert_eq!(
            merged.report("report"),
            Some(OverlapReport::new(3.0, 1.0, 2.0))
        );
        assert_eq!(merged.get("total"), Some(Priced { total_s: 4.0 }));
        assert!(merged.floor("total").is_none());
        assert_eq!(merged.get("floor"), Some(Priced { total_s: 6.0 }));
        assert!(merged.floor("floor").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn floors_ignore_smaller_and_non_finite_values() {
        let mut cache = TuneCache::in_memory();
        cache.record_floor("k".into(), 2.0);
        cache.record_floor("k".into(), 1.0);
        cache.record_floor("k".into(), f64::INFINITY);
        cache.record_floor("k".into(), f64::NAN);
        assert_eq!(cache.floor("k"), Some(2.0));
        cache.record_floor("k".into(), 3.0);
        assert_eq!(cache.floor("k"), Some(3.0));
        cache.record_floor("inf".into(), f64::INFINITY);
        assert!(cache.floor("inf").is_none());
    }

    #[test]
    fn a_report_supersedes_a_floor() {
        let mut cache = TuneCache::in_memory();
        cache.record_floor("k".into(), 2.0);
        cache.insert("k".into(), OverlapReport::new(3.0, 1.0, 2.0));
        assert!(cache.floor("k").is_none());
        cache.record_floor("k".into(), 4.0);
        assert!(cache.floor("k").is_none(), "a floor never shadows a report");
        assert_eq!(cache.get("k").unwrap().total_s, 3.0);

        // On disk: a report line wins over a floor line for the same key,
        // wherever the two sit in the file.
        let path = tmp("supersede.tsv");
        std::fs::write(&path, "k\tfloor\t2.0\nk\t3.0\t1.0\t2.0\nonly\tfloor\t5.0\n").unwrap();
        let opened = TuneCache::open(&path).unwrap();
        assert!(opened.floor("k").is_none());
        assert_eq!(opened.get("k").unwrap().total_s, 3.0);
        assert_eq!(opened.floor("only"), Some(5.0));

        // Across writers: a report flushed by one supersedes the other's
        // floor in the merge.
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        b.insert("k".into(), OverlapReport::new(3.0, 1.0, 2.0));
        b.flush().unwrap();
        a.record_floor("k".into(), 2.0);
        a.flush().unwrap();
        let merged = TuneCache::open(&path).unwrap();
        assert!(merged.floor("k").is_none());
        assert_eq!(merged.get("k").unwrap().total_s, 3.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_writers_keep_the_larger_floor() {
        let path = tmp("two-floors.tsv");
        let _ = std::fs::remove_file(&path);
        let mut a = TuneCache::open(&path).unwrap();
        let mut b = TuneCache::open(&path).unwrap();
        a.record_floor("hi".into(), 2.0);
        a.record_floor("lo".into(), 1.0);
        a.flush().unwrap();
        b.record_floor("hi".into(), 1.5);
        b.record_floor("lo".into(), 1.25);
        b.flush().unwrap();
        let merged = TuneCache::open(&path).unwrap();
        assert_eq!(merged.floor("hi"), Some(2.0), "disk floor was larger");
        assert_eq!(merged.floor("lo"), Some(1.25), "in-memory floor was larger");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn clean_flushes_do_nothing_and_failed_flushes_retry() {
        let path = tmp("clean-flush.tsv");
        let _ = std::fs::remove_file(&path);
        let mut cache = TuneCache::open(&path).unwrap();
        cache.insert("k".into(), OverlapReport::new(1.0, 0.5, 0.5));
        cache.flush().unwrap();
        // Clean: removing the file proves the second flush never writes.
        std::fs::remove_file(&path).unwrap();
        cache.flush().unwrap();
        assert!(!path.exists(), "a clean flush must not rewrite the file");

        // A directory in the file's place makes the flush fail; the handle
        // stays dirty, so the next flush writes once the path is usable.
        cache.record_floor("f".into(), 2.0);
        std::fs::create_dir(&path).unwrap();
        assert!(cache.flush().is_err());
        std::fs::remove_dir(&path).unwrap();
        cache.flush().unwrap();
        let reloaded = TuneCache::open(&path).unwrap();
        assert_eq!(reloaded.floor("f"), Some(2.0));
        assert!(reloaded.get("k").is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keys_differ_across_objectives() {
        let cfg = OverlapConfig::default();
        let mean = TuneCache::key("moe", "h800x8", "analytic-v2", "mean", &cfg);
        let p95 = TuneCache::key("moe", "h800x8", "analytic-v2", "p95", &cfg);
        assert_ne!(mean, p95);
        let mut cache = TuneCache::in_memory();
        cache.insert(mean.clone(), OverlapReport::new(1.0, 0.5, 0.5));
        assert!(cache.get(&mean).is_some());
        assert!(
            cache.get(&p95).is_none(),
            "a mean-tuned entry must miss under a percentile objective"
        );
    }
}
