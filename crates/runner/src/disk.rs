//! Persistent, sharded, content-addressed storage for recorded traces and
//! sweep profiles.
//!
//! A [`DiskStore`] is the durable half of a [`WorkloadStore`]: every
//! artifact is keyed by the **content fingerprint of the program it was
//! computed from** (plus the recording limit, and — for profiles — a
//! fingerprint of the sweep's candidate lists), so a long-running server
//! that is restarted, or two servers pointed at the same directory, reuse
//! each other's functional executions instead of re-running anything.
//! Workload *names* never key anything on disk: renamed copies of the
//! same program hit the same entries.
//!
//! Layout: `<root>/<shard>/<key>.trace|.profile`, where `shard` is the low
//! byte of the key (256 subdirectories, so no directory grows large) and
//! `key` is the 16-hex-digit content key. Every file opens with a
//! [`MAGIC`]/version header followed by the program fingerprint and a
//! length-prefixed payload; decoding failures surface as typed
//! [`StoreError`]s, never panics. Writes go to a temporary file in the
//! shard directory and are renamed into place, so a crash mid-write can
//! leave garbage temporaries but never a truncated entry under a live key.
//!
//! [`WorkloadStore`]: crate::WorkloadStore

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mim_bpred::PredictorConfig;
use mim_cache::{CacheConfig, HierarchyConfig};
use mim_isa::{Fnv, Program};
use mim_obs::{clock, Counter, Histogram, Registry};
use mim_profile::WorkloadProfile;
use mim_trace::{Replay, Trace};

/// Magic bytes opening every store file.
const MAGIC: &[u8; 8] = b"MIMSTORE";

/// On-disk format version. Bumping it invalidates (ignores) older files.
const VERSION: u32 = 1;

/// Artifact kind tag: a serialized [`Trace`].
const KIND_TRACE: u8 = 1;

/// Artifact kind tag: a JSON-serialized [`WorkloadProfile`].
const KIND_PROFILE: u8 = 2;

/// Entry header length: magic, version, kind, fingerprint, payload length.
const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 8;

/// Typed error produced by [`DiskStore`] reads and writes.
///
/// Corrupt or mismatched entries are *errors*, not panics: callers like
/// [`WorkloadStore`](crate::WorkloadStore) treat them as cache misses and
/// recompute, so a damaged store directory degrades to cold-cache
/// behavior instead of taking the server down.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An underlying file-system operation failed.
    Io {
        /// File being accessed.
        path: PathBuf,
        /// The I/O error text.
        message: String,
    },
    /// The file ended before the declared payload (e.g. a crash while
    /// writing with a non-atomic tool, or manual truncation).
    Truncated {
        /// Offending file.
        path: PathBuf,
    },
    /// The file's version header does not match [`DiskStore::VERSION`].
    Version {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
    },
    /// The entry was written for a different program than the one
    /// requested (a key collision or a tampered file).
    FingerprintMismatch {
        /// Offending file.
        path: PathBuf,
        /// Fingerprint of the program the caller asked about.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// The header or payload failed structural validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What failed to decode.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store I/O on {}: {message}", path.display())
            }
            StoreError::Truncated { path } => {
                write!(f, "store file {} is truncated", path.display())
            }
            StoreError::Version { path, found } => write!(
                f,
                "store file {} has version {found} (expected {VERSION})",
                path.display()
            ),
            StoreError::FingerprintMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "store file {} was written for program {found:#018x}, \
                 not {expected:#018x}",
                path.display()
            ),
            StoreError::Corrupt { path, message } => {
                write!(f, "store file {} is corrupt: {message}", path.display())
            }
        }
    }
}

impl Error for StoreError {}

impl StoreError {
    fn io(path: &Path, error: &io::Error) -> StoreError {
        StoreError::Io {
            path: path.to_path_buf(),
            message: error.to_string(),
        }
    }
}

/// Content key of a trace: the program fingerprint plus the recording's
/// instruction limit (`u64::MAX` encodes "run to completion").
fn trace_key(program_fingerprint: u64, limit: Option<u64>) -> u64 {
    let mut h = Fnv::new();
    h.u64(program_fingerprint);
    h.u64(limit.unwrap_or(u64::MAX));
    h.finish()
}

/// Content key of a profile: the trace key extended with a fingerprint of
/// the sweep's candidate lists (base hierarchy, every L2, every
/// predictor), since profiles are only reusable for the exact sweep that
/// produced them.
fn profile_key(
    program_fingerprint: u64,
    limit: Option<u64>,
    hierarchy: &HierarchyConfig,
    l2s: &[CacheConfig],
    predictors: &[PredictorConfig],
) -> u64 {
    let sweep = serde_json::to_string(&(hierarchy, &l2s.to_vec(), &predictors.to_vec()))
        .expect("sweep config serialization is infallible");
    let mut h = Fnv::new();
    h.u64(trace_key(program_fingerprint, limit));
    h.bytes(sweep.as_bytes());
    h.finish()
}

/// A persistent, sharded, content-addressed store of recorded traces and
/// sweep profiles.
///
/// Thread-safe (all methods take `&self`); usually owned by a
/// [`WorkloadStore`](crate::WorkloadStore) via
/// [`WorkloadStore::persistent`](crate::WorkloadStore::persistent) rather
/// than used directly.
///
/// # Example
///
/// ```
/// use mim_runner::DiskStore;
/// use mim_trace::Trace;
/// use mim_workloads::{mibench, WorkloadSize};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("mim-disk-store-doc");
/// let store = DiskStore::open(&dir)?;
/// let program = mibench::sha().program(WorkloadSize::Tiny);
/// let trace = Trace::record(&program, None)?;
/// store.put_trace(&program, None, &trace)?;
/// let back = store.get_trace(&program, None)?.expect("just written");
/// assert_eq!(back, trace);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Bytes written by `put_*` since this handle was opened
    /// (`store.disk.bytes_written` in the owning registry).
    bytes_written: Counter,
    /// `get_*` wall time in nanoseconds (`store.disk.get_ns`).
    get_ns: Histogram,
    /// `put_*` wall time in nanoseconds (`store.disk.put_ns`).
    put_ns: Histogram,
    /// Monotonic discriminator for temporary file names, so concurrent
    /// writers in one process never collide on the same temp path.
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// On-disk format version (exposed for tests and migration tooling).
    pub const VERSION: u32 = VERSION;

    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskStore, StoreError> {
        DiskStore::open_instrumented(root, &Registry::new())
    }

    /// [`open`](DiskStore::open), with the handle's byte counter and
    /// read/write latency histograms created in `registry` (as
    /// `store.disk.bytes_written`, `store.disk.get_ns`,
    /// `store.disk.put_ns`) instead of a private throwaway registry —
    /// this is how a [`WorkloadStore`](crate::WorkloadStore) shares one
    /// registry across its memory and disk tiers.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root directory cannot be created.
    pub fn open_instrumented(
        root: impl Into<PathBuf>,
        registry: &Registry,
    ) -> Result<DiskStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StoreError::io(&root, &e))?;
        Ok(DiskStore {
            root,
            bytes_written: registry.counter("store.disk.bytes_written"),
            get_ns: registry.histogram("store.disk.get_ns"),
            put_ns: registry.histogram("store.disk.put_ns"),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Bytes persisted through this handle (headers + payloads).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.get()
    }

    /// Path of the entry for `key`: `<root>/<low byte>/<key>.<ext>`.
    fn entry_path(&self, key: u64, ext: &str) -> PathBuf {
        self.root
            .join(format!("{:02x}", key & 0xff))
            .join(format!("{key:016x}.{ext}"))
    }

    /// Looks up the recorded trace for `program` (at `limit`), returning
    /// `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] for unreadable, truncated,
    /// wrong-version, mismatched, or corrupt entries.
    pub fn get_trace(
        &self,
        program: &Program,
        limit: Option<u64>,
    ) -> Result<Option<Trace>, StoreError> {
        let started = clock();
        let fingerprint = program.fingerprint();
        let path = self.entry_path(trace_key(fingerprint, limit), "trace");
        let Some(payload) = read_entry(&path, KIND_TRACE, fingerprint)? else {
            self.get_ns.observe_since(started);
            return Ok(None);
        };
        let trace = Trace::from_bytes(&payload).map_err(|e| StoreError::Corrupt {
            path: path.clone(),
            message: e.to_string(),
        })?;
        if !trace.matches(program) {
            // The header fingerprint matched but the payload disagrees —
            // the file was assembled from mismatched parts.
            return Err(StoreError::Corrupt {
                path,
                message: "payload trace does not match the requested program".into(),
            });
        }
        self.get_ns.observe_since(started);
        Ok(Some(trace))
    }

    /// Persists the recorded trace for `program` (at `limit`).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the entry cannot be written.
    pub fn put_trace(
        &self,
        program: &Program,
        limit: Option<u64>,
        trace: &Trace,
    ) -> Result<(), StoreError> {
        let fingerprint = program.fingerprint();
        let path = self.entry_path(trace_key(fingerprint, limit), "trace");
        self.write_entry(&path, KIND_TRACE, fingerprint, &trace.to_bytes())
    }

    /// Opens the recorded trace for `program` (at `limit`) as an
    /// incremental [`Replay`] over the entry file, returning
    /// `Ok(None)` when absent.
    ///
    /// Unlike [`get_trace`](DiskStore::get_trace), the payload is never
    /// materialized: only the entry header, the window holding
    /// the trace header and the address count are read eagerly, and
    /// replay memory stays bounded by the replay's two fixed windows no
    /// matter how long the trace is — the read path sampled simulation
    /// wants for beyond-memory streams. A replay that walks the whole
    /// recording fails on bytes after its address stream.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] for unreadable, truncated,
    /// wrong-version, mismatched, or corrupt entries.
    pub fn stream_trace<'p>(
        &self,
        program: &'p Program,
        limit: Option<u64>,
    ) -> Result<Option<Replay<'p>>, StoreError> {
        let started = clock();
        let fingerprint = program.fingerprint();
        let path = self.entry_path(trace_key(fingerprint, limit), "trace");
        let Some((file, _)) = open_entry(&path, KIND_TRACE, fingerprint)? else {
            return Ok(None);
        };
        // The file replay starts at the reader's position, just past the
        // entry header.
        let replay = Replay::from_file(file, program).map_err(|e| StoreError::Corrupt {
            path,
            message: e.to_string(),
        })?;
        self.get_ns.observe_since(started);
        Ok(Some(replay))
    }

    /// Looks up the sweep profile for `program` under the given candidate
    /// lists, returning `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Returns a typed [`StoreError`] for unreadable, truncated,
    /// wrong-version, mismatched, or corrupt entries.
    pub fn get_profile(
        &self,
        program: &Program,
        limit: Option<u64>,
        hierarchy: &HierarchyConfig,
        l2s: &[CacheConfig],
        predictors: &[PredictorConfig],
    ) -> Result<Option<WorkloadProfile>, StoreError> {
        let started = clock();
        let fingerprint = program.fingerprint();
        let key = profile_key(fingerprint, limit, hierarchy, l2s, predictors);
        let path = self.entry_path(key, "profile");
        let Some(payload) = read_entry(&path, KIND_PROFILE, fingerprint)? else {
            self.get_ns.observe_since(started);
            return Ok(None);
        };
        let text = String::from_utf8(payload).map_err(|_| StoreError::Corrupt {
            path: path.clone(),
            message: "profile payload is not UTF-8".into(),
        })?;
        let profile = serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
            path,
            message: e.to_string(),
        })?;
        self.get_ns.observe_since(started);
        Ok(Some(profile))
    }

    /// Persists the sweep profile for `program` under the given candidate
    /// lists.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the entry cannot be written.
    pub fn put_profile(
        &self,
        program: &Program,
        limit: Option<u64>,
        hierarchy: &HierarchyConfig,
        l2s: &[CacheConfig],
        predictors: &[PredictorConfig],
        profile: &WorkloadProfile,
    ) -> Result<(), StoreError> {
        let fingerprint = program.fingerprint();
        let key = profile_key(fingerprint, limit, hierarchy, l2s, predictors);
        let path = self.entry_path(key, "profile");
        let json = serde_json::to_string(profile).expect("profile serialization is infallible");
        self.write_entry(&path, KIND_PROFILE, fingerprint, json.as_bytes())
    }

    /// Writes header + payload to a shard-local temporary file, then
    /// renames it over the final path — readers see either the old entry
    /// or the complete new one, never a partial write.
    fn write_entry(
        &self,
        path: &Path,
        kind: u8,
        fingerprint: u64,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        let started = clock();
        let shard = path.parent().expect("entry paths have a shard directory");
        fs::create_dir_all(shard).map_err(|e| StoreError::io(shard, &e))?;
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(kind);
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, &bytes).map_err(|e| StoreError::io(&tmp, &e))?;
        fs::rename(&tmp, path).map_err(|e| {
            fs::remove_file(&tmp).ok();
            StoreError::io(path, &e)
        })?;
        self.bytes_written.add(bytes.len() as u64);
        self.put_ns.observe_since(started);
        Ok(())
    }
}

/// Reads and validates the entry header from an open reader,
/// leaving it positioned at the payload. Returns the payload length.
fn validate_entry_header(
    reader: &mut impl io::Read,
    path: &Path,
    kind: u8,
    fingerprint: u64,
) -> Result<u64, StoreError> {
    let mut header = [0u8; HEADER_LEN];
    reader
        .read_exact(&mut header)
        .map_err(|_| StoreError::Truncated {
            path: path.to_path_buf(),
        })?;
    let corrupt = |message: &str| StoreError::Corrupt {
        path: path.to_path_buf(),
        message: message.into(),
    };
    if &header[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StoreError::Version {
            path: path.to_path_buf(),
            found: version,
        });
    }
    if header[12] != kind {
        return Err(corrupt("wrong artifact kind"));
    }
    let found = u64::from_le_bytes(header[13..21].try_into().expect("8 bytes"));
    if found != fingerprint {
        return Err(StoreError::FingerprintMismatch {
            path: path.to_path_buf(),
            expected: fingerprint,
            found,
        });
    }
    Ok(u64::from_le_bytes(
        header[21..HEADER_LEN].try_into().expect("8 bytes"),
    ))
}

/// Checks that an entry holds exactly the payload length its header
/// declares.
fn check_payload_len(path: &Path, found: u64, declared: u64) -> Result<(), StoreError> {
    if found < declared {
        return Err(StoreError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if found > declared {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            message: "trailing bytes after payload".into(),
        });
    }
    Ok(())
}

/// Opens one entry and validates its header and its length, leaving the
/// file positioned at the payload. Returns the file and the payload
/// length, or `None` if the file does not exist. Nothing past the header
/// is read, so a large file that is not an entry costs one header read.
fn open_entry(
    path: &Path,
    kind: u8,
    fingerprint: u64,
) -> Result<Option<(fs::File, u64)>, StoreError> {
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(path, &e)),
    };
    let declared = validate_entry_header(&mut file, path, kind, fingerprint)?;
    let total = file.metadata().map_err(|e| StoreError::io(path, &e))?.len();
    check_payload_len(path, total.saturating_sub(HEADER_LEN as u64), declared)?;
    Ok(Some((file, declared)))
}

/// Reads and validates one entry, returning its payload (or `None` if the
/// file does not exist).
fn read_entry(path: &Path, kind: u8, fingerprint: u64) -> Result<Option<Vec<u8>>, StoreError> {
    let Some((mut file, len)) = open_entry(path, kind, fingerprint)? else {
        return Ok(None);
    };
    let mut payload = vec![0; len as usize];
    io::Read::read_exact(&mut file, &mut payload).map_err(|_| StoreError::Truncated {
        path: path.to_path_buf(),
    })?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mim_core::MachineConfig;
    use mim_profile::SweepProfiler;
    use mim_workloads::{mibench, WorkloadSize};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mim-disk-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn sweep_args(
        machine: &MachineConfig,
    ) -> (HierarchyConfig, Vec<CacheConfig>, Vec<PredictorConfig>) {
        (
            machine.hierarchy.clone(),
            vec![machine.hierarchy.l2.clone()],
            vec![machine.predictor.clone()],
        )
    }

    #[test]
    fn entry_paths_are_pinned_so_older_stores_keep_loading() {
        // Paths of entries that earlier builds wrote: a change here
        // orphans every entry already persisted.
        let store = DiskStore::open(temp_root("pinned")).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let fingerprint = program.fingerprint();
        let (hierarchy, l2s, predictors) = sweep_args(&MachineConfig::default_config());
        let path = |key: u64, ext: &str| {
            let path = store.entry_path(key, ext);
            let relative = path.strip_prefix(store.root()).unwrap().to_owned();
            relative.to_string_lossy().into_owned()
        };
        assert_eq!(
            path(trace_key(fingerprint, None), "trace"),
            "b5/bddf96f099335ab5.trace"
        );
        assert_eq!(
            path(trace_key(fingerprint, Some(20_000)), "trace"),
            "d3/8082bf3d018a3ed3.trace"
        );
        assert_eq!(
            path(
                profile_key(fingerprint, None, &hierarchy, &l2s, &predictors),
                "profile"
            ),
            "d3/fab82e34879bc7d3.profile"
        );
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn trace_round_trips_through_disk() {
        let root = temp_root("trace-rt");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        assert!(store.get_trace(&program, None).unwrap().is_none());
        let trace = Trace::record(&program, None).unwrap();
        store.put_trace(&program, None, &trace).unwrap();
        assert_eq!(store.get_trace(&program, None).unwrap().unwrap(), trace);
        // A different limit is a different entry.
        assert!(store.get_trace(&program, Some(100)).unwrap().is_none());
        assert!(store.bytes_written() > 0);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn profile_round_trips_through_disk() {
        let root = temp_root("profile-rt");
        let store = DiskStore::open(&root).unwrap();
        let machine = MachineConfig::default_config();
        let (hierarchy, l2s, predictors) = sweep_args(&machine);
        let program = mibench::qsort().program(WorkloadSize::Tiny);
        let profiler = SweepProfiler::new(hierarchy.clone(), l2s.clone(), predictors.clone());
        let profile = profiler.profile(&program, None).unwrap();
        assert!(store
            .get_profile(&program, None, &hierarchy, &l2s, &predictors)
            .unwrap()
            .is_none());
        store
            .put_profile(&program, None, &hierarchy, &l2s, &predictors, &profile)
            .unwrap();
        let back = store
            .get_profile(&program, None, &hierarchy, &l2s, &predictors)
            .unwrap()
            .unwrap();
        assert_eq!(back.num_insts, profile.num_insts);
        assert_eq!(back.mix, profile.mix);
        assert_eq!(back.misses, profile.misses);
        // A different sweep (two L2 candidates) is a different entry.
        let l2s2 = vec![
            l2s[0].clone(),
            CacheConfig::new("L2-128K", 128 * 1024, 8, 64).unwrap(),
        ];
        assert!(store
            .get_profile(&program, None, &hierarchy, &l2s2, &predictors)
            .unwrap()
            .is_none());
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stream_trace_replays_identically_to_materialized() {
        use mim_trace::TraceSource;
        let root = temp_root("stream");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        assert!(store.stream_trace(&program, None).unwrap().is_none());
        let trace = Trace::record(&program, None).unwrap();
        store.put_trace(&program, None, &trace).unwrap();

        let mut materialized = Vec::new();
        trace
            .replay(&program)
            .unwrap()
            .drive(&mut |ev| materialized.push(*ev))
            .unwrap();
        let mut streamed = Vec::new();
        let mut stream = store.stream_trace(&program, None).unwrap().unwrap();
        let outcome = stream.drive(&mut |ev| streamed.push(*ev)).unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(outcome.instructions(), materialized.len() as u64);

        // Streaming a damaged entry is a typed error, not a panic.
        let path = store.entry_path(trace_key(program.fingerprint(), None), "trace");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..20]).unwrap();
        assert!(matches!(
            store.stream_trace(&program, None),
            Err(StoreError::Truncated { .. })
        ));
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            store.stream_trace(&program, None),
            Err(StoreError::Truncated { .. })
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn junk_after_the_trace_is_rejected_by_both_read_paths() {
        use mim_trace::{TraceError, TraceSource};
        let root = temp_root("junk");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let fingerprint = program.fingerprint();
        let mut payload = Trace::record(&program, None).unwrap().to_bytes();
        payload.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let path = store.entry_path(trace_key(fingerprint, None), "trace");
        store
            .write_entry(&path, KIND_TRACE, fingerprint, &payload)
            .unwrap();
        assert!(matches!(
            store.get_trace(&program, None),
            Err(StoreError::Corrupt { .. })
        ));
        let mut stream = store.stream_trace(&program, None).unwrap().unwrap();
        assert_eq!(
            stream.drive(&mut |_| {}),
            Err(TraceError::Corrupt("trailing bytes".into()))
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sampled_evaluation_recovers_from_junk_after_the_trace() {
        use crate::{Evaluator, SimEvaluator, WorkloadSpec, WorkloadStore};
        use mim_trace::Sampling;
        let workload = WorkloadSpec::from(mibench::sha());
        let evaluate = |store: WorkloadStore| {
            SimEvaluator::new(&MachineConfig::default_config())
                .with_sampling(Some(Sampling::new(1000, 100)))
                .with_cache(store)
                .evaluate(&workload, WorkloadSize::Tiny)
                .expect("sampled evaluation")
        };
        let clean = evaluate(WorkloadStore::new());

        let root = temp_root("junk-eval");
        let disk = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let fingerprint = program.fingerprint();
        let mut payload = Trace::record(&program, None).unwrap().to_bytes();
        payload.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let path = disk.entry_path(trace_key(fingerprint, None), "trace");
        disk.write_entry(&path, KIND_TRACE, fingerprint, &payload)
            .unwrap();
        let damaged = evaluate(WorkloadStore::persistent(&root).unwrap());
        assert_eq!(
            serde_json::to_string(&damaged).unwrap(),
            serde_json::to_string(&clean).unwrap()
        );
        assert!(
            disk.get_trace(&program, None).unwrap().is_some(),
            "the damaged entry is rewritten"
        );
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let root = temp_root("truncated");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let trace = Trace::record(&program, None).unwrap();
        store.put_trace(&program, None, &trace).unwrap();
        // Truncate the entry in place (header intact, payload cut short).
        let path = store.entry_path(trace_key(program.fingerprint(), None), "trace");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            store.get_trace(&program, None),
            Err(StoreError::Truncated { .. })
        ));
        // Cut into the header itself.
        fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            store.get_trace(&program, None),
            Err(StoreError::Truncated { .. })
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn wrong_version_is_a_typed_error() {
        let root = temp_root("version");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let trace = Trace::record(&program, None).unwrap();
        store.put_trace(&program, None, &trace).unwrap();
        let path = store.entry_path(trace_key(program.fingerprint(), None), "trace");
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        match store.get_trace(&program, None) {
            Err(StoreError::Version { found, .. }) => assert_eq!(found, 99),
            other => panic!("expected Version error, got {other:?}"),
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_error() {
        let root = temp_root("fingerprint");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let trace = Trace::record(&program, None).unwrap();
        store.put_trace(&program, None, &trace).unwrap();
        let path = store.entry_path(trace_key(program.fingerprint(), None), "trace");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit of the header's program fingerprint.
        bytes[13] ^= 1;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.get_trace(&program, None),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn garbage_and_bad_magic_are_typed_errors() {
        let root = temp_root("garbage");
        let store = DiskStore::open(&root).unwrap();
        let program = mibench::sha().program(WorkloadSize::Tiny);
        let path = store.entry_path(trace_key(program.fingerprint(), None), "trace");
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(matches!(
            store.get_trace(&program, None),
            Err(StoreError::Corrupt { .. })
        ));
        let errors = [
            StoreError::Truncated { path: path.clone() },
            StoreError::Version {
                path: path.clone(),
                found: 2,
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
        fs::remove_dir_all(&root).ok();
    }
}
