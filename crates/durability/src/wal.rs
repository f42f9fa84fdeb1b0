//! The write-ahead log file: framing, fsync batching, group commit,
//! segment rotation + compaction, fault injection, and the
//! torn-tail-tolerant reader.
//!
//! A log is a chain of segment files — the first at the configured path
//! itself, later ones at `<path>.seg1`, `<path>.seg2`, … — each laid out as
//!
//! ```text
//! [8-byte magic "MVCWAL02"]
//! [u64 LE absolute index of this segment's first record]
//! frame*  where frame = [u32 LE payload length]
//!                       [u64 LE FNV-1a checksum of payload]
//!                       [payload bytes]
//! ```
//!
//! With `rotate_every == 0` the writer never rotates and the log is that
//! one file. Otherwise it rotates to a fresh segment once the current one
//! holds `rotate_every` records (the buffered tail is flushed first, so a
//! flush batch — and therefore a frame — never spans two files). When a
//! [`WalRecord::Checkpoint`] is appended and compaction is enabled,
//! every closed segment whose records all precede the checkpoint's
//! [`CheckpointState::min_anchor`](crate::checkpoint::CheckpointState::min_anchor)
//! is deleted; the reader then reports the surviving base index so
//! recovery can keep gating replay on *absolute* record indices.
//!
//! The header is written (and fsynced) when a segment is opened. Frames
//! are buffered, then written **and fsynced** every `fsync_every`
//! records — `fsync_every`
//! bounds both the OS-buffer window and the durability window, so a
//! crash can lose a suffix of appended records: exactly the delayed-
//! group-fsync window real systems have (and exactly what the
//! fault-injection specs in [`FaultSpec`] let tests carve into). An
//! *incomplete* trailing frame (torn write) in the final file is a clean
//! end-of-log; the same tear in a non-final segment, or a *complete*
//! frame whose checksum does not match, is corruption and surfaces as a
//! typed error.

use crate::codec::{from_bytes, to_bytes};
use crate::record::WalRecord;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Log-file magic (followed by a u64 LE base record index), bumped when
/// the header, frame or record format changes.
pub const WAL_MAGIC: &[u8; 8] = b"MVCWAL02";

const FRAME_HEADER: usize = 4 + 8;
const SEG_HEADER: usize = 8 + 8;

/// 64-bit FNV-1a over a payload.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// WAL failure modes.
#[derive(Debug)]
pub enum WalError {
    Io(std::io::Error),
    /// The file does not start with the expected magic (or is shorter).
    BadMagic,
    /// Frame `index` (absolute) at byte `offset` has a checksum mismatch
    /// or an undecodable payload. Everything before it is intact; nothing
    /// after it can be trusted.
    CorruptRecord {
        offset: u64,
        index: u64,
    },
    /// A torn (incomplete) trailing frame in a segment that is *not* the
    /// final one. A tear can only happen at the live end of the log, so a
    /// mid-log tear means a segment file was damaged after the fact.
    TornSegment {
        segment: u64,
    },
    /// Segment `segment`'s base index does not continue where the
    /// previous segment ended — a segment file is missing or reordered.
    SegmentGap {
        segment: u64,
        expected: u64,
        found: u64,
    },
    /// An injected crash point fired (fault-injection harness only).
    CrashPoint,
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic)"),
            WalError::CorruptRecord { offset, index } => {
                write!(f, "corrupt WAL record {index} at byte offset {offset}")
            }
            WalError::TornSegment { segment } => {
                write!(f, "torn frame in non-final WAL segment {segment}")
            }
            WalError::SegmentGap {
                segment,
                expected,
                found,
            } => write!(
                f,
                "WAL segment {segment} starts at record {found}, expected {expected}"
            ),
            WalError::CrashPoint => write!(f, "injected crash point reached"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What the writer does when its injected crash point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Return [`WalError::CrashPoint`] so the caller aborts (sim runtime:
    /// the error propagates and the run stops deterministically).
    Error,
    /// Go silently dead: the append and all later ones become no-ops
    /// (threaded runtime: worker threads finish the workload, but nothing
    /// more reaches the disk — recovery sees only the pre-crash prefix).
    Drop,
}

/// Injected crash specification. Cross-linked from the WAL knob docs
/// above: `fsync_every > 1` widens the window `kill_at_record` can erase,
/// and `torn_tail_bytes` tears into whatever *was* flushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Crash when the N-th `append` (1-based) is attempted; that record
    /// and every record still in the fsync buffer are lost.
    pub kill_at_record: u64,
    /// Additionally truncate this many bytes off the end of the durable
    /// file — a torn write of the last flushed frame.
    pub torn_tail_bytes: u64,
    pub mode: KillMode,
}

/// Durability configuration for a runtime.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    pub wal_path: PathBuf,
    /// Write a checkpoint record every N warehouse commits (0 = never).
    /// Only honored by runtimes that can snapshot their merge state.
    pub checkpoint_every: u64,
    /// Write **and fsync** after every N appended records (1 = durable
    /// per record, larger values model delayed group fsync — appended
    /// records sit in a user-space buffer, untouched by the OS, until the
    /// window fills). Interacts with fault injection: see [`FaultSpec`]
    /// for how a crash erases the buffered window.
    pub fsync_every: u64,
    /// Group-commit window for the threaded runtime: committers park on a
    /// shared [`FlushTicket`] and one leader fsyncs for everyone who
    /// arrived within the window. `None` keeps the per-`fsync_every`
    /// discipline only.
    pub fsync_deadline: Option<Duration>,
    /// Rotate to a fresh `<path>.seg{k}` file once the current segment
    /// holds N records (0 = never rotate).
    pub rotate_every: u64,
    pub fault: Option<FaultSpec>,
}

impl DurabilityConfig {
    /// Durable-every-record config with no fault injection.
    pub fn new(wal_path: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            wal_path: wal_path.into(),
            checkpoint_every: 0,
            fsync_every: 1,
            fsync_deadline: None,
            rotate_every: 0,
            fault: None,
        }
    }

    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    pub fn with_fsync_every(mut self, n: u64) -> Self {
        self.fsync_every = n.max(1);
        self
    }

    pub fn with_fsync_deadline(mut self, window: Duration) -> Self {
        self.fsync_deadline = Some(window);
        self
    }

    pub fn with_rotate_every(mut self, n: u64) -> Self {
        self.rotate_every = n;
        self
    }

    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// One live segment file.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// The `k` in `.seg{k}` (0 = the log path itself).
    k: u64,
    /// Absolute index of the segment's first record.
    base: u64,
}

/// Segment `k`'s file: the log path itself for the first, `<path>.seg{k}`
/// after.
fn seg_path(base: &Path, k: u64) -> PathBuf {
    if k == 0 {
        return base.to_owned();
    }
    let mut s = base.as_os_str().to_owned();
    s.push(format!(".seg{k}"));
    PathBuf::from(s)
}

/// Remove any stale log files left by a previous run at this path, so
/// create() always starts from a clean slate.
fn clean_stale(path: &Path) -> Result<(), WalError> {
    for (_, p) in find_segments(path) {
        std::fs::remove_file(p)?;
    }
    Ok(())
}

/// The log's segment files on disk — `path` itself (segment 0) and every
/// `<path>.seg{k}` sibling — sorted by `k`.
fn find_segments(path: &Path) -> Vec<(u64, PathBuf)> {
    let Some(parent) = path.parent() else {
        return Vec::new();
    };
    let parent = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let prefix = format!("{name}.seg");
    let mut out = Vec::new();
    if path.exists() {
        out.push((0, path.to_owned()));
    }
    let Ok(entries) = std::fs::read_dir(parent) else {
        return out;
    };
    for e in entries.flatten() {
        let file = e.file_name();
        let Some(file) = file.to_str() else { continue };
        if let Some(rest) = file.strip_prefix(&prefix) {
            if let Ok(k) = rest.parse::<u64>() {
                out.push((k, e.path()));
            }
        }
    }
    out.sort_by_key(|(k, _)| *k);
    out
}

/// Create (truncate) segment `k` of the log at `path` and durably write
/// its header.
fn open_segment(path: &Path, k: u64, base: u64) -> Result<File, WalError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(seg_path(path, k))?;
    file.write_all(WAL_MAGIC)?;
    file.write_all(&base.to_le_bytes())?;
    file.sync_data()?;
    Ok(file)
}

/// Appending side of the WAL.
///
/// ```
/// use mvc_core::TxnSeq;
/// use mvc_durability::{DurabilityConfig, WalReader, WalRecord, WalWriter};
///
/// let path = std::env::temp_dir().join(format!("wal-doc-{}.wal", std::process::id()));
/// let mut w = WalWriter::create(&DurabilityConfig::new(&path)).unwrap();
/// w.append(&WalRecord::TxnCommitted { group: 0, seq: TxnSeq(1) }).unwrap();
/// w.finalize().unwrap();
///
/// let records = WalReader::open_log(&path).unwrap().records;
/// assert!(matches!(
///     records[0],
///     WalRecord::TxnCommitted { group: 0, seq: TxnSeq(1) }
/// ));
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Frames encoded but not yet written+synced.
    buffer: Vec<u8>,
    buffered_records: u64,
    fsync_every: u64,
    rotate_every: u64,
    fault: Option<FaultSpec>,
    /// Appends attempted (including the one that crashed).
    records_appended: u64,
    /// Absolute index of the next frame to be encoded.
    next_index: u64,
    /// Completed `sync_data` calls on frame data.
    fsyncs: u64,
    /// Crash point fired; all further appends are no-ops.
    dead: bool,
    /// Live segments, oldest first; the last entry is the one being
    /// written.
    segments: Vec<Segment>,
    /// Checkpoint-anchored truncation of dead segments. On by default;
    /// runtimes turn it off when any registered view needs delivery
    /// replay from the log's genesis (Strobe/Convergent).
    compaction: bool,
}

impl WalWriter {
    /// Create (truncate) the WAL and durably write the first segment's
    /// header. Stale log files at the same path are removed first.
    pub fn create(config: &DurabilityConfig) -> Result<Self, WalError> {
        clean_stale(&config.wal_path)?;
        Ok(WalWriter {
            file: open_segment(&config.wal_path, 0, 0)?,
            path: config.wal_path.clone(),
            buffer: Vec::new(),
            buffered_records: 0,
            fsync_every: config.fsync_every.max(1),
            rotate_every: config.rotate_every,
            fault: config.fault,
            records_appended: 0,
            next_index: 0,
            fsyncs: 0,
            dead: false,
            segments: vec![Segment { k: 0, base: 0 }],
            compaction: true,
        })
    }

    /// Append one record. With fault injection, the `kill_at_record`-th
    /// append crashes instead: the unflushed buffer is discarded, the
    /// durable tail is torn by `torn_tail_bytes`, and the writer goes
    /// dead. Appending a checkpoint additionally compacts dead segments
    /// (with compaction enabled).
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), WalError> {
        if self.dead {
            return match self.fault.map(|f| f.mode) {
                Some(KillMode::Error) => Err(WalError::CrashPoint),
                _ => Ok(()),
            };
        }
        self.records_appended += 1;
        if let Some(f) = self.fault {
            if self.records_appended == f.kill_at_record {
                return self.crash(f);
            }
        }
        // Rotate before framing: the buffered tail is flushed into the
        // old segment first, so no flush batch ever spans two files.
        let base = self.segments.last().expect("never empty").base;
        if self.rotate_every > 0 && self.next_index - base >= self.rotate_every {
            self.flush()?;
            self.rotate()?;
        }
        let payload = to_bytes(rec);
        let len = u32::try_from(payload.len()).expect("record under 4 GiB");
        self.buffer.extend_from_slice(&len.to_le_bytes());
        self.buffer
            .extend_from_slice(&checksum(&payload).to_le_bytes());
        self.buffer.extend_from_slice(&payload);
        self.buffered_records += 1;
        self.next_index += 1;
        if self.buffered_records >= self.fsync_every {
            self.flush()?;
        }
        match rec {
            WalRecord::Checkpoint(ck) if self.compaction => self.compact_below(ck.min_anchor()),
            _ => Ok(()),
        }
    }

    fn crash(&mut self, f: FaultSpec) -> Result<(), WalError> {
        self.buffer.clear();
        self.buffered_records = 0;
        self.dead = true;
        if f.torn_tail_bytes > 0 {
            let len = self.file.metadata()?.len();
            let new_len = len.saturating_sub(f.torn_tail_bytes).max(SEG_HEADER as u64);
            self.file.set_len(new_len)?;
            self.file.sync_data()?;
        }
        match f.mode {
            KillMode::Error => Err(WalError::CrashPoint),
            KillMode::Drop => Ok(()),
        }
    }

    /// Write buffered frames to the OS and fsync.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.dead || self.buffer.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buffer)?;
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.buffer.clear();
        self.buffered_records = 0;
        Ok(())
    }

    /// Open the next segment file (the current one's buffer must already
    /// be flushed).
    fn rotate(&mut self) -> Result<(), WalError> {
        debug_assert!(self.buffer.is_empty(), "flush before rotate");
        let k = self.segments.last().expect("never empty").k + 1;
        self.file = open_segment(&self.path, k, self.next_index)?;
        self.segments.push(Segment {
            k,
            base: self.next_index,
        });
        Ok(())
    }

    /// Unlink every closed segment whose records all have absolute index
    /// `< anchor`, the anchor of the checkpoint just appended. The live
    /// (last) segment is never unlinked, so the log always retains the
    /// checkpoint record that anchored the truncation.
    fn compact_below(&mut self, anchor: u64) -> Result<(), WalError> {
        // segments[0] spans [segments[0].base, segments[1].base).
        while self.segments.len() > 1 && self.segments[1].base <= anchor {
            // The checkpoint itself must be durable before anything it
            // makes redundant is unlinked (a no-op once flushed).
            self.flush()?;
            let dead = self.segments.remove(0);
            std::fs::remove_file(seg_path(&self.path, dead.k))?;
        }
        Ok(())
    }

    /// Disable (or re-enable) checkpoint-anchored segment truncation.
    /// Runtimes hosting Strobe/Convergent managers disable it: those
    /// managers recover by delivery replay from the log's genesis, which
    /// compaction would erase.
    pub fn set_compaction(&mut self, on: bool) {
        self.compaction = on;
    }

    /// Clean shutdown: flush whatever the fsync window still holds.
    pub fn finalize(&mut self) -> Result<(), WalError> {
        self.flush()
    }

    /// Appends attempted so far (crashed append included).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Absolute index the next appended record will get. Checkpoint
    /// writers read this immediately before appending to stamp their
    /// replay anchors.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Completed data fsyncs (the group-commit bench's denominator).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// `k` values of the segments currently on disk (`[0]` until the
    /// first rotation). Compaction shrinks this from the front.
    pub fn live_segments(&self) -> Vec<u64> {
        self.segments.iter().map(|s| s.k).collect()
    }

    /// Has the injected crash point fired?
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

/// A fully read log: the decoded records plus the absolute index of the
/// first one (nonzero once compaction has dropped leading segments).
#[derive(Debug)]
pub struct LogContents {
    pub records: Vec<WalRecord>,
    pub base: u64,
}

/// Reading side: scans a log's segment chain into records.
pub struct WalReader;

impl WalReader {
    /// Read the whole log at `path`: its segment files stitched in
    /// order. Verifies base-index continuity across segments and
    /// tolerates a torn tail only in the final segment: an incomplete
    /// trailing frame there is a clean stop (torn write); a complete
    /// frame that fails its checksum or decode is
    /// [`WalError::CorruptRecord`].
    pub fn open_log(path: impl AsRef<Path>) -> Result<LogContents, WalError> {
        let path = path.as_ref();
        let segs = find_segments(path);
        if segs.is_empty() {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no WAL at {}", path.display()),
            )));
        }
        let mut records = Vec::new();
        let mut base = 0u64;
        let mut expected = 0u64;
        let last = segs.len() - 1;
        for (i, (k, p)) in segs.iter().enumerate() {
            let bytes = std::fs::read(p)?;
            if bytes.len() < SEG_HEADER || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
                return Err(WalError::BadMagic);
            }
            let seg_base = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
            if i == 0 {
                base = seg_base;
            } else if seg_base != expected {
                return Err(WalError::SegmentGap {
                    segment: *k,
                    expected,
                    found: seg_base,
                });
            }
            let (recs, clean) = decode_frames(&bytes, SEG_HEADER, seg_base)?;
            if !clean && i != last {
                return Err(WalError::TornSegment { segment: *k });
            }
            expected = seg_base + recs.len() as u64;
            records.extend(recs);
        }
        Ok(LogContents { records, base })
    }
}

/// Decode frames from `bytes[start..]`; `index_base` is the absolute
/// index of the first frame (for corruption reports). Returns the
/// records and whether the input ended exactly on a frame boundary.
fn decode_frames(
    bytes: &[u8],
    start: usize,
    index_base: u64,
) -> Result<(Vec<WalRecord>, bool), WalError> {
    let mut records = Vec::new();
    let mut pos = start;
    let mut index = index_base;
    while pos < bytes.len() {
        let offset = pos as u64;
        if bytes.len() - pos < FRAME_HEADER {
            return Ok((records, false)); // torn header
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let body_start = pos + FRAME_HEADER;
        if bytes.len() - body_start < len {
            return Ok((records, false)); // torn payload
        }
        let payload = &bytes[body_start..body_start + len];
        if checksum(payload) != sum {
            return Err(WalError::CorruptRecord { offset, index });
        }
        let rec = from_bytes::<WalRecord>(payload)
            .map_err(|_| WalError::CorruptRecord { offset, index })?;
        records.push(rec);
        pos = body_start + len;
        index += 1;
    }
    Ok((records, true))
}

#[derive(Debug, Default)]
struct TicketState {
    /// Completed flush generations.
    epoch: u64,
    /// A leader is currently accumulating followers.
    leader: bool,
}

/// Group-commit coordination: the first committer to arrive becomes the
/// *leader*, sleeps out the flush window so later committers can pile
/// their frames into the shared [`WalWriter`] buffer, then performs one
/// flush (one fsync) covering everyone. Followers block until the
/// covering flush completes, so when `wait_flush` returns, the caller's
/// previously appended records are durable.
///
/// The caller must append its records (under the WAL's own lock) *before*
/// enrolling; the leader flushes while holding the ticket lock, so any
/// committer observed as a follower is guaranteed to have appended before
/// the covering flush starts.
#[derive(Debug, Default)]
pub struct FlushTicket {
    state: Mutex<TicketState>,
    cond: Condvar,
}

impl FlushTicket {
    pub fn new() -> Self {
        FlushTicket::default()
    }

    /// Park until this caller's appended records are durable. `flush`
    /// runs at most once per window, in the leader's thread; its error is
    /// returned to the leader (followers treat a completed epoch as
    /// durable — the runtime surfaces the leader's error).
    pub fn wait_flush<F>(&self, window: Duration, flush: F) -> Result<(), WalError>
    where
        F: FnOnce() -> Result<(), WalError>,
    {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.leader {
            // Follower: the active leader has not flushed yet (it bumps
            // the epoch under this lock), so our records — appended
            // before we enrolled — are covered by its flush.
            let my_epoch = st.epoch;
            while st.epoch == my_epoch {
                st = self.cond.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            return Ok(());
        }
        st.leader = true;
        if !window.is_zero() {
            // Accumulate followers; the timeout is the group-commit
            // latency bound. (Followers never signal, so this is a sleep
            // that a spurious wakeup can only shorten.)
            let (guard, _) = self
                .cond
                .wait_timeout(st, window)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
        let result = flush();
        st.leader = false;
        st.epoch += 1;
        drop(st);
        self.cond.notify_all();
        result
    }

    /// Completed flush generations (observability/tests).
    pub fn epochs(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvc_core::{TxnSeq, UpdateId, ViewId};
    use std::collections::BTreeSet;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mvc-wal-test-{}-{}", std::process::id(), name));
        p
    }

    fn rel_rec(group: u64, id: u64) -> WalRecord {
        WalRecord::RelInstalled {
            group,
            id: UpdateId(id),
            rel: BTreeSet::from([ViewId(1)]),
        }
    }

    fn cleanup(path: &Path) {
        for (_, p) in find_segments(path) {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let path = temp_path("roundtrip");
        let cfg = DurabilityConfig::new(&path);
        let mut w = WalWriter::create(&cfg).unwrap();
        w.append(&rel_rec(0, 1)).unwrap();
        w.append(&WalRecord::TxnCommitted {
            group: 0,
            seq: TxnSeq(1),
        })
        .unwrap();
        w.finalize().unwrap();
        let records = WalReader::open_log(&path).unwrap().records;
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind(), "rel-installed");
        assert_eq!(records[1].kind(), "txn-committed");
        cleanup(&path);
    }

    #[test]
    fn delayed_fsync_loses_buffered_suffix() {
        let path = temp_path("fsync");
        let cfg = DurabilityConfig::new(&path)
            .with_fsync_every(10)
            .with_fault(FaultSpec {
                kill_at_record: 5,
                torn_tail_bytes: 0,
                mode: KillMode::Drop,
            });
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=8 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        assert!(w.is_dead());
        // Records 1-4 were buffered and never flushed; the crash drops them.
        let records = WalReader::open_log(&path).unwrap().records;
        assert!(records.is_empty(), "nothing was fsynced before the crash");
        cleanup(&path);
    }

    #[test]
    fn error_mode_surfaces_crash_point() {
        let path = temp_path("errmode");
        let cfg = DurabilityConfig::new(&path).with_fault(FaultSpec {
            kill_at_record: 3,
            torn_tail_bytes: 0,
            mode: KillMode::Error,
        });
        let mut w = WalWriter::create(&cfg).unwrap();
        w.append(&rel_rec(0, 1)).unwrap();
        w.append(&rel_rec(0, 2)).unwrap();
        assert!(matches!(
            w.append(&rel_rec(0, 3)),
            Err(WalError::CrashPoint)
        ));
        // Durable prefix survives: fsync_every=1 flushed records 1-2.
        let records = WalReader::open_log(&path).unwrap().records;
        assert_eq!(records.len(), 2);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_clean_end_of_log() {
        let path = temp_path("torn");
        let cfg = DurabilityConfig::new(&path).with_fault(FaultSpec {
            kill_at_record: 4,
            torn_tail_bytes: 5,
            mode: KillMode::Drop,
        });
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=6 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        // Records 1-3 durable; the torn tail ate into record 3's frame.
        let records = WalReader::open_log(&path).unwrap().records;
        assert_eq!(records.len(), 2, "torn frame dropped, no error");
        cleanup(&path);
    }

    #[test]
    fn corrupt_checksum_is_typed_error() {
        let path = temp_path("corrupt");
        let cfg = DurabilityConfig::new(&path);
        let mut w = WalWriter::create(&cfg).unwrap();
        w.append(&rel_rec(0, 1)).unwrap();
        w.append(&rel_rec(0, 2)).unwrap();
        w.append(&rel_rec(0, 3)).unwrap();
        w.finalize().unwrap();
        drop(w);
        // Flip one byte inside the SECOND frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len =
            u32::from_le_bytes(bytes[SEG_HEADER..SEG_HEADER + 4].try_into().unwrap()) as usize;
        let second_payload = SEG_HEADER + FRAME_HEADER + first_len + FRAME_HEADER;
        bytes[second_payload] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = WalReader::open_log(&path).unwrap_err();
        match err {
            WalError::CorruptRecord { index, offset } => {
                assert_eq!(index, 1, "second record flagged");
                assert_eq!(offset as usize, SEG_HEADER + FRAME_HEADER + first_len);
            }
            other => panic!("expected CorruptRecord, got {other}"),
        }
        cleanup(&path);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp_path("magic");
        // Not a log at all, and a file of the previous format version
        // (magic ending `01`, then frames with no base index): both are
        // refused, never mis-parsed.
        let mut legacy = WAL_MAGIC.to_vec();
        legacy[7] = b'1';
        legacy.extend_from_slice(&[0u8; FRAME_HEADER]);
        for bytes in [b"NOTAWAL!rest".to_vec(), legacy] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                WalReader::open_log(&path),
                Err(WalError::BadMagic)
            ));
        }
        cleanup(&path);
    }

    // --------------------------------------------------------- rotation

    /// Rotation changes where frames land, never what the log says: the
    /// same appends decode to the same records rotated or not, and the
    /// un-rotated log is the one file at the configured path.
    #[test]
    fn rotation_does_not_change_the_decoded_log() {
        let decoded = |name: &str, rotate_every: u64, segments: &[u64]| {
            let path = temp_path(name);
            let cfg = DurabilityConfig::new(&path)
                .with_fsync_every(3)
                .with_rotate_every(rotate_every);
            let mut w = WalWriter::create(&cfg).unwrap();
            for i in 1..=12 {
                w.append(&rel_rec(i % 2, i)).unwrap();
            }
            w.finalize().unwrap();
            assert_eq!(w.live_segments(), segments);
            let on_disk: Vec<u64> = find_segments(&path).iter().map(|(k, _)| *k).collect();
            assert_eq!(on_disk, segments);
            assert!(path.is_file(), "segment 0 is the log path itself");
            let log = WalReader::open_log(&path).unwrap();
            cleanup(&path);
            assert_eq!(log.base, 0);
            log.records.iter().map(to_bytes).collect::<Vec<_>>()
        };
        let plain = decoded("same-plain", 0, &[0]);
        assert_eq!(plain.len(), 12);
        assert_eq!(plain, decoded("same-rotated", 5, &[0, 1, 2]));
    }

    #[test]
    fn rotation_splits_and_reader_stitches() {
        let path = temp_path("rotate");
        let cfg = DurabilityConfig::new(&path).with_rotate_every(3);
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=8 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        w.finalize().unwrap();
        assert_eq!(w.live_segments(), vec![0, 1, 2]);
        drop(w);
        let log = WalReader::open_log(&path).unwrap();
        assert_eq!(log.base, 0);
        assert_eq!(log.records.len(), 8);
        for (i, r) in log.records.iter().enumerate() {
            match r {
                WalRecord::RelInstalled { id, .. } => assert_eq!(id.0, i as u64 + 1),
                other => panic!("unexpected record {}", other.kind()),
            }
        }
        cleanup(&path);
    }

    /// A record appended exactly at the rotation boundary lands whole in
    /// the next segment — frames never straddle two files, even when the
    /// fsync window holds several frames at the boundary.
    #[test]
    fn record_at_rotation_boundary_never_straddles() {
        let path = temp_path("straddle");
        let cfg = DurabilityConfig::new(&path)
            .with_rotate_every(4)
            .with_fsync_every(3);
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=10 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        w.finalize().unwrap();
        drop(w);
        // Every segment must decode standalone: whole frames only.
        let mut total = 0;
        for (k, p) in find_segments(&path) {
            let bytes = std::fs::read(&p).unwrap();
            assert_eq!(&bytes[..8], WAL_MAGIC, "segment {k} magic");
            let base = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
            let (recs, clean) = decode_frames(&bytes, SEG_HEADER, base).unwrap();
            assert!(clean, "segment {k} ends on a frame boundary");
            assert_eq!(base, total, "segment {k} base continues the chain");
            total += recs.len() as u64;
        }
        assert_eq!(total, 10);
        cleanup(&path);
    }

    #[test]
    fn torn_tail_in_final_segment_is_clean_end() {
        let path = temp_path("segtorn");
        let cfg = DurabilityConfig::new(&path)
            .with_rotate_every(3)
            .with_fault(FaultSpec {
                kill_at_record: 6,
                torn_tail_bytes: 5,
                mode: KillMode::Drop,
            });
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=8 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        // Records 1-5 durable (seg0: 1-3, seg1: 4-5); the tear ate into
        // record 5's frame in the final segment.
        let log = WalReader::open_log(&path).unwrap();
        assert_eq!(log.base, 0);
        assert_eq!(log.records.len(), 4, "torn frame dropped, no error");
        cleanup(&path);
    }

    #[test]
    fn torn_tail_in_nonfinal_segment_is_typed_error() {
        let path = temp_path("midtorn");
        let cfg = DurabilityConfig::new(&path).with_rotate_every(3);
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=7 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        w.finalize().unwrap();
        drop(w);
        // Damage segment 1 (a closed, non-final segment) after the fact.
        let p1 = seg_path(&path, 1);
        let bytes = std::fs::read(&p1).unwrap();
        std::fs::write(&p1, &bytes[..bytes.len() - 3]).unwrap();
        match WalReader::open_log(&path).unwrap_err() {
            WalError::TornSegment { segment } => assert_eq!(segment, 1),
            other => panic!("expected TornSegment, got {other}"),
        }
        cleanup(&path);
    }

    #[test]
    fn missing_segment_is_gap_error() {
        let path = temp_path("seggap");
        let cfg = DurabilityConfig::new(&path).with_rotate_every(2);
        let mut w = WalWriter::create(&cfg).unwrap();
        for i in 1..=7 {
            w.append(&rel_rec(0, i)).unwrap();
        }
        w.finalize().unwrap();
        drop(w);
        std::fs::remove_file(seg_path(&path, 1)).unwrap();
        match WalReader::open_log(&path).unwrap_err() {
            WalError::SegmentGap {
                segment,
                expected,
                found,
            } => {
                assert_eq!(segment, 2);
                assert_eq!(expected, 2);
                assert_eq!(found, 4);
            }
            other => panic!("expected SegmentGap, got {other}"),
        }
        cleanup(&path);
    }

    #[test]
    fn fsyncs_counter_tracks_group_size() {
        for (every, expect) in [(1u64, 12u64), (4, 3), (12, 1)] {
            let path = temp_path(&format!("fsyncs{every}"));
            let cfg = DurabilityConfig::new(&path).with_fsync_every(every);
            let mut w = WalWriter::create(&cfg).unwrap();
            for i in 1..=12 {
                w.append(&rel_rec(0, i)).unwrap();
            }
            w.finalize().unwrap();
            assert_eq!(w.fsyncs(), expect, "fsync_every={every}");
            cleanup(&path);
        }
    }

    #[test]
    fn flush_ticket_single_flush_covers_group() {
        use std::sync::Arc;
        let ticket = Arc::new(FlushTicket::new());
        let flushes = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&ticket);
            let f = Arc::clone(&flushes);
            handles.push(std::thread::spawn(move || {
                t.wait_flush(Duration::from_millis(40), || {
                    *f.lock().unwrap() += 1;
                    Ok(())
                })
                .unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = *flushes.lock().unwrap();
        assert!(n >= 1, "at least one flush ran");
        assert!(n <= 4, "never more flushes than committers");
        assert_eq!(ticket.epochs(), n);
    }
}
