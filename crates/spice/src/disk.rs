//! A disk-backed simulation cache: warm state that survives process restarts.
//!
//! [`DiskSimCache`] persists `SimKey → TimingMeasurement` pairs as a JSON-lines append
//! log.  Opening a cache loads every archived record into memory; `store` archives new
//! records in memory and appends each new or changed one as a finished line to one
//! pending buffer; [`flush`](DiskSimCache::flush) appends that buffer to the log in one
//! write (and runs automatically on drop).  Append-only persistence means shard workers
//! of a split [`CharacterizationPlan`] and later reruns all warm-start from the same
//! file: a rerun of an already-characterized shard pays zero transient simulations.
//!
//! Reads and appends go through the workspace's JSON-lines append log
//! ([`slic_obs::jsonl`]: shared advisory lock for load, exclusive for flush), so
//! same-host workers pointed at one cache file never interleave partial lines; each
//! worker still only *sees* records flushed before it opened the file, so sequential
//! workers share everything while concurrent workers merely deduplicate what was on disk
//! when they started.  The in-memory side mirrors [`InMemorySimCache`]'s 16-way sharding,
//! keeping warm-replay lookups contention-free under rayon.
//!
//! # Record codec
//!
//! The log is human-readable and diffable: one record per line, floating-point cache
//! coordinates hex-encoded so every bit pattern round-trips exactly.  One codec is the
//! only writer and reader of those lines — `store`, `open` and compaction all go
//! through it, with no intermediate JSON tree.  `encode` appends a record's line
//! straight into a `String`:
//!
//! ```text
//! {"key":{"kernel":"3","tech":"n14","arc":{"cell":{"kind":"Inv","drive":"X1"},"input_pin":0,
//!  "output_transition":"Rise"},"point":[3 × hex],"seed":[7 × hex],"config":[4 × hex]},
//!  "measurement":{"delay":7.855255862395494e-12,"output_slew":1.1965376875976381e-11}}
//! ```
//!
//! (one physical line, no whitespace).  Keys keep this order, bit patterns are 16-digit
//! lowercase hex, the kernel version is unpadded hex, the technology name is escaped as
//! JSON requires, and numbers are printed as integers when integral and below 2^53,
//! otherwise in Rust's shortest round-trip form — byte for byte what the workspace's
//! `serde_json` writes for the same record, so logs are unchanged from earlier builds.
//!
//! `decode` parses one line with a byte cursor (hex via `u64::from_str_radix`,
//! numbers via `str::parse::<f64>`, as `serde_json` reads them).  It accepts exactly
//! the two layouts this program has ever written: the original records with no
//! `kernel` entry (keyed as the legacy kernel 1, see
//! [`KERNEL_VERSION`](crate::cache::KERNEL_VERSION)) and records with the `kernel` entry
//! first.  Any other line — reordered or missing keys, whitespace, non-finite numbers,
//! an input pin the cell does not have — is [`CacheError::Corrupt`], under the same
//! torn-tail and quarantine rules as any other damaged line.
//!
//! [`CharacterizationPlan`]: ../../slic_pipeline/plan/struct.CharacterizationPlan.html
//! [`InMemorySimCache`]: crate::cache::InMemorySimCache

use crate::cache::{CacheError, InMemorySimCache, SimKey, SimulationCache, LEGACY_KERNEL_VERSION};
use crate::measure::TimingMeasurement;
use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
use slic_units::Seconds;
use std::fmt::{self, Write as _};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Appends the log line of one record to `out`, without its newline (see the module
/// docs for the layout).
pub(crate) fn encode(out: &mut String, key: &SimKey, measurement: &TimingMeasurement) {
    let arc = key.arc;
    out.push_str("{\"key\":{\"kernel\":\"");
    let _ = write!(out, "{:x}", key.kernel);
    out.push_str("\",\"tech\":");
    push_json_string(out, &key.tech);
    out.push_str(",\"arc\":{\"cell\":{\"kind\":\"");
    out.push_str(kind_name(arc.cell().kind()));
    out.push_str("\",\"drive\":\"");
    out.push_str(drive_name(arc.cell().drive()));
    out.push_str("\"},\"input_pin\":");
    let _ = write!(out, "{}", arc.input_pin());
    out.push_str(",\"output_transition\":\"");
    out.push_str(transition_name(arc.output_transition()));
    out.push_str("\"},\"point\":");
    push_hex_array(out, &key.point);
    out.push_str(",\"seed\":");
    push_hex_array(out, &key.seed);
    out.push_str(",\"config\":");
    push_hex_array(out, &key.config);
    out.push_str("},\"measurement\":{\"delay\":");
    push_number(out, measurement.delay.value());
    out.push_str(",\"output_slew\":");
    push_number(out, measurement.output_slew.value());
    out.push_str("}}");
}

/// Parses one log line into its record (see the module docs for the accepted layouts).
///
/// # Errors
///
/// Returns what failed to parse, and where, for any line outside those layouts.
pub(crate) fn decode(line: &str) -> Result<(SimKey, TimingMeasurement), String> {
    let mut cursor = Cursor { line, pos: 0 };
    cursor.require("{\"key\":{")?;
    let kernel = if cursor.eat("\"kernel\":") {
        let kernel = cursor.hex("kernel")?;
        cursor.require(",")?;
        kernel
    } else {
        // Records written before the kernel field existed were produced by the seed RK4
        // solver; keying them as the legacy version keeps old logs loadable while
        // guaranteeing they never answer a current-kernel lookup.
        LEGACY_KERNEL_VERSION
    };
    cursor.require("\"tech\":")?;
    let tech = cursor.string()?;
    cursor.require(",\"arc\":{\"cell\":{\"kind\":")?;
    let kind = cursor.variant("kind", &CellKind::ALL, kind_name)?;
    cursor.require(",\"drive\":")?;
    let drive = cursor.variant("drive", &DriveStrength::ALL, drive_name)?;
    cursor.require("},\"input_pin\":")?;
    let pin = cursor.number()?;
    cursor.require(",\"output_transition\":")?;
    let transition = cursor.variant("output_transition", &Transition::BOTH, transition_name)?;
    cursor.require("},\"point\":")?;
    let point = cursor.hex_array("point")?;
    cursor.require(",\"seed\":")?;
    let seed = cursor.hex_array("seed")?;
    cursor.require(",\"config\":")?;
    let config = cursor.hex_array("config")?;
    cursor.require("},\"measurement\":{\"delay\":")?;
    let delay = cursor.number()?;
    cursor.require(",\"output_slew\":")?;
    let output_slew = cursor.number()?;
    cursor.require("}}")?;
    if cursor.pos != line.len() {
        return Err(format!("trailing characters at byte {}", cursor.pos));
    }
    let cell = Cell::new(kind, drive);
    let input_pin = (0..cell.input_count())
        .find(|&index| index as f64 == pin)
        .ok_or_else(|| {
            format!(
                "field `input_pin`: {pin} is not an input of {}",
                cell.name()
            )
        })?;
    let key = SimKey {
        kernel,
        tech,
        arc: TimingArc::new(cell, input_pin, transition),
        point,
        seed,
        config,
    };
    let measurement = TimingMeasurement {
        delay: Seconds(delay),
        output_slew: Seconds(output_slew),
    };
    Ok((key, measurement))
}

/// `s` as a JSON string literal, escaped exactly as the workspace's `serde_json` does.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `bits` as a JSON array of 16-digit lowercase hex strings.
fn push_hex_array(out: &mut String, bits: &[u64]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push('[');
    for (i, &word) in bits.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        for shift in (0..16).rev() {
            out.push(char::from(DIGITS[((word >> (4 * shift)) & 0xf) as usize]));
        }
        out.push('"');
    }
    out.push(']');
}

/// A finite number as the workspace's `serde_json` prints it: an integer when integral
/// and below 2^53, otherwise the shortest text that round-trips through
/// `str::parse::<f64>`.
fn push_number(out: &mut String, n: f64) {
    // slic-lint: allow(F1) -- an exact integrality test, mirroring serde_json's writer byte for byte; a tolerance would change the log format.
    if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n:?}");
    }
}

/// The serialized variant names, which are the Rust identifiers (as `derive(Serialize)`
/// writes them), not the Liberty-style display names.
fn kind_name(kind: CellKind) -> &'static str {
    match kind {
        CellKind::Inv => "Inv",
        CellKind::Buf => "Buf",
        CellKind::Nand2 => "Nand2",
        CellKind::Nand3 => "Nand3",
        CellKind::Nor2 => "Nor2",
        CellKind::Nor3 => "Nor3",
        CellKind::Aoi21 => "Aoi21",
        CellKind::Oai21 => "Oai21",
    }
}

fn drive_name(drive: DriveStrength) -> &'static str {
    match drive {
        DriveStrength::X1 => "X1",
        DriveStrength::X2 => "X2",
        DriveStrength::X4 => "X4",
    }
}

fn transition_name(transition: Transition) -> &'static str {
    match transition {
        Transition::Rise => "Rise",
        Transition::Fall => "Fall",
    }
}

/// A forward-only read position in one log line.  Every step either consumes exactly
/// the expected bytes or reports the byte offset where the line departs from the layout.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn rest(&self) -> &'a [u8] {
        self.line.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// Consumes `literal` if the line continues with it.
    fn eat(&mut self, literal: &str) -> bool {
        let found = self.rest().starts_with(literal.as_bytes());
        if found {
            self.pos += literal.len();
        }
        found
    }

    fn require(&mut self, literal: &str) -> Result<(), String> {
        if self.eat(literal) {
            Ok(())
        } else {
            Err(format!("expected `{literal}` at byte {}", self.pos))
        }
    }

    /// Consumes the next `len` bytes as text.
    fn take(&mut self, len: usize) -> Result<&'a str, String> {
        let text = self
            .line
            .get(self.pos..self.pos + len)
            .ok_or_else(|| format!("invalid text at byte {}", self.pos))?;
        self.pos += len;
        Ok(text)
    }

    /// A string with no escapes (hex digits, variant names), without its quotes.
    fn plain_string(&mut self) -> Result<&'a str, String> {
        self.require("\"")?;
        let len = self
            .rest()
            .iter()
            .position(|&b| b == b'"')
            .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
        let text = self.take(len)?;
        self.pos += 1;
        Ok(text)
    }

    /// A JSON string; only one that contains escapes goes through `serde_json`.
    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.require("\"")?;
        let mut escaped = false;
        let mut bytes = self.rest().iter().enumerate();
        let len = loop {
            match bytes.next() {
                Some((_, b'\\')) => {
                    escaped = true;
                    bytes.next();
                }
                Some((i, b'"')) => break i,
                Some(_) => {}
                None => return Err(format!("unterminated string at byte {start}")),
            }
        };
        let text = self.take(len)?;
        self.pos += 1;
        if escaped {
            let quoted = self.line.get(start..self.pos).unwrap_or_default();
            serde_json::from_str(quoted).map_err(|err| format!("string at byte {start}: {err}"))
        } else {
            Ok(text.to_string())
        }
    }

    fn variant<T: Copy>(
        &mut self,
        field: &str,
        all: &[T],
        name: fn(T) -> &'static str,
    ) -> Result<T, String> {
        let text = self.plain_string()?;
        all.iter()
            .copied()
            .find(|&value| name(value) == text)
            .ok_or_else(|| format!("field `{field}`: unknown variant `{text}`"))
    }

    fn hex(&mut self, field: &str) -> Result<u64, String> {
        let text = self.plain_string()?;
        u64::from_str_radix(text, 16)
            .map_err(|_| format!("field `{field}`: `{text}` is not a hex bit pattern"))
    }

    fn hex_array<const N: usize>(&mut self, field: &str) -> Result<[u64; N], String> {
        self.require("[")?;
        let mut bits = [0u64; N];
        for (i, slot) in bits.iter_mut().enumerate() {
            if i > 0 {
                self.require(",")?;
            }
            *slot = self.hex(field)?;
        }
        self.require("]")?;
        Ok(bits)
    }

    /// A finite JSON number: the run of number characters, parsed as `f64`.
    fn number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        let len = self
            .rest()
            .iter()
            .take_while(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        let text = self.take(len)?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(format!("invalid number at byte {start}")),
        }
    }
}

/// What [`DiskSimCache::compact`] did to a log file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Records surviving in the compacted snapshot (unique keys, last value each).
    pub kept: usize,
    /// Duplicate records dropped (earlier values of keys that appear again later).
    pub dropped: usize,
    /// Legacy-kernel records evicted because
    /// [`CompactionOptions::drop_legacy`] was set (always zero otherwise).
    pub dropped_legacy: usize,
    /// Corrupt lines moved to the `.quarantine` sidecar because
    /// [`CompactionOptions::quarantine`] was set (always zero otherwise: without the
    /// flag, corruption aborts the compaction instead).
    pub quarantined: usize,
}

/// Knobs of a [`DiskSimCache::compact_with`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOptions {
    /// Evict records whose [`SimKey`] kernel version predates the current
    /// [`KERNEL_VERSION`](crate::cache::KERNEL_VERSION).  Such records can never answer a
    /// lookup of this binary again; dropping them trades loadability by *older* binaries
    /// for a smaller log.
    pub drop_legacy: bool,
    /// Salvage a log with corrupt interior lines instead of aborting: every valid record
    /// is kept, and each corrupt line is moved verbatim to a `<path>.quarantine` sidecar
    /// for inspection.  Off by default because silent salvage would hide corruption; the
    /// operator opts in after the default compaction has already refused.
    pub quarantine: bool,
}

/// A persistent [`SimulationCache`] backed by a JSON-lines append log.
///
/// The in-memory tier (sharded map, hit/miss accounting) *is* an [`InMemorySimCache`];
/// this type adds the load-on-open / flush-on-drop persistence around it.  Hit/miss
/// accounting covers this process only (records loaded from disk are warm state, not
/// misses); see the [`cache`](crate::cache) module docs for the counting rules.
pub struct DiskSimCache {
    path: PathBuf,
    memory: InMemorySimCache,
    /// Finished log lines (each newline-terminated) archived since the last flush, in
    /// store order: the exact bytes the next flush appends.
    pending: Mutex<String>,
}

impl fmt::Debug for DiskSimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskSimCache")
            .field("path", &self.path)
            .field("len", &self.len())
            .finish()
    }
}

impl DiskSimCache {
    /// Opens (or creates) the cache log at `path`, loading every archived record.
    ///
    /// A missing file is an empty cache; missing parent directories are created.  The
    /// read holds a shared advisory lock, so a concurrent worker's flush never tears a
    /// record mid-read.  A malformed final line **without a trailing newline** is
    /// tolerated and ignored — it is the signature of a process killed mid-append, and
    /// the next flush truncates it away — but corruption anywhere else (including a
    /// newline-terminated final record) is an error: silently dropping archived
    /// simulations would quietly re-pay for them.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or a corrupt non-final record.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CacheError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let cache = Self {
            path,
            memory: InMemorySimCache::new(),
            pending: Mutex::new(String::new()),
        };
        let text = match slic_obs::jsonl::read_shared(&cache.path) {
            Ok(text) => text,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(err) => return Err(err.into()),
        };
        let lines: Vec<&str> = text.lines().collect();
        for (index, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match decode(line) {
                Ok((key, measurement)) => {
                    if index + 1 == lines.len() && !text.ends_with('\n') {
                        // A complete record whose trailing newline was lost in a crash:
                        // the next flush truncates every un-terminated byte, so queue the
                        // record for re-append or it would vanish from the log.
                        let mut pending = cache
                            .pending
                            .lock()
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                        pending.push_str(line);
                        pending.push('\n');
                    }
                    cache.memory.insert_warm(key, measurement);
                }
                Err(_) if index + 1 == lines.len() && !text.ends_with('\n') => {
                    // A truncated final record from an interrupted append — recognizable
                    // by the missing trailing newline; the next flush truncates it away
                    // before appending. A *complete* (newline-terminated) corrupt line is
                    // real corruption and falls through to the error below.
                }
                Err(message) => {
                    return Err(CacheError::Corrupt {
                        line: index + 1,
                        message,
                    });
                }
            }
        }
        Ok(cache)
    }

    /// The log file this cache persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of archived measurements (loaded plus stored).
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// Returns `true` when nothing is archived.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Rewrites the append-only log at `path` as a deduplicated last-record-wins
    /// snapshot, in place, under the same exclusive advisory lock every flush takes.
    ///
    /// The append log only grows: concurrent workers racing on one coordinate each append
    /// a record, reruns against a changed value append again, and a long campaign's log
    /// ends up storing each hot coordinate several times.  Compaction keeps exactly one
    /// record per unique [`SimKey`] — the **last** one, matching the last-record-wins
    /// load semantics — in first-appearance order, so a compacted log loads to the
    /// identical in-memory state as the original.
    ///
    /// The rewrite happens in place (seek to start, write the snapshot, truncate), not
    /// via rename: the file keeps its inode, so a concurrent worker blocked on the
    /// advisory lock appends to the *compacted* file when it acquires it, instead of to
    /// an unlinked orphan.  A torn final line (crashed writer) is repaired away, exactly
    /// as [`flush`](Self::flush) would.  A legacy-kernel record is kept by default — its
    /// key can never collide with a current-kernel key — so old logs stay loadable by old
    /// binaries; [`compact_with`](Self::compact_with) can evict them instead.
    ///
    /// A missing file is an empty cache: nothing to do, zero report.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or a corrupt non-final record
    /// (same tolerance as [`open`](Self::open)); the log is not modified in that case.
    pub fn compact(path: impl AsRef<Path>) -> Result<CompactionReport, CacheError> {
        Self::compact_with(path, CompactionOptions::default())
    }

    /// [`compact`](Self::compact) with explicit [`CompactionOptions`]:
    ///
    /// - `drop_legacy` additionally evicts records written by a kernel predating the
    ///   current [`KERNEL_VERSION`](crate::cache::KERNEL_VERSION) (the age-based eviction
    ///   a long-lived cache needs after a solver upgrade: those records are never
    ///   consulted again by this binary and only grow the log);
    /// - `quarantine` salvages a log the default compaction refuses: valid records are
    ///   kept, and each corrupt line moves verbatim to a `<path>.quarantine` sidecar
    ///   (appended, so repeated salvages accumulate evidence rather than overwrite it).
    ///   The sidecar is written *before* the log is rewritten, so a crash between the two
    ///   can duplicate a corrupt line in the sidecar but never lose one.
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError`] on filesystem failures or — unless `quarantine` is set —
    /// a corrupt non-final record (same tolerance as [`open`](Self::open)); the log is
    /// not modified in that case.
    pub fn compact_with(
        path: impl AsRef<Path>,
        options: CompactionOptions,
    ) -> Result<CompactionReport, CacheError> {
        let mut file = match std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())
        {
            Ok(file) => file,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                return Ok(CompactionReport::default())
            }
            Err(err) => return Err(err.into()),
        };
        file.lock()?;
        let text = std::io::read_to_string(&file)?;
        let lines: Vec<&str> = text.lines().collect();
        // First-appearance order of unique keys; last-record-wins value per key.
        let mut order: Vec<SimKey> = Vec::new();
        let mut latest: std::collections::BTreeMap<SimKey, TimingMeasurement> =
            std::collections::BTreeMap::new();
        let mut records = 0usize;
        let mut dropped_legacy = 0usize;
        let mut quarantined: Vec<&str> = Vec::new();
        for (index, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match decode(line) {
                Ok((key, measurement)) => {
                    if options.drop_legacy && key.is_legacy_kernel() {
                        dropped_legacy += 1;
                        continue;
                    }
                    records += 1;
                    if latest.insert(key.clone(), measurement).is_none() {
                        order.push(key);
                    }
                }
                Err(_) if index + 1 == lines.len() && !text.ends_with('\n') => {
                    // Torn tail of a crashed append: repaired by the rewrite below.
                }
                Err(_) if options.quarantine => quarantined.push(line),
                Err(message) => {
                    return Err(CacheError::Corrupt {
                        line: index + 1,
                        message,
                    });
                }
            }
        }
        if !quarantined.is_empty() {
            // Sidecar first: a crash after this append but before the log rewrite below
            // duplicates a corrupt line in the sidecar, but never loses one.
            let mut sidecar_path = path.as_ref().as_os_str().to_os_string();
            sidecar_path.push(".quarantine");
            let mut sidecar = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&sidecar_path)?;
            let mut evidence = String::new();
            for line in &quarantined {
                evidence.push_str(line);
                evidence.push('\n');
            }
            sidecar.write_all(evidence.as_bytes())?;
            sidecar.flush()?;
        }
        let mut snapshot = String::new();
        for key in &order {
            encode(&mut snapshot, key, &latest[key]);
            snapshot.push('\n');
        }
        file.seek(SeekFrom::Start(0))?;
        file.write_all(snapshot.as_bytes())?;
        file.set_len(snapshot.len() as u64)?;
        file.flush()?;
        // Closing the handle releases the lock.
        Ok(CompactionReport {
            kept: order.len(),
            dropped: records - order.len(),
            dropped_legacy,
            quarantined: quarantined.len(),
        })
    }

    /// Appends every record stored since the last flush to the log file through
    /// [`slic_obs::jsonl::append`]: an exclusive advisory lock, so concurrent same-host
    /// workers append whole lines, and torn-tail truncation first — appending after a
    /// crashed writer's partial bytes would weld them and the first new record into one
    /// unparseable interior line and brick the log for every later `open`.
    ///
    /// Called automatically on drop; call it explicitly when the cache must be durable at
    /// a known point (e.g. before handing the file to the next shard worker).
    ///
    /// # Errors
    ///
    /// Returns a [`CacheError::Io`] when the log cannot be appended; the pending records
    /// are kept for a retry.
    pub fn flush(&self) -> Result<(), CacheError> {
        let mut pending = self
            .pending
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if pending.is_empty() {
            return Ok(());
        }
        slic_obs::jsonl::append(&self.path, &pending)?;
        pending.clear();
        Ok(())
    }
}

impl SimulationCache for DiskSimCache {
    fn lookup(&self, key: &SimKey) -> Option<TimingMeasurement> {
        self.memory.lookup(key)
    }

    fn store(&self, key: SimKey, measurement: TimingMeasurement) {
        // A non-finite number has no JSON form: the line would brick every later `open`.
        assert!(
            measurement.delay.is_finite() && measurement.output_slew.is_finite(),
            "cache records contain only finite numbers"
        );
        // Re-storing the identical value (a benign replay) keeps the log clean; a changed
        // value must be appended because loading is last-record-wins.  Only then is the
        // record encoded, straight into the pending buffer.
        let line_key = key.clone();
        if self.memory.archive(key, measurement) != Some(measurement) {
            let mut pending = self
                .pending
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            encode(&mut pending, &line_key, &measurement);
            pending.push('\n');
        }
    }

    fn hits(&self) -> u64 {
        self.memory.hits()
    }

    fn warm_hits(&self) -> u64 {
        self.memory.warm_hits()
    }

    fn misses(&self) -> u64 {
        self.memory.misses()
    }

    fn persist(&self) -> Result<(), CacheError> {
        self.flush()
    }
}

impl Drop for DiskSimCache {
    fn drop(&mut self) {
        if let Err(err) = self.flush() {
            eprintln!(
                "warning: failed to flush simulation cache `{}`: {err}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputPoint;
    use crate::transient::TransientConfig;
    use slic_cells::{Cell, CellKind, DriveStrength, TimingArc, Transition};
    use slic_device::ProcessSample;
    use slic_units::{Farads, Seconds, Volts};

    fn key(sin_ps: f64, cload_ff: f64) -> SimKey {
        let cell = Cell::new(CellKind::Nand2, DriveStrength::X2);
        let arc = TimingArc::new(cell, 0, Transition::Rise);
        let point = InputPoint::new(
            Seconds::from_picoseconds(sin_ps),
            Farads::from_femtofarads(cload_ff),
            Volts(0.8),
        );
        SimKey::new(
            "n14",
            &arc,
            &point,
            &ProcessSample::nominal(),
            &TransientConfig::fast(),
        )
    }

    fn measurement(delay_ps: f64) -> TimingMeasurement {
        TimingMeasurement::new(
            Seconds::from_picoseconds(delay_ps),
            Seconds::from_picoseconds(delay_ps * 0.6),
        )
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("slic-disk-cache-{}-{name}", std::process::id()))
    }

    #[test]
    fn persists_across_reopen() {
        let path = temp_path("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens fresh");
            assert!(cache.is_empty());
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            cache.flush().expect("flushes");
            assert_eq!(cache.misses(), 2);
        }
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        assert_eq!(reopened.hits(), 2);
        assert_eq!(reopened.misses(), 0, "loaded records are not misses");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_on_drop_without_explicit_flush() {
        let path = temp_path("drop.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(7.0, 1.0), measurement(9.0));
        }
        let reopened = DiskSimCache::open(&path).expect("reopens");
        assert_eq!(reopened.lookup(&key(7.0, 1.0)), Some(measurement(9.0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_stores_append_once() {
        let path = temp_path("dedup.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens");
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.flush().expect("flushes");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 2, "both solves were paid");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "the log stays deduplicated");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        let path = temp_path("truncated.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Simulate a crash mid-append: chop the last record in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 25;
        std::fs::write(&path, &text[..keep]).unwrap();
        let reopened = DiskSimCache::open(&path).expect("tolerates a torn tail");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));

        // Appending through the survivor must first truncate the torn bytes — otherwise
        // they would weld onto the new record and corrupt an interior line for good.
        reopened.store(key(9.0, 4.0), measurement(20.0));
        reopened.flush().expect("flush repairs the torn tail");
        let repaired = DiskSimCache::open(&path).expect("log is clean again");
        assert_eq!(repaired.len(), 2);
        assert_eq!(repaired.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(repaired.lookup(&key(9.0, 4.0)), Some(measurement(20.0)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines()
                .all(|l| serde_json::from_str::<serde::Value>(l).is_ok()),
            "every physical line must be valid JSON after the repairing flush"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_record_missing_its_newline_survives_the_repairing_flush() {
        let path = temp_path("no-newline.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Crash lost only the final newline: the last record's bytes are complete.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        {
            let survivor = DiskSimCache::open(&path).expect("opens");
            assert_eq!(survivor.len(), 2, "the newline-less record still loads");
            survivor.store(key(9.0, 4.0), measurement(20.0));
            // Drop flushes: truncation removes the un-terminated bytes, and the queued
            // re-append keeps the record durable.
        }
        let reopened = DiskSimCache::open(&path).expect("clean log");
        assert_eq!(reopened.len(), 3, "no archived record may be lost");
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'));
        assert!(text
            .lines()
            .all(|l| serde_json::from_str::<serde::Value>(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_truncates_a_file_that_is_one_torn_line() {
        let path = temp_path("all-torn.jsonl");
        std::fs::remove_file(&path).ok();
        std::fs::write(&path, "{\"key\":{\"tec").unwrap();
        let cache = DiskSimCache::open(&path).expect("tolerates");
        assert!(cache.is_empty());
        cache.store(key(5.0, 2.0), measurement(12.0));
        cache.flush().expect("flushes");
        let reopened = DiskSimCache::open(&path).expect("clean log");
        assert_eq!(reopened.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_corrupt_final_line_is_an_error() {
        let path = temp_path("corrupt-final.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // A newline-terminated garbage line is corruption, not a torn append: tolerating
        // it would let a later flush turn it into unfixable interior corruption.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        *lines.last_mut().unwrap() = "{broken".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = DiskSimCache::open(&path).expect_err("complete corrupt line rejected");
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_delegates_to_flush() {
        let path = temp_path("persist.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens");
        cache.store(key(5.0, 2.0), measurement(12.0));
        SimulationCache::persist(&cache).expect("persists");
        assert_eq!(DiskSimCache::open(&path).expect("reopens").len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_corruption_is_an_error() {
        let path = temp_path("corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "{not json".to_string();
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = DiskSimCache::open(&path).expect_err("must reject interior corruption");
        assert!(err.to_string().contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]
        #[test]
        fn arbitrary_records_round_trip_through_the_log(
            sins in proptest::collection::vec(0.1f64..40.0, 1..24),
            delays in proptest::collection::vec(0.5f64..80.0, 24),
        ) {
            let path = temp_path(&format!("prop-{}.jsonl", sins.len()));
            std::fs::remove_file(&path).ok();
            let records: Vec<(SimKey, TimingMeasurement)> = sins
                .iter()
                .zip(&delays)
                .map(|(&sin, &delay)| (key(sin, 2.0), measurement(delay)))
                .collect();
            {
                let cache = DiskSimCache::open(&path).expect("opens fresh");
                for (k, m) in &records {
                    cache.store(k.clone(), *m);
                }
                cache.flush().expect("flushes");
            }
            let reopened = DiskSimCache::open(&path).expect("reopens");
            for (k, m) in &records {
                proptest::prop_assert_eq!(
                    reopened.lookup(k),
                    Some(*m),
                    "coordinate bit patterns and measurements must survive persistence"
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn compaction_keeps_the_last_record_per_key_and_reports_drops() {
        let path = temp_path("compact.jsonl");
        std::fs::remove_file(&path).ok();
        {
            // Two processes racing on one coordinate each append their own record, and a
            // later run overwrites a value: three physical lines, two unique keys.
            let first = DiskSimCache::open(&path).expect("opens");
            first.store(key(5.0, 2.0), measurement(12.0));
            first.store(key(6.0, 3.0), measurement(15.0));
            first.flush().expect("flushes");
        }
        // A second writer blind to the first (fresh process, same file) re-appends an
        // updated value for an existing key by writing the raw line, as a concurrent
        // worker's flush would.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            let mut line = String::new();
            encode(&mut line, &key(5.0, 2.0), &measurement(99.0));
            writeln!(file, "{line}").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        let report = DiskSimCache::compact(&path).expect("compacts");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 1,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "one line per unique key");
        let reopened = DiskSimCache::open(&path).expect("compacted log loads");
        assert_eq!(
            reopened.lookup(&key(5.0, 2.0)),
            Some(measurement(99.0)),
            "last record wins, exactly as the uncompacted load would resolve"
        );
        assert_eq!(reopened.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        // Idempotent: a second compaction drops nothing.
        let again = DiskSimCache::compact(&path).expect("compacts again");
        assert_eq!(
            again,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_repairs_a_torn_tail_and_tolerates_missing_files() {
        let path = temp_path("compact-torn.jsonl");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            DiskSimCache::compact(&path).expect("missing file is empty"),
            CompactionReport {
                kept: 0,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        // Crash mid-append: chop the final record in half (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let report = DiskSimCache::compact(&path).expect("tolerates the torn tail");
        assert_eq!(
            report,
            CompactionReport {
                kept: 1,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.ends_with('\n'));
        assert!(repaired
            .lines()
            .all(|l| serde_json::from_str::<serde::Value>(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn drop_legacy_compaction_evicts_pre_upgrade_records_and_reports_them_separately() {
        use crate::cache::KERNEL_VERSION;
        let path = temp_path("compact-legacy.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            // A benign duplicate so plain dedup drops something too.
            cache.store(key(5.0, 2.0), measurement(13.0));
        }
        // Records written by older kernels: two with the kernel field stripped, exactly as
        // a log line from before the field existed would look, and one stamped with
        // version 2 — the last kernel before the quad kernel became the only one.
        {
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            let kernel_field = format!("\"kernel\":\"{KERNEL_VERSION:x}\",");
            for (k, m, stamp) in [
                (7.0, 21.0, ""),
                (8.0, 22.0, ""),
                (9.0, 23.0, "\"kernel\":\"2\","),
            ] {
                let mut line = String::new();
                encode(&mut line, &key(k, 1.0), &measurement(m));
                assert!(
                    line.contains(&kernel_field),
                    "current keys persist a version"
                );
                writeln!(file, "{}", line.replace(&kernel_field, stamp)).unwrap();
            }
        }
        // Loaded, but no older-kernel record answers a current-kernel lookup.
        let loaded = DiskSimCache::open(&path).expect("mixed-kernel log loads");
        for k in [7.0, 8.0, 9.0] {
            assert_eq!(loaded.lookup(&key(k, 1.0)), None, "kernel mixing at {k}");
        }
        drop(loaded);
        // A plain compaction keeps the legacy records (old binaries can still load them).
        let plain = DiskSimCache::compact(&path).expect("compacts");
        assert_eq!(
            plain,
            CompactionReport {
                kept: 5,
                dropped: 1,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        // Dropping legacy evicts exactly the pre-upgrade records, reported separately
        // from the superseded-duplicate count.
        let report = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                drop_legacy: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 3,
                quarantined: 0
            }
        );
        let survivors = DiskSimCache::open(&path).expect("compacted log loads");
        assert_eq!(survivors.len(), 2);
        assert_eq!(survivors.lookup(&key(5.0, 2.0)), Some(measurement(13.0)));
        assert_eq!(survivors.lookup(&key(6.0, 3.0)), Some(measurement(15.0)));
        // Idempotent: nothing legacy remains.
        let again = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                drop_legacy: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts again");
        assert_eq!(
            again,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 0
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_rejects_interior_corruption_without_touching_the_log() {
        let path = temp_path("compact-corrupt.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[0] = "{not json".to_string();
        let corrupted = lines.join("\n") + "\n";
        std::fs::write(&path, &corrupted).unwrap();
        let err = DiskSimCache::compact(&path).expect_err("interior corruption rejected");
        assert!(err.to_string().contains("line 1"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            corrupted,
            "a failed compaction must leave the log untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quarantine_compaction_salvages_valid_records_and_sidecars_corrupt_lines() {
        let path = temp_path("compact-quarantine.jsonl");
        let sidecar = temp_path("compact-quarantine.jsonl.quarantine");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        {
            let cache = DiskSimCache::open(&path).expect("opens");
            cache.store(key(5.0, 2.0), measurement(12.0));
            cache.store(key(6.0, 3.0), measurement(15.0));
            cache.store(key(7.0, 4.0), measurement(18.0));
        }
        // Corrupt an interior line and the (newline-terminated) final line: both are the
        // "real corruption" class that open() and the default compaction refuse.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = "{bitrot in the middle".to_string();
        lines.push("trailing garbage, with its newline".to_string());
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        DiskSimCache::compact(&path).expect_err("default compaction still refuses");
        let report = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                quarantine: true,
                ..CompactionOptions::default()
            },
        )
        .expect("quarantine salvages");
        assert_eq!(
            report,
            CompactionReport {
                kept: 2,
                dropped: 0,
                dropped_legacy: 0,
                quarantined: 2
            }
        );
        // Every valid record survived, and the log is clean again.
        let salvaged = DiskSimCache::open(&path).expect("salvaged log loads");
        assert_eq!(salvaged.len(), 2);
        assert_eq!(salvaged.lookup(&key(5.0, 2.0)), Some(measurement(12.0)));
        assert_eq!(salvaged.lookup(&key(7.0, 4.0)), Some(measurement(18.0)));
        // The corrupt lines moved verbatim to the sidecar, in log order.
        let evidence = std::fs::read_to_string(&sidecar).expect("sidecar written");
        assert_eq!(
            evidence.lines().collect::<Vec<_>>(),
            vec![
                "{bitrot in the middle",
                "trailing garbage, with its newline"
            ]
        );
        // A salvaged log quarantines nothing on the next pass, and leaves the sidecar be.
        let again = DiskSimCache::compact_with(
            &path,
            CompactionOptions {
                quarantine: true,
                ..CompactionOptions::default()
            },
        )
        .expect("compacts again");
        assert_eq!(again.quarantined, 0);
        assert_eq!(std::fs::read_to_string(&sidecar).unwrap(), evidence);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn repeated_quarantine_salvages_append_to_the_sidecar() {
        let path = temp_path("compact-quarantine-append.jsonl");
        let sidecar = temp_path("compact-quarantine-append.jsonl.quarantine");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
        let quarantine = CompactionOptions {
            quarantine: true,
            ..CompactionOptions::default()
        };
        for round in ["first corruption", "second corruption"] {
            {
                let cache = DiskSimCache::open(&path).expect("opens");
                cache.store(key(5.0, 2.0), measurement(12.0));
            }
            use std::io::Write as _;
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(file, "{round}").unwrap();
            drop(file);
            let report = DiskSimCache::compact_with(&path, quarantine).expect("salvages");
            assert_eq!(report.quarantined, 1);
        }
        let evidence = std::fs::read_to_string(&sidecar).unwrap();
        assert_eq!(
            evidence.lines().collect::<Vec<_>>(),
            vec!["first corruption", "second corruption"],
            "each salvage appends its evidence instead of overwriting the last"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn a_log_written_by_the_previous_binary_loads_and_re_encodes_byte_for_byte() {
        // Written by the binary before the direct codec: the CI quick-profile shard
        // 1/2 + 2/2 log (108 current-kernel records), then the three legacy lines of
        // `drop_legacy_compaction_evicts_pre_upgrade_records_and_reports_them_separately`
        // (two without a `kernel` entry, one stamped `"kernel":"2"`).
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache_log_parent.jsonl");
        let cache = DiskSimCache::open(&path).expect("the previous binary's log loads");
        assert_eq!(cache.len(), 111, "every record loads");
        for k in [7.0, 8.0, 9.0] {
            assert_eq!(
                cache.lookup(&key(k, 1.0)),
                None,
                "legacy record at {k} answers a current lookup"
            );
        }
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 111);
        let (current, legacy) = lines.split_at(108);
        for line in current {
            let (k, m) = decode(line).expect("decodes");
            assert!(!k.is_legacy_kernel());
            let mut again = String::new();
            encode(&mut again, &k, &m);
            assert_eq!(
                &again, line,
                "re-encoding must reproduce the line byte for byte"
            );
        }
        for line in legacy {
            let (k, _) = decode(line).expect("legacy layout decodes");
            assert!(k.is_legacy_kernel(), "{line}");
        }
    }

    /// The reference line of a record, built as an explicit `serde_json` value tree in
    /// the layout the log has always had.
    fn reference_line(key: &SimKey, m: &TimingMeasurement) -> String {
        use serde::{Serialize, Value};
        let object = |entries: Vec<(&str, Value)>| {
            Value::Object(
                entries
                    .into_iter()
                    .map(|(name, value)| (name.to_string(), value))
                    .collect(),
            )
        };
        let hex = |bits: &[u64]| {
            Value::Array(
                bits.iter()
                    .map(|b| Value::String(format!("{b:016x}")))
                    .collect(),
            )
        };
        let tree = object(vec![
            (
                "key",
                object(vec![
                    ("kernel", Value::String(format!("{:x}", key.kernel))),
                    ("tech", Value::String(key.tech.clone())),
                    ("arc", key.arc.to_value()),
                    ("point", hex(&key.point)),
                    ("seed", hex(&key.seed)),
                    ("config", hex(&key.config)),
                ]),
            ),
            (
                "measurement",
                object(vec![
                    ("delay", Value::Number(m.delay.value())),
                    ("output_slew", Value::Number(m.output_slew.value())),
                ]),
            ),
        ]);
        serde_json::to_string(&tree).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn codec_matches_serde_json_and_round_trips(
            raw in proptest::collection::vec(0u64..u64::MAX, 14),
            picks in proptest::collection::vec(0usize..8, 14),
            arc_pick in 0usize..1000,
            tech_pick in 0usize..6,
            kernel_pick in 0usize..4,
            numbers in proptest::collection::vec(0usize..9, 2),
            magnitudes in proptest::collection::vec(1e-14f64..1e-9, 2),
        ) {
            use crate::cache::{fold_zero_bits, KERNEL_VERSION};
            // Special bit patterns mixed into arbitrary ones: zeros of both signs (folded
            // as `SimKey::new` folds them), subnormals, the smallest normal, infinity.
            let specials = [
                0,
                (-0.0f64).to_bits(),
                1,
                0x000f_ffff_ffff_ffff,
                f64::MIN_POSITIVE.to_bits(),
                f64::INFINITY.to_bits(),
            ];
            let bits: Vec<u64> = raw
                .iter()
                .zip(&picks)
                .map(|(&r, &p)| fold_zero_bits(f64::from_bits(specials.get(p).copied().unwrap_or(r))))
                .collect();
            let kinds = CellKind::ALL;
            let kind = kinds[arc_pick % kinds.len()];
            let drive = DriveStrength::ALL[(arc_pick / 8) % 3];
            let transition = Transition::BOTH[(arc_pick / 24) % 2];
            let cell = Cell::new(kind, drive);
            let pin = (arc_pick / 48) % cell.input_count();
            let tech = ["n14", "target-14nm-finfet", "q\"uo\\te", "tab\tline\nfeed", "ctl\u{1}x", "ünï"]
                [tech_pick];
            let kernel = [KERNEL_VERSION, 1, 2, 0x1f][kernel_pick];
            let key = SimKey {
                kernel,
                tech: tech.to_string(),
                arc: TimingArc::new(cell, pin, transition),
                point: [bits[0], bits[1], bits[2]],
                seed: [bits[3], bits[4], bits[5], bits[6], bits[7], bits[8], bits[9]],
                config: [bits[10], bits[11], bits[12], bits[13]],
            };
            // Integral values print as integers, exponents where shorter, 2^53 and above
            // in float form; the rest are ordinary picosecond-scale values.
            let pick_number = |choice: usize, magnitude: f64| {
                [0.0, 2.0, 1e16, 1e-300, 9_007_199_254_740_992.0, 9_007_199_254_740_991.0, 5e-324, 12.5]
                    .get(choice)
                    .copied()
                    .unwrap_or(magnitude)
            };
            let m = TimingMeasurement {
                delay: Seconds(pick_number(numbers[0], magnitudes[0])),
                output_slew: Seconds(pick_number(numbers[1], magnitudes[1]).max(5e-324)),
            };
            let mut line = String::new();
            encode(&mut line, &key, &m);
            proptest::prop_assert_eq!(&line, &reference_line(&key, &m));
            let (back_key, back_m) = decode(&line).map_err(proptest::TestCaseError::fail)?;
            proptest::prop_assert_eq!(&back_key, &key);
            proptest::prop_assert_eq!(back_m.delay.value().to_bits(), m.delay.value().to_bits());
            proptest::prop_assert_eq!(
                back_m.output_slew.value().to_bits(),
                m.output_slew.value().to_bits()
            );
        }
    }

    #[test]
    fn decode_rejects_every_other_layout() {
        let mut line = String::new();
        let m = TimingMeasurement::new(Seconds(1.5e-11), Seconds(2e-11));
        encode(&mut line, &key(5.0, 2.0), &m);
        assert!(decode(&line).is_ok());
        for (broken, why) in [
            (line.replacen("\"tech\"", "\"tek\"", 1), "renamed key"),
            (line.replacen("{\"key\":{", "{ \"key\":{", 1), "whitespace"),
            (
                line.replacen("\"input_pin\":0", "\"input_pin\":2", 1),
                "pin out of range",
            ),
            (
                line.replacen("\"input_pin\":0", "\"input_pin\":0.5", 1),
                "fractional pin",
            ),
            (line.replacen("\"Nand2\"", "\"NAND2\"", 1), "display name"),
            (
                line.replacen("{\"delay\":", "{\"extra\":1,\"delay\":", 1),
                "extra key",
            ),
            (
                line.replace("\"delay\":1.5e-11", "\"delay\":1e999"),
                "infinite number",
            ),
            (format!("{line} "), "trailing space"),
            (line[..line.len() - 1].to_string(), "truncated"),
        ] {
            assert_ne!(broken, line, "{why}: the mutation must apply");
            assert!(decode(&broken).is_err(), "{why}: {broken}");
        }
    }

    #[test]
    fn missing_file_is_an_empty_cache() {
        let path = temp_path("missing.jsonl");
        std::fs::remove_file(&path).ok();
        let cache = DiskSimCache::open(&path).expect("opens a missing file");
        assert!(cache.is_empty());
        assert_eq!(cache.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }
}
