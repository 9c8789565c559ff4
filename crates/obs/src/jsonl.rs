//! The workspace's one JSON-lines append log: the file rules shared by the run ledger
//! ([`crate::ledger`]) and the simulation disk cache (`slic_spice::disk`).
//!
//! Writers take an exclusive advisory flock, truncate a torn final line left by a
//! crashed writer, then append whole lines — so concurrent same-host writers
//! interleave lines, never bytes.  Readers read the whole file under a shared lock.
//! This module moves bytes and decides nothing about their content: what a malformed
//! line means stays with each caller — the ledger and trace readers salvage and count
//! it via [`salvage`], while the disk cache refuses interior corruption outright.

use serde_json::Value;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Appends `lines` — whole lines, each ending in its newline — to the log at `path`,
/// creating it if needed, under an exclusive advisory lock, in one write.
///
/// A torn final line left by a crashed writer is truncated away first — appending
/// after it would weld the partial bytes and the first new line into one unparseable
/// interior line.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be opened, locked or appended.
pub fn append(path: &Path, lines: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    file.lock()?;
    truncate_torn_tail(&mut file)?;
    file.write_all(lines.as_bytes())?;
    file.flush()
    // Closing the handle releases the lock.
}

/// Reads the whole log at `path` under a shared advisory lock, so a concurrent
/// [`append`] never tears a line mid-read.
///
/// # Errors
///
/// Returns the underlying I/O error (including `NotFound` for a missing file).
pub fn read_shared(path: &Path) -> std::io::Result<String> {
    let file = std::fs::File::open(path)?;
    file.lock_shared()?;
    std::io::read_to_string(&file)
    // Closing the handle releases the lock.
}

/// Truncates a torn final line (no trailing newline) off the log.
///
/// Called under the exclusive append lock: any live writer finishes its whole batch —
/// trailing newline included — before releasing the lock, so a non-newline tail can
/// only be the leftover of a crashed writer and is safe to drop.
fn truncate_torn_tail(file: &mut std::fs::File) -> std::io::Result<()> {
    const CHUNK: u64 = 64 * 1024;
    let len = file.metadata()?.len();
    let mut scanned = 0u64;
    // Scan backwards for the last newline; keep everything up to and including it.
    while scanned < len {
        let chunk = CHUNK.min(len - scanned);
        file.seek(SeekFrom::Start(len - scanned - chunk))?;
        let mut buf = vec![0u8; chunk as usize];
        file.read_exact(&mut buf)?;
        if scanned == 0 && buf.last() == Some(&b'\n') {
            return Ok(());
        }
        if let Some(pos) = buf.iter().rposition(|&b| b == b'\n') {
            file.set_len(len - scanned - chunk + pos as u64 + 1)?;
            return Ok(());
        }
        scanned += chunk;
    }
    // No newline anywhere: the whole file is one torn line (or empty).
    file.set_len(0)
}

/// Parses `text` line by line, keeping every line that parses as JSON and `decode`s,
/// and counting the non-blank rest as dropped: `(records, dropped)`.
pub fn salvage<T>(text: &str, decode: impl Fn(&Value) -> Option<T>) -> (Vec<T>, usize) {
    let mut records = Vec::new();
    let mut dropped = 0;
    for line in text.lines().filter(|line| !line.trim().is_empty()) {
        match serde_json::from_str::<Value>(line)
            .ok()
            .as_ref()
            .and_then(&decode)
        {
            Some(record) => records.push(record),
            None => dropped += 1,
        }
    }
    (records, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_truncates_torn_tails_across_scan_chunks() {
        let dir = std::env::temp_dir().join(format!("slic-jsonl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("log.jsonl");
        // (complete lines, torn tail length): a torn tail longer than one 64 KiB scan
        // chunk, a last newline exactly on a chunk boundary, and a file of three
        // chunks with no newline at all.
        for (complete, torn) in [
            ("{\"a\":1}\n", 70 * 1024),
            ("{\"b\":2}\n", 64 * 1024),
            ("", 130 * 1024),
        ] {
            std::fs::write(&path, format!("{complete}{}", "x".repeat(torn))).expect("seed file");
            append(&path, "{\"new\":true}\n").expect("append");
            let text = read_shared(&path).expect("read back");
            assert_eq!(text, format!("{complete}{{\"new\":true}}\n"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
