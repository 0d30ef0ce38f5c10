//! The on-disk record format of the persistent decision cache.
//!
//! [`crate::CanonicalDecisionCache`] optionally keeps a **second tier**
//! behind its in-memory LRU: an append-only log of containment verdicts,
//! one `(engine version, schema fingerprint, theory fingerprint,
//! canonical Q₁, canonical Q₂) → holds` fact per verdict. This module owns
//! everything byte-shaped about that tier — framing, checksums,
//! crash-tolerant scanning, the append and rewrite handle, and the
//! single-writer directory lock — while the cache itself (in
//! [`crate::cache`]) owns the keys, the schema ids, the lookup semantics,
//! and the policy of when to append or compact.
//!
//! ## Frame format
//!
//! ```text
//! frame   := MAGIC(4) payload_len:u32le payload fnv1a64(payload):u64le
//! payload := version:u32le body
//! body    := 0x00 len:u32le schema-utf8 len:u32le theory-utf8            (schema frame)
//!          | 0x01 id:u64le holds:u8 len:u32le q1-wire len:u32le q2-wire   (verdict frame)
//! ```
//!
//! A schema frame carries a schema fingerprint and its theory fingerprint,
//! the exact texts the cache keys on. Its id is not written: it is
//! [`schema_id`], FNV-1a over the frame's two length-prefixed texts, so a
//! reader derives it from the content and a verdict can only ever resolve
//! to the texts it was written under. The writer emits a schema frame the
//! first time a schema reaches the log, in the same `write_all` as the
//! verdict that needs it, so every later verdict under that schema carries
//! the 8-byte id instead of ~650 bytes of schema text. The canonical
//! queries use
//! [`CanonicalQuery::to_wire`](oocq_query::CanonicalQuery::to_wire). Each
//! append is a **single `write_all`**, so a crash mid-append leaves at most
//! one truncated frame at the tail.
//!
//! The version leads every payload, in the same place it held in the
//! earlier one-frame-per-record format, so a frame written under another
//! [`ENGINE_CACHE_VERSION`] is recognized by its first four bytes and
//! counted as stale, never decoded under this version's grammar.
//!
//! ## Recovery
//!
//! [`scan_log`] never fails and never panics: it walks the bytes looking
//! for `MAGIC`, validates the length and FNV-1a checksum, and on any
//! mismatch slides forward one byte and resynchronizes on the next magic.
//! A truncated tail, a corrupted run, or garbage prepended by a confused
//! operator all degrade to "some frames skipped, the rest load" — the
//! skipped spans are counted so the cache can report them and schedule a
//! compaction, which rewrites the log from the live index (tmp file +
//! atomic rename).

use crate::cache::ENGINE_CACHE_VERSION;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Frame marker. Also the resynchronization anchor after a corrupt span.
const MAGIC: [u8; 4] = *b"OCQ\n";

/// Upper bound on a single frame's payload. Fingerprints and canonical
/// forms are a few KiB at most in any real workload; a length field beyond
/// this is treated as corruption rather than an instruction to allocate.
const MAX_PAYLOAD: usize = 1 << 24;

/// Body tag of a schema frame.
const SCHEMA_FRAME: u8 = 0;

/// Body tag of a verdict frame.
const VERDICT_FRAME: u8 = 1;

/// File name of the verdict log inside the cache directory.
pub(crate) const LOG_NAME: &str = "decisions.log";

/// File name of the single-writer lock marker inside the cache directory.
pub(crate) const LOCK_NAME: &str = "lock";

/// One decoded frame of the running version, borrowing its text from the
/// log image it was scanned from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Frame<'a> {
    /// A schema the verdict frames name by its [`schema_id`].
    Schema {
        /// Full rendered schema description (the schema fingerprint).
        schema: &'a str,
        /// Rendered constraint block (the theory fingerprint).
        theory: &'a str,
    },
    /// One verdict under the schema whose [`schema_id`] is `id`.
    Verdict {
        /// The [`schema_id`] of the verdict's schema.
        id: u64,
        /// The verdict — negative results are frames too, they are exactly
        /// as expensive to recompute.
        holds: bool,
        /// `CanonicalQuery::to_wire` of the left query.
        q1: &'a str,
        /// `CanonicalQuery::to_wire` of the right query.
        q2: &'a str,
    },
}

/// 64-bit FNV-1a over the payload. Not cryptographic — it guards against
/// torn writes and bit rot, not adversaries (the cache directory is as
/// trusted as the binary itself).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The id verdict frames name a schema by: FNV-1a 64 over its two texts,
/// each length-prefixed as in the schema frame. A content id rather than a
/// counter, so it cannot be rebound: logs may be spliced or concatenated
/// and a verdict still reads only under its own schema.
pub(crate) fn schema_id(schema: &str, theory: &str) -> u64 {
    let mut bytes = Vec::with_capacity(8 + schema.len() + theory.len());
    push_str(&mut bytes, schema);
    push_str(&mut bytes, theory);
    fnv1a64(&bytes)
}

/// Append `payload` to `out` as one complete frame (magic, length,
/// payload, checksum).
pub(crate) fn seal(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Append `frame` to `out`, stamped with `version`.
pub(crate) fn encode_versioned(frame: &Frame<'_>, version: u32, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(64);
    payload.extend_from_slice(&version.to_le_bytes());
    match *frame {
        Frame::Schema { schema, theory } => {
            payload.push(SCHEMA_FRAME);
            push_str(&mut payload, schema);
            push_str(&mut payload, theory);
        }
        Frame::Verdict { id, holds, q1, q2 } => {
            payload.push(VERDICT_FRAME);
            payload.extend_from_slice(&id.to_le_bytes());
            payload.push(u8::from(holds));
            push_str(&mut payload, q1);
            push_str(&mut payload, q2);
        }
    }
    seal(&payload, out);
}

/// Append `frame` to `out`, stamped with the running
/// [`ENGINE_CACHE_VERSION`].
pub(crate) fn encode(frame: &Frame<'_>, out: &mut Vec<u8>) {
    encode_versioned(frame, ENGINE_CACHE_VERSION, out);
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(bytes.get(*pos..pos.checked_add(4)?)?.try_into().ok()?);
    *pos += 4;
    Some(v)
}

fn read_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let len = read_u32(bytes, pos)? as usize;
    let s = std::str::from_utf8(bytes.get(*pos..pos.checked_add(len)?)?).ok()?;
    *pos += len;
    Some(s)
}

/// Decode the body of a running-version payload (past the version).
fn decode_body(payload: &[u8], mut pos: usize) -> Option<Frame<'_>> {
    let kind = *payload.get(pos)?;
    pos += 1;
    let frame = match kind {
        SCHEMA_FRAME => Frame::Schema {
            schema: read_str(payload, &mut pos)?,
            theory: read_str(payload, &mut pos)?,
        },
        VERDICT_FRAME => {
            let id = u64::from_le_bytes(payload.get(pos..pos + 8)?.try_into().ok()?);
            pos += 8;
            let holds = match *payload.get(pos)? {
                0 => false,
                1 => true,
                _ => return None,
            };
            pos += 1;
            Frame::Verdict {
                id,
                holds,
                q1: read_str(payload, &mut pos)?,
                q2: read_str(payload, &mut pos)?,
            }
        }
        _ => return None,
    };
    (pos == payload.len()).then_some(frame)
}

/// What a full-log scan found besides the running-version frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ScanReport {
    /// Contiguous corrupt spans skipped (bad magic runs, checksum
    /// failures, truncated tails, undecodable payloads). One span may hide
    /// any number of destroyed frames; the count is a health signal, not
    /// an inventory.
    pub corrupt_spans: u64,
    /// Intact frames written under another [`ENGINE_CACHE_VERSION`],
    /// skipped without decoding their bodies.
    pub stale: u64,
}

/// One checksummed payload at `pos`, and the offset just past its frame.
fn next_payload(bytes: &[u8], pos: usize) -> Option<(&[u8], usize)> {
    if bytes.get(pos..pos + MAGIC.len())? != MAGIC {
        return None;
    }
    let mut p = pos + MAGIC.len();
    let len = read_u32(bytes, &mut p)? as usize;
    if len > MAX_PAYLOAD {
        return None;
    }
    let payload = bytes.get(p..p + len)?;
    p += len;
    let sum = u64::from_le_bytes(bytes.get(p..p + 8)?.try_into().ok()?);
    (fnv1a64(payload) == sum).then_some((payload, p + 8))
}

/// Scan a log image, recovering every intact running-version frame in
/// append order. Infallible by design: anything unreadable is skipped and
/// counted.
pub(crate) fn scan_log(bytes: &[u8]) -> (Vec<Frame<'_>>, ScanReport) {
    let mut frames = Vec::new();
    let mut report = ScanReport::default();
    let mut pos = 0;
    let mut in_corrupt_span = false;
    while pos < bytes.len() {
        let step = next_payload(bytes, pos).and_then(|(payload, next)| {
            let mut p = 0;
            let version = read_u32(payload, &mut p)?;
            if version != ENGINE_CACHE_VERSION {
                return Some((None, next));
            }
            Some((Some(decode_body(payload, p)?), next))
        });
        match step {
            Some((frame, next)) => {
                match frame {
                    Some(f) => frames.push(f),
                    None => report.stale += 1,
                }
                pos = next;
                in_corrupt_span = false;
            }
            None => {
                // Slide one byte and resync on the next magic; count each
                // contiguous bad run once.
                if !in_corrupt_span {
                    report.corrupt_spans += 1;
                    in_corrupt_span = true;
                }
                pos += 1;
            }
        }
    }
    (frames, report)
}

/// The append handle for a verdict log: owns the open file and knows how
/// to rewrite it in place (compaction).
pub(crate) struct LogWriter {
    file: File,
    path: PathBuf,
}

impl LogWriter {
    /// Open (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> io::Result<LogWriter> {
        let file = File::options().append(true).create(true).open(path)?;
        Ok(LogWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append encoded frames as a single `write_all` — a crash mid-call
    /// leaves a truncated tail frame that [`scan_log`] skips.
    pub fn append(&mut self, frames: &[u8]) -> io::Result<()> {
        self.file.write_all(frames)
    }

    /// Rewrite the log to exactly `image` (compaction): write a sibling
    /// temporary file, fsync it, atomically rename it over the log, and
    /// reopen the append handle. On any failure the original log is left
    /// untouched (the rename is the commit point).
    pub fn rewrite(&mut self, image: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("log.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(image)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = File::options().append(true).open(&self.path)?;
        Ok(())
    }
}

/// The held single-writer lock on a cache directory. On Linux the flock
/// lives exactly as long as this handle's file (or the owning process);
/// on other platforms the marker file is removed on drop, best-effort.
pub(crate) struct DirLock {
    _file: File,
    #[cfg(not(target_os = "linux"))]
    path: PathBuf,
}

#[cfg(not(target_os = "linux"))]
impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Acquire the single-writer lock for `dir`. `Ok(None)` means another
/// writer holds it — the caller degrades to a memory-only cache; it never
/// corrupts the other writer's log.
pub(crate) fn acquire_dir_lock(dir: &Path) -> io::Result<Option<DirLock>> {
    let path = dir.join(LOCK_NAME);
    let (file, created) = match File::options().write(true).create_new(true).open(&path) {
        Ok(f) => (f, true),
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            (File::options().write(true).open(&path)?, false)
        }
        Err(e) => return Err(e),
    };
    if !crate::poll::try_exclusive_lock(&file, created)? {
        return Ok(None);
    }
    Ok(Some(DirLock {
        _file: file,
        #[cfg(not(target_os = "linux"))]
        path,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema frame followed by `n` verdicts under it, as frames and as
    /// their encoded image, with the offset where each frame starts.
    fn sample_log(n: u32) -> (Vec<Frame<'static>>, Vec<u8>, Vec<usize>) {
        let mut frames = vec![Frame::Schema {
            schema: "class C {}\n",
            theory: "",
        }];
        let id = schema_id("class C {}\n", "");
        const WIRES: [&str; 4] = ["v1;r0:0", "v1;r0:1", "v1;r0:2", "v1;r0:3"];
        for i in 0..n as usize {
            frames.push(Frame::Verdict {
                id,
                holds: i % 2 == 0,
                q1: WIRES[i % WIRES.len()],
                q2: "v1",
            });
        }
        let mut image = Vec::new();
        let mut offsets = Vec::new();
        for f in &frames {
            offsets.push(image.len());
            encode(f, &mut image);
        }
        (frames, image, offsets)
    }

    #[test]
    fn records_round_trip_through_the_frame_codec() {
        let (frames, image, _) = sample_log(4);
        let (back, report) = scan_log(&image);
        assert_eq!(back, frames);
        assert_eq!(report, ScanReport::default());
    }

    #[test]
    fn a_truncated_tail_loses_only_the_last_record() {
        let (frames, mut image, offsets) = sample_log(3);
        // Cut mid-way through the final frame, as a crash during the last
        // append would.
        image.truncate(offsets[3] + 9);
        let (back, report) = scan_log(&image);
        assert_eq!(back, frames[..3]);
        assert_eq!(report.corrupt_spans, 1);
    }

    #[test]
    fn a_checksum_failure_skips_one_record_and_resyncs() {
        let (frames, mut image, offsets) = sample_log(3);
        // Flip one payload byte inside the second verdict.
        image[offsets[2] + MAGIC.len() + 4 + 2] ^= 0xff;
        let (back, report) = scan_log(&image);
        assert_eq!(back, [frames[0], frames[1], frames[3]]);
        assert_eq!(report.corrupt_spans, 1);
    }

    #[test]
    fn garbage_prefixes_and_interludes_are_skipped() {
        let (frames, image, offsets) = sample_log(1);
        let mut log = b"not a log at all ".to_vec();
        log.extend_from_slice(&image[..offsets[1]]);
        log.extend_from_slice(b"OCQ"); // a teasing partial magic
        log.extend_from_slice(&image[offsets[1]..]);
        let (back, report) = scan_log(&log);
        assert_eq!(back, frames);
        assert_eq!(report.corrupt_spans, 2);
    }

    #[test]
    fn an_absurd_length_field_is_corruption_not_an_allocation() {
        let (frames, image, _) = sample_log(1);
        let mut log = MAGIC.to_vec();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&image);
        let (back, report) = scan_log(&log);
        assert_eq!(back, frames);
        assert_eq!(report.corrupt_spans, 1);
    }

    #[test]
    fn empty_and_pure_garbage_logs_scan_to_nothing() {
        assert_eq!(scan_log(&[]).0.len(), 0);
        let garbage = vec![0xabu8; 4096];
        let (frames, report) = scan_log(&garbage);
        assert!(frames.is_empty());
        assert_eq!(report.corrupt_spans, 1);
    }

    #[test]
    fn frames_of_another_version_are_stale_not_decoded() {
        // A record in the earlier one-frame-per-record layout (version 2):
        // version, verdict byte, then schema, theory, q1 and q2 texts.
        let mut v2 = 2u32.to_le_bytes().to_vec();
        v2.push(1);
        for text in ["class C {}\n", "", "v1;r0:0", "v1"] {
            push_str(&mut v2, text);
        }
        let mut log = Vec::new();
        seal(&v2, &mut log);
        // A well-formed frame of this grammar under a later version.
        encode_versioned(
            &Frame::Schema {
                schema: "class C {}\n",
                theory: "",
            },
            ENGINE_CACHE_VERSION + 1,
            &mut log,
        );
        let (frames, report) = scan_log(&log);
        assert!(frames.is_empty(), "{frames:?}");
        assert_eq!(
            report,
            ScanReport {
                corrupt_spans: 0,
                stale: 2
            }
        );
    }

    #[test]
    fn a_verdict_frame_is_a_few_dozen_bytes_plus_its_wire_forms() {
        let (_, image, offsets) = sample_log(1);
        let verdict = image.len() - offsets[1];
        // magic, length, version, tag, id, verdict, two lengths, checksum.
        assert_eq!(
            verdict,
            4 + 4 + 4 + 1 + 8 + 1 + 4 + 4 + 8 + "v1;r0:0".len() + "v1".len()
        );
    }

    #[test]
    fn writer_appends_and_rewrites_atomically() {
        let dir = std::env::temp_dir().join(format!("oocq-persist-{}-writer", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(LOG_NAME);
        let (frames, image, offsets) = sample_log(5);
        let mut w = LogWriter::open(&path).unwrap();
        w.append(&image).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(scan_log(&bytes).0.len(), 6);
        // Compaction rewrites to the surviving subset only.
        w.rewrite(&image[..offsets[2]]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let (back, report) = scan_log(&bytes);
        assert_eq!(back, frames[..2]);
        assert_eq!(report, ScanReport::default());
        // The append handle survived the rename.
        w.append(&image[offsets[5]..]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(scan_log(&bytes).0, [frames[0], frames[1], frames[5]]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_lock_excludes_a_second_writer() {
        let dir = std::env::temp_dir().join(format!("oocq-persist-{}-lock", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let first = acquire_dir_lock(&dir).unwrap();
        assert!(first.is_some());
        // Second writer in the same (or any) process is refused, not hung.
        let second = acquire_dir_lock(&dir).unwrap();
        assert!(second.is_none(), "lock must be exclusive");
        drop(first);
        // On Linux the flock dies with the handle; elsewhere the marker is
        // removed on drop — either way the lock is reacquirable.
        let third = acquire_dir_lock(&dir).unwrap();
        assert!(third.is_some(), "lock must be reacquirable after release");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
