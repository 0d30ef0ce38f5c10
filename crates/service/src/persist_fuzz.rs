//! Deterministic mutation sweep over decision-log images.
//!
//! Each seed builds a log of schema and verdict frames (plus a second,
//! independent log to splice from), then mutates it with bit flips,
//! truncations, spliced frames, removed schema frames (dangling ids) and
//! repeated schema frames (duplicate ids). For every mutant the sweep
//! asserts:
//!
//! * neither [`persist::scan_log`] nor a cache open panics;
//! * every verdict frame the scan recovers is one that was written;
//! * every verdict the opened cache holds was written under the schema it
//!   is keyed by, and a second open (after the first one's compaction)
//!   holds the same verdicts;
//! * `encode`→`scan` is a fixpoint over the recovered frames.
//!
//! Each seed drives one `StdRng`, so a failure names the seed that
//! reproduces it. The default test's short seed range runs in tier-1; the
//! ignored long sweep (`cargo test --release -p oocq-service --lib --
//! --ignored persist_fuzz`, run by `scripts/ci.sh`) covers a longer one.

use crate::cache::CanonicalDecisionCache;
use crate::persist::{self, Frame};
use oocq_gen::{Rng, StdRng};
use std::collections::HashSet;
use std::path::PathBuf;

const SHORT_SEEDS: u64 = 48;
const LONG_SEEDS: u64 = 5000;

/// A verdict as the cache keys it: schema text, theory text, both wire
/// forms, and the verdict.
type Fact = (String, String, String, String, bool);

/// One built log: its image, the byte range of each frame, and what it
/// holds.
struct Log {
    image: Vec<u8>,
    frames: Vec<std::ops::Range<usize>>,
    schema_frames: Vec<std::ops::Range<usize>>,
    facts: HashSet<Fact>,
}

/// A valid canonical wire form: a chain of `k` variables over class `c`.
fn wire(rng: &mut StdRng) -> String {
    let k = rng.gen_range(1..=4);
    let c = rng.gen_range(0..6);
    let mut out = format!("v{k}");
    for v in 0..k {
        out.push_str(&format!(";r{v}:{c}"));
    }
    for v in 1..k {
        out.push_str(&format!(";n{}~{v}", v - 1));
    }
    out
}

fn build(rng: &mut StdRng, tag: &str) -> Log {
    let schemas: Vec<(String, String)> = (0..rng.gen_range(1..=3))
        .map(|i| {
            let theory = if rng.gen_bool(0.3) {
                "constraint disjoint P Q;\n".to_owned()
            } else {
                String::new()
            };
            (
                format!("class {tag}{i} {{}}\nclass P {{}}\nclass Q {{}}\n"),
                theory,
            )
        })
        .collect();
    let mut log = Log {
        image: Vec::new(),
        frames: Vec::new(),
        schema_frames: Vec::new(),
        facts: HashSet::new(),
    };
    let mut logged = vec![false; schemas.len()];
    let push = |log: &mut Log, frame: &Frame<'_>| {
        let start = log.image.len();
        persist::encode(frame, &mut log.image);
        log.frames.push(start..log.image.len());
        if matches!(frame, Frame::Schema { .. }) {
            log.schema_frames.push(start..log.image.len());
        }
    };
    for _ in 0..rng.gen_range(1..=12) {
        let s = rng.gen_range(0..schemas.len());
        let (schema, theory) = &schemas[s];
        if !logged[s] {
            logged[s] = true;
            push(&mut log, &Frame::Schema { schema, theory });
        }
        let (q1, q2, holds) = (wire(rng), wire(rng), rng.gen_bool(0.5));
        push(
            &mut log,
            &Frame::Verdict {
                id: persist::schema_id(schema, theory),
                holds,
                q1: &q1,
                q2: &q2,
            },
        );
        log.facts
            .insert((schema.clone(), theory.clone(), q1, q2, holds));
    }
    log
}

/// Apply one to three random mutations to `image`.
fn mutate(rng: &mut StdRng, log: &Log, other: &Log) -> Vec<u8> {
    let mut image = log.image.clone();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..=image.len());
        match rng.gen_range(0..6) {
            0 if !image.is_empty() => {
                let i = rng.gen_range(0..image.len());
                image[i] ^= 1 << rng.gen_range(0..8);
            }
            1 => image.truncate(at),
            // A frame of this log or the other one, spliced in anywhere.
            2 | 3 => {
                let src = if rng.gen_bool(0.5) { log } else { other };
                let range = src.frames[rng.gen_range(0..src.frames.len())].clone();
                image.splice(at..at, src.image[range].iter().copied());
            }
            // A schema frame removed: its verdicts' ids dangle.
            4 => {
                let range = log.schema_frames[rng.gen_range(0..log.schema_frames.len())].clone();
                let bytes = &log.image[range];
                if let Some(pos) = image.windows(bytes.len()).position(|w| w == bytes) {
                    image.drain(pos..pos + bytes.len());
                }
            }
            // A schema frame repeated: a duplicate id.
            _ => {
                let range = log.schema_frames[rng.gen_range(0..log.schema_frames.len())].clone();
                image.splice(at..at, log.image[range].iter().copied());
            }
        }
    }
    image
}

fn check(seed: u64, dir: &PathBuf) {
    let mut rng = StdRng::seed_from_u64(seed);
    let log = build(&mut rng, "A");
    let other = build(&mut rng, "B");
    let mutant = mutate(&mut rng, &log, &other);

    let (frames, _) = persist::scan_log(&mutant);
    let written: HashSet<&Fact> = log.facts.iter().chain(&other.facts).collect();
    let written_frames: HashSet<(u64, bool, &str, &str)> = written
        .iter()
        .map(|(s, t, q1, q2, h)| (persist::schema_id(s, t), *h, q1.as_str(), q2.as_str()))
        .collect();
    for f in &frames {
        if let Frame::Verdict { id, holds, q1, q2 } = *f {
            assert!(
                written_frames.contains(&(id, holds, q1, q2)),
                "seed {seed}: recovered a verdict frame never written: {f:?}"
            );
        }
    }

    // encode→scan is a fixpoint.
    let mut image = Vec::new();
    for f in &frames {
        persist::encode(f, &mut image);
    }
    let (again, report) = persist::scan_log(&image);
    assert_eq!(again, frames, "seed {seed}: encode→scan changed the frames");
    assert_eq!(report, persist::ScanReport::default(), "seed {seed}");
    let mut twice = Vec::new();
    for f in &again {
        persist::encode(f, &mut twice);
    }
    assert_eq!(twice, image, "seed {seed}: encode is not stable");

    // A cache open recovers only written verdicts, each under its own
    // schema, and its compaction loses none of them.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(persist::LOG_NAME), &mutant).unwrap();
    let open = || {
        let cache = CanonicalDecisionCache::with_persistence(64, dir, 4096).unwrap();
        let mut facts = cache.tier2_facts();
        facts.sort();
        facts
    };
    let first = open();
    for fact in &first {
        assert!(
            written.contains(fact),
            "seed {seed}: the cache holds a verdict never written under its schema: {fact:?}"
        );
    }
    assert_eq!(open(), first, "seed {seed}: reopening changed the verdicts");
}

fn sweep(seeds: u64) {
    let dir =
        std::env::temp_dir().join(format!("oocq-persist-fuzz-{}-{seeds}", std::process::id()));
    for seed in 0..seeds {
        check(seed, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutated_logs_never_panic_or_misattribute_a_verdict() {
    sweep(SHORT_SEEDS);
}

#[test]
#[ignore = "long sweep; scripts/ci.sh runs it in release"]
fn long_log_mutation_sweep() {
    sweep(LONG_SEEDS);
}
