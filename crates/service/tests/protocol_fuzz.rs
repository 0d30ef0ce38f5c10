//! Deterministic mutation sweep over protocol request lines.
//!
//! Valid request lines — every verb, escaped multi-line payloads, and
//! `limit=` options — are mutated with byte flips, truncations, arguments
//! spliced in from other lines, stray `\`-escapes and `limit=` prefixes.
//! For every mutant the sweep asserts that [`parse_request`] does not
//! panic; that every response it could become — the parse error or a text
//! the request carries, rendered `ok` or `err`, with or without stats —
//! holds no raw newline; that `unescape(escape(s)) == s` for the mutant
//! and every text it carries; and that `limit=` wraps exactly one
//! decision request. A failure names the seed and the mutant. Tier-1 runs
//! the short seed range; `scripts/ci.sh` runs the ignored long one
//! (`cargo test --release -p oocq-service --test protocol_fuzz --
//! --ignored`).

use oocq_gen::{Rng, StdRng};
use oocq_service::{escape, parse_request, render_response, unescape, Request, RequestStats};
use std::panic::{catch_unwind, AssertUnwindSafe};

const SHORT_SEEDS: u64 = 48;
const LONG_SEEDS: u64 = 5000;
const MUTANTS_PER_LINE: usize = 3;

/// Prefixes a mutant may gain: valid, zero, negative, overflowing,
/// non-numeric, empty and nested limits.
const LIMITS: &[&str] = &[
    "limit=5 ",
    "limit=0 ",
    "limit=-1 ",
    "limit=99999999999999999999 ",
    "limit=x ",
    "limit= ",
    "limit=3 limit=4 ",
    "limit=1",
];

/// Stray escapes: a lone backslash, unknown escapes, an escaped newline
/// and an escaped backslash.
const ESCAPES: &[&str] = &["\\", "\\x", "\\n", "\\\\", "\\ ", "\\é"];

/// Valid request lines, one per verb and option.
fn bases() -> Vec<String> {
    let schema = "class C { items: {C}; }\nclass D : C {}";
    let query = "{ x | exists y: x in C & y in C & y in x.items }";
    let program = "schema { class C {} }\nquery A = { x | x in C }\ncheck A <= A";
    let mut lines = vec![
        format!("schema s {}", escape(schema)),
        format!("query s Q {}", escape(query)),
        format!("run {}", escape(program)),
    ];
    lines.extend(
        "ping;quit;stats on;stats off;stats show;query s R { x | x in D };\
         constraint s disjoint C D;satisfiable s Q;contains s Q R;equiv s Q R;\
         explain s Q R;expand s Q;minimize s Q;limit=50 contains s Q R;limit=7 minimize s Q"
            .split(';')
            .map(str::to_owned),
    );
    lines
}

/// One mutant of `line`; `others` supplies arguments to splice in.
fn mutate(rng: &mut StdRng, line: &str, others: &[String]) -> String {
    let mut b = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let len = b.len();
        match rng.gen_range(0..5) {
            0 if len > 0 => {
                let i = rng.gen_range(0..len);
                b[i] ^= 1 << rng.gen_range(0..8);
            }
            1 if len > 0 => b.truncate(rng.gen_range(0..len)),
            2 => {
                // Splice a whitespace-separated argument of another line
                // in at a random position.
                let other = &others[rng.gen_range(0..others.len())];
                let words: Vec<&str> = other.split(' ').collect();
                let word = words[rng.gen_range(0..words.len())];
                let i = rng.gen_range(0..=len);
                b.splice(i..i, format!(" {word}").bytes());
            }
            3 => {
                let i = rng.gen_range(0..=len);
                let esc = ESCAPES[rng.gen_range(0..ESCAPES.len())];
                b.splice(i..i, esc.bytes());
            }
            _ => {
                let limit = LIMITS[rng.gen_range(0..LIMITS.len())];
                b.splice(0..0, limit.bytes());
            }
        }
    }
    // The reactor decodes a line the same lossy way.
    String::from_utf8_lossy(&b).into_owned()
}

/// The texts a parsed request carries.
fn carried(req: &Request) -> Vec<&str> {
    match req {
        Request::DefineSchema { session, text } | Request::DefineConstraint { session, text } => {
            vec![session, text]
        }
        Request::DefineQuery {
            session,
            name,
            text,
        } => vec![session, name, text],
        Request::Satisfiable { session, query }
        | Request::Expand { session, query }
        | Request::Minimize { session, query } => vec![session, query],
        Request::Contains { session, q1, q2 }
        | Request::Equivalent { session, q1, q2 }
        | Request::Explain { session, q1, q2 } => vec![session, q1, q2],
        Request::Run { text } => vec![text],
        Request::Limited { inner, .. } => carried(inner),
        _ => Vec::new(),
    }
}

/// Every response a payload could become stays on one line and unescapes
/// back to the payload.
fn check_payload(payload: &str) -> Result<(), String> {
    if unescape(&escape(payload)) != payload {
        return Err(format!("escape does not round-trip {payload:?}"));
    }
    let stats = RequestStats::default();
    for result in [Ok(payload.to_owned()), Err(payload.to_owned())] {
        for st in [None, Some(&stats)] {
            let line = render_response(7, &result, st);
            if line.contains('\n') {
                return Err(format!("response holds a raw newline: {line:?}"));
            }
        }
    }
    Ok(())
}

/// Parse one mutant and check the sweep's invariants; `Ok` says whether
/// it parsed.
fn check(line: &str) -> Result<bool, String> {
    check_payload(line)?;
    match parse_request(line) {
        Err(msg) => check_payload(&msg).map(|()| false),
        Ok(req) => {
            if let Request::Limited { inner, .. } = &req {
                if matches!(**inner, Request::Limited { .. }) || !inner.is_decision() {
                    return Err(format!("`limit=` wraps {inner:?}"));
                }
            }
            for text in carried(&req) {
                check_payload(text)?;
            }
            Ok(true)
        }
    }
}

/// Mutate every base line under each seed in `0..seeds` and check every
/// mutant.
fn sweep(seeds: u64) {
    let bases = bases();
    for base in &bases {
        assert_eq!(check(base), Ok(true), "base line {base:?}");
    }
    let (mut parsed, mut total) = (0usize, 0usize);
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        for base in &bases {
            for _ in 0..MUTANTS_PER_LINE {
                let line = mutate(&mut rng, base, &bases);
                let outcome = catch_unwind(AssertUnwindSafe(|| check(&line)))
                    .unwrap_or_else(|_| Err("parse_request panicked".to_owned()));
                match outcome {
                    Ok(accepted) => parsed += usize::from(accepted),
                    Err(why) => panic!("seed {seed}: {why}\nline: {line:?}"),
                }
                total += 1;
            }
        }
    }
    // Both sides of the parser must be exercised.
    assert!(
        parsed * 20 > total && parsed < total,
        "{parsed} of {total} mutants parsed"
    );
}

#[test]
fn mutated_request_lines_never_panic_and_render_on_one_line() {
    sweep(SHORT_SEEDS);
}

#[test]
#[ignore = "long sweep; scripts/ci.sh runs it in release"]
fn long_protocol_mutation_sweep() {
    sweep(LONG_SEEDS);
}
