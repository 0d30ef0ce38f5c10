//! Deterministic mutation sweep over the parsers.
//!
//! Valid texts (the `tests/corpus` programs, their schemas and desugared
//! queries, and Display renderings of generated queries) are mutated with
//! byte flips, deletions, truncations, and inserted multibyte chars and
//! punctuation. For every mutant the sweep asserts:
//!
//! * no parser panics;
//! * every error position lies inside the input;
//! * every text that parses round-trips Display→parse to an equal value.
//!
//! Each seed drives one `StdRng`, so a failure names the seed and the
//! mutant text that reproduces it. The default test's short seed range
//! runs in tier-1; the ignored long sweep (`cargo test --release --test
//! parser_fuzz -- --ignored`, run by `scripts/ci.sh`) covers a longer one.

use oocq::gen::{random_positive, QueryParams, Rng, StdRng};
use oocq::{parse_program, parse_query, parse_schema, parse_union, ParseError, Schema};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const SHORT_SEEDS: u64 = 48;
const LONG_SEEDS: u64 = 5000;
const MUTANTS_PER_TEXT: usize = 3;

/// Inserted fragments: the DSL's punctuation, multibyte letters and
/// whitespace, a non-letter multibyte char, and keywords.
const INSERTS: &[&str] = &[
    "{", "}", "|", "&", ".", ",", ":", ";", "=", "!", "<", "/", "é", "ñ", "Ω", "∀", "😀", "\u{a0}",
    "\u{2028}", "\n", " ", "_q0", "not", "in", "union", "exists", "true",
];

/// What a text is parsed as, with the schema a query resolves against.
enum Kind {
    Schema,
    Query(Schema),
    Union(Schema),
    Program,
}

struct Base {
    kind: Kind,
    text: String,
}

fn bases() -> Vec<Base> {
    let mut out = Vec::new();
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "oocq"))
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&text).unwrap();
        // Desugared renderings carry the `_q{n}` names of path intermediates.
        for (_, q) in &program.queries {
            out.push(Base {
                kind: Kind::Query(program.schema.clone()),
                text: q.display(&program.schema).to_string(),
            });
        }
        out.push(Base {
            kind: Kind::Schema,
            text: program.schema.to_string(),
        });
        out.push(Base {
            kind: Kind::Program,
            text,
        });
    }
    let mut rng = StdRng::seed_from_u64(0);
    for schema in [
        oocq::samples::vehicle_rental(),
        oocq::samples::n1_partition(),
        oocq::samples::example_31(),
    ] {
        let render = |rng: &mut StdRng| {
            random_positive(rng, &schema, &QueryParams { vars: 5, atoms: 7 })
                .display(&schema)
                .to_string()
        };
        for _ in 0..3 {
            out.push(Base {
                kind: Kind::Query(schema.clone()),
                text: render(&mut rng),
            });
        }
        let union = format!("{} union {}", render(&mut rng), render(&mut rng));
        out.push(Base {
            kind: Kind::Union(schema.clone()),
            text: union,
        });
    }
    out
}

fn mutate(rng: &mut StdRng, text: &str) -> String {
    let mut b = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=2) {
        let len = b.len();
        match rng.gen_range(0..4) {
            0 if len > 0 => {
                let i = rng.gen_range(0..len);
                b[i] ^= 1 << rng.gen_range(0..8);
            }
            1 if len > 0 => {
                let i = rng.gen_range(0..len);
                let k = rng.gen_range(1..=4).min(len - i);
                b.drain(i..i + k);
            }
            2 if len > 0 => b.truncate(rng.gen_range(0..len)),
            _ => {
                let i = rng.gen_range(0..=len);
                let ins = INSERTS[rng.gen_range(0..INSERTS.len())];
                b.splice(i..i, ins.bytes());
            }
        }
    }
    // A flip inside a multibyte char leaves invalid UTF-8; the lossy
    // decode turns it into U+FFFD, one more multibyte char.
    String::from_utf8_lossy(&b).into_owned()
}

/// The chars on each line of `text`, split the way the lexer counts lines.
fn line_widths(text: &str) -> Vec<usize> {
    text.split('\n').map(|l| l.chars().count()).collect()
}

/// Positions must land on a line of the input and at most one column past
/// its last char; a program's errors inside its schema block or query
/// bodies are positioned in the whole program text, so this holds there
/// too.
fn check_position(text: &str, e: &ParseError) -> Result<(), String> {
    let widths = line_widths(text);
    let line_ok = (1..=widths.len()).contains(&e.line);
    let width = if line_ok { widths[e.line - 1] } else { 0 };
    if line_ok && (1..=width + 1).contains(&e.col) {
        Ok(())
    } else {
        Err(format!("error position outside the input: {e}"))
    }
}

/// Parse one mutant and check the sweep's invariants; `Ok` says whether
/// the mutant parsed.
fn check(kind: &Kind, text: &str) -> Result<bool, String> {
    let parsed = match kind {
        Kind::Schema => parse_schema(text).map(|s| {
            let shown = s.to_string();
            match parse_schema(&shown) {
                Ok(again) if again.to_string() == shown => Ok(()),
                other => Err(format!("schema display does not reparse: {other:?}")),
            }
        }),
        Kind::Query(s) => parse_query(s, text).map(|q| {
            let shown = q.display(s).to_string();
            match parse_query(s, &shown) {
                Ok(again) if again == q => Ok(()),
                other => Err(format!("`{shown}` reparses as {other:?}")),
            }
        }),
        Kind::Union(s) => parse_union(s, text).map(|u| {
            let shown = u.display(s).to_string();
            match parse_union(s, &shown) {
                Ok(again) if again == u => Ok(()),
                other => Err(format!("`{shown}` reparses as {other:?}")),
            }
        }),
        Kind::Program => parse_program(text).map(|p| {
            for (name, q) in &p.queries {
                let shown = q.display(&p.schema).to_string();
                match parse_query(&p.schema, &shown) {
                    Ok(again) if &again == q => {}
                    other => return Err(format!("query {name}: `{shown}` reparses as {other:?}")),
                }
            }
            Ok(())
        }),
    };
    match parsed {
        Ok(round_trip) => round_trip.map(|()| true),
        Err(e) => check_position(text, &e).map(|()| false),
    }
}

/// Mutate every base text under each seed in `0..seeds` and check every
/// mutant.
fn sweep(seeds: u64) {
    let bases = bases();
    let (mut parsed, mut total) = (0usize, 0usize);
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        for base in &bases {
            for _ in 0..MUTANTS_PER_TEXT {
                let text = mutate(&mut rng, &base.text);
                let outcome = catch_unwind(AssertUnwindSafe(|| check(&base.kind, &text)))
                    .unwrap_or_else(|_| Err("parser panicked".to_owned()));
                match outcome {
                    Ok(accepted) => parsed += usize::from(accepted),
                    Err(why) => panic!("seed {seed}: {why}\ninput: {text:?}"),
                }
                total += 1;
            }
        }
    }
    // A sweep whose mutants never parse would check nothing but errors.
    assert!(
        parsed * 50 > total,
        "only {parsed} of {total} mutants parsed"
    );
}

#[test]
fn mutated_texts_never_panic_and_round_trip() {
    sweep(SHORT_SEEDS);
}

#[test]
#[ignore = "long sweep; scripts/ci.sh runs it in release"]
fn long_mutation_sweep() {
    sweep(LONG_SEEDS);
}

#[test]
fn a_check_without_a_right_operand_is_an_error() {
    // The operator slot is end of input: an error, never an index past
    // the token stream.
    let err = parse_program("schema { class C {} } query Q = { x | x in C } check Q").unwrap_err();
    assert_eq!(
        err.to_string(),
        "1:55: expected `<=` or `==` after `check`, found end of input"
    );
}
