//! The line-delimited request/response protocol of `oocq-serve`.
//!
//! Every request is one line; every response is one line. Multi-line
//! payloads (schema text, programs, transcripts) travel escaped: literal
//! newline ↔ `\n`, literal backslash ↔ `\\`.
//!
//! ```text
//! request  := ping | stats (on|off|show) | quit
//!           | schema <session> <escaped-schema-text>
//!           | query <session> <name> <escaped-query-text>
//!           | constraint <session> <escaped-constraint-text>
//!           | satisfiable <session> <query>
//!           | contains <session> <q1> <q2>
//!           | equiv <session> <q1> <q2>
//!           | explain <session> <q1> <q2>
//!           | expand <session> <query>
//!           | minimize <session> <query>
//!           | run <escaped-program-text>
//!           | limit=<n> <decision-request>
//! response := [<seq>] ok <escaped-payload>[ # <stats>]
//!           | [<seq>] err <escaped-message>[ # <stats>]
//! ```
//!
//! A decision request may carry a leading `limit=<n>` option: the engine
//! charges one work unit per Theorem 3.1 branch (and per §4 subquery/pair)
//! and answers `err timeout …` once `n` units are spent, leaving the
//! session, cache, and connection fully usable. The same mechanism backs
//! the connection-wide `OOCQ_DEADLINE_MS` wall-clock deadline.
//!
//! `<seq>` is the 0-based position of the request in the input stream;
//! responses are emitted in request order regardless of which worker
//! finished first. The optional ` # ` suffix (toggled with `stats on|off`,
//! default on) reports `cached=<hits> decided=<engine decisions>
//! wall_us=<microseconds> threads=<pool size>` for decision commands.

/// Escape a payload onto one line: `\` → `\\`, newline → `\n`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let _ = write_escaped(&mut out, s);
    out
}

/// [`escape`] into `out`, copying the runs between escaped characters
/// whole.
fn write_escaped(out: &mut impl std::fmt::Write, s: &str) -> std::fmt::Result {
    let mut rest = s;
    while let Some(i) = rest.find(['\\', '\n']) {
        out.write_str(&rest[..i])?;
        out.write_str(if rest.as_bytes()[i] == b'\\' {
            "\\\\"
        } else {
            "\\n"
        })?;
        rest = &rest[i + 1..];
    }
    out.write_str(rest)
}

/// Invert [`escape`]. Unknown escapes keep the escaped character; a
/// trailing lone backslash is kept literally. The runs between
/// backslashes are copied whole.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('\\') {
        out.push_str(&rest[..i]);
        let mut chars = rest[i + 1..].chars();
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// `ping` — liveness check, answers `ok pong`.
    Ping,
    /// `stats on|off` — toggle the ` # …` stats suffix for this connection.
    Stats(bool),
    /// `stats show` — one-line report of cache traffic, coalescing
    /// counters, and this connection's decision backlog. Answered inline
    /// (the counters are live; the response is *not* part of the
    /// deterministic-transcript contract).
    StatsShow,
    /// `quit` — drain in-flight work, then close the connection.
    Quit,
    /// `schema <session> <text>` — create/replace a named session.
    DefineSchema { session: String, text: String },
    /// `query <session> <name> <text>` — bind a named query in a session.
    DefineQuery {
        session: String,
        name: String,
        text: String,
    },
    /// `constraint <session> <text>` — add a constraint declaration (DSL
    /// syntax without the keyword, e.g. `disjoint A B`) to the session's
    /// schema, re-validating it and re-preparing every bound query.
    DefineConstraint { session: String, text: String },
    /// `satisfiable <session> <query>` — Proposition 2.1 branch report.
    Satisfiable { session: String, query: String },
    /// `contains <session> <q1> <q2>` — containment verdict.
    Contains {
        session: String,
        q1: String,
        q2: String,
    },
    /// `equiv <session> <q1> <q2>` — mutual containment.
    Equivalent {
        session: String,
        q1: String,
        q2: String,
    },
    /// `explain <session> <q1> <q2>` — rendered containment certificate.
    Explain {
        session: String,
        q1: String,
        q2: String,
    },
    /// `expand <session> <query>` — §2 expansion branches.
    Expand { session: String, query: String },
    /// `minimize <session> <query>` — §4 minimization.
    Minimize { session: String, query: String },
    /// `run <program>` — a full self-contained workbench program.
    Run { text: String },
    /// `limit=<n> <decision-request>` — the wrapped decision request under a
    /// work budget of `n` units; exhaustion answers `err timeout …`.
    Limited {
        /// Work-unit budget for this one request (positive).
        limit: u64,
        /// The wrapped decision request.
        inner: Box<Request>,
    },
}

impl Request {
    /// Does this request run engine decisions (and so belong on the worker
    /// pool), as opposed to mutating session state inline?
    pub fn is_decision(&self) -> bool {
        match self {
            Request::Ping
            | Request::Stats(_)
            | Request::StatsShow
            | Request::Quit
            | Request::DefineSchema { .. }
            | Request::DefineQuery { .. }
            | Request::DefineConstraint { .. } => false,
            Request::Limited { inner, .. } => inner.is_decision(),
            _ => true,
        }
    }
}

fn two_words(rest: &str) -> Option<(&str, &str)> {
    let rest = rest.trim();
    let (a, b) = rest.split_once(char::is_whitespace)?;
    Some((a, b.trim_start()))
}

/// The `N` arguments of `cmd`: the first `N - 1` whitespace-separated
/// words of `rest`, then the remainder verbatim (which must not be empty).
fn args<'a, const N: usize>(cmd: &str, rest: &'a str) -> Result<[&'a str; N], String> {
    let missing = || format!("`{cmd}` expects {N} arguments");
    let mut parts = [""; N];
    let mut rest = rest;
    for part in &mut parts[..N - 1] {
        let (word, tail) = two_words(rest).ok_or_else(missing)?;
        *part = word;
        rest = tail;
    }
    if rest.is_empty() {
        return Err(missing());
    }
    parts[N - 1] = rest;
    Ok(parts)
}

/// Parse one request line. Returns a human-readable error for malformed
/// input (the server reports it as an `err` response, it never kills the
/// connection).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if let Some(rest) = line.strip_prefix("limit=") {
        let (value, tail) = two_words(rest).ok_or("`limit=<n>` expects a request after it")?;
        let limit = value
            .parse::<u64>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("`limit=` expects a positive integer, got `{value}`"))?;
        let inner = parse_request(tail)?;
        if matches!(inner, Request::Limited { .. }) {
            return Err("`limit=` cannot be nested".to_owned());
        }
        if !inner.is_decision() {
            return Err("`limit=` applies only to decision requests".to_owned());
        }
        return Ok(Request::Limited {
            limit,
            inner: Box::new(inner),
        });
    }
    let (cmd, rest) = line
        .split_once(char::is_whitespace)
        .map(|(c, r)| (c, r.trim_start()))
        .unwrap_or((line, ""));
    match cmd {
        "" => Err("empty request".to_owned()),
        "ping" => Ok(Request::Ping),
        "quit" => Ok(Request::Quit),
        "stats" => match rest {
            "on" => Ok(Request::Stats(true)),
            "off" => Ok(Request::Stats(false)),
            "show" => Ok(Request::StatsShow),
            other => Err(format!(
                "`stats` expects `on`, `off`, or `show`, got `{other}`"
            )),
        },
        "schema" => {
            let [session, text] = args(cmd, rest)?;
            Ok(Request::DefineSchema {
                session: session.to_owned(),
                text: unescape(text),
            })
        }
        "query" => {
            let [session, name, text] = args(cmd, rest)?;
            Ok(Request::DefineQuery {
                session: session.to_owned(),
                name: name.to_owned(),
                text: unescape(text),
            })
        }
        "constraint" => {
            let [session, text] = args(cmd, rest)?;
            Ok(Request::DefineConstraint {
                session: session.to_owned(),
                text: unescape(text),
            })
        }
        "satisfiable" => {
            let [session, query] = args(cmd, rest)?;
            Ok(Request::Satisfiable {
                session: session.to_owned(),
                query: query.to_owned(),
            })
        }
        "contains" | "equiv" | "explain" => {
            let [session, q1, q2] = args(cmd, rest)?;
            let (session, q1, q2) = (session.to_owned(), q1.to_owned(), q2.to_owned());
            Ok(match cmd {
                "contains" => Request::Contains { session, q1, q2 },
                "equiv" => Request::Equivalent { session, q1, q2 },
                _ => Request::Explain { session, q1, q2 },
            })
        }
        "expand" => {
            let [session, query] = args(cmd, rest)?;
            Ok(Request::Expand {
                session: session.to_owned(),
                query: query.to_owned(),
            })
        }
        "minimize" => {
            let [session, query] = args(cmd, rest)?;
            Ok(Request::Minimize {
                session: session.to_owned(),
                query: query.to_owned(),
            })
        }
        "run" => {
            let [text] = args(cmd, rest)?;
            Ok(Request::Run {
                text: unescape(text),
            })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Per-request execution statistics, rendered as the ` # …` suffix.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestStats {
    /// Engine decisions answered from the decision cache.
    pub cached: u64,
    /// Engine decisions actually computed (branch-engine runs).
    pub decided: u64,
    /// Wall-clock time spent executing the request, in microseconds.
    pub wall_us: u64,
    /// Worker-pool size the request ran under.
    pub threads: usize,
}

/// Render one response line (without the trailing newline).
pub fn render_response(
    seq: u64,
    result: &Result<String, String>,
    stats: Option<&RequestStats>,
) -> String {
    let payload = match result {
        Ok(p) | Err(p) => p.len(),
    };
    let mut line = String::with_capacity(payload + 80);
    let _ = write_response(&mut line, seq, result, stats);
    line
}

/// [`render_response`] appended to a byte buffer, with no line of its own
/// in between: how the reactor answers a request whose response is next
/// in its connection's sequence.
pub(crate) fn render_into(
    out: &mut Vec<u8>,
    seq: u64,
    result: &Result<String, String>,
    stats: Option<&RequestStats>,
) {
    /// A `fmt::Write` view of a byte buffer.
    struct Bytes<'a>(&'a mut Vec<u8>);
    impl std::fmt::Write for Bytes<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.extend_from_slice(s.as_bytes());
            Ok(())
        }
    }
    let _ = write_response(&mut Bytes(out), seq, result, stats);
}

fn write_response(
    out: &mut impl std::fmt::Write,
    seq: u64,
    result: &Result<String, String>,
    stats: Option<&RequestStats>,
) -> std::fmt::Result {
    let (tag, payload) = match result {
        Ok(payload) => ("ok", payload),
        Err(msg) => ("err", msg),
    };
    write!(out, "[{seq}] {tag} ")?;
    write_escaped(out, payload)?;
    if let Some(st) = stats {
        write!(
            out,
            " # cached={} decided={} wall_us={} threads={}",
            st.cached, st.decided, st.wall_us, st.threads
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        for s in [
            "",
            "plain",
            "two\nlines",
            "back\\slash",
            "mix \\n literal\nand\\\nescaped",
            "trailing\n",
        ] {
            assert_eq!(unescape(&escape(s)), s, "round trip of {s:?}");
        }
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(unescape("lone\\"), "lone\\");
        assert_eq!(unescape("\\x"), "x");
    }

    /// The char-at-a-time escaping the run-copying [`escape`] and
    /// [`unescape`] replaced, as their reference.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
        out
    }

    fn unescape_by_char(s: &str) -> String {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        }
        out
    }

    #[test]
    fn run_copying_escapes_match_the_char_at_a_time_ones() {
        const ALPHABET: [char; 6] = ['\\', 'n', '\n', 'ÿ', 'a', ' '];
        // Every string of up to five chars over the alphabet.
        let mut texts = vec![String::new()];
        for len in 1..=5 {
            let start = texts.len() - ALPHABET.len().pow(len - 1);
            let longer: Vec<String> = texts[start..]
                .iter()
                .flat_map(|t| ALPHABET.iter().map(move |c| format!("{t}{c}")))
                .collect();
            texts.extend(longer);
        }
        assert_eq!(texts.len(), (0..=5).map(|l| 6usize.pow(l)).sum::<usize>());
        for t in &texts {
            assert_eq!(escape(t), escape_by_char(t), "escape {t:?}");
            assert_eq!(unescape(t), unescape_by_char(t), "unescape {t:?}");
            let mut rendered = Vec::new();
            render_into(&mut rendered, 7, &Err(t.clone()), None);
            assert_eq!(
                rendered,
                format!("[7] err {}", escape_by_char(t)).into_bytes()
            );
        }
    }

    #[test]
    fn parses_every_command() {
        assert_eq!(parse_request(" ping "), Ok(Request::Ping));
        assert_eq!(parse_request("quit"), Ok(Request::Quit));
        assert_eq!(parse_request("stats on"), Ok(Request::Stats(true)));
        assert_eq!(parse_request("stats off"), Ok(Request::Stats(false)));
        assert_eq!(parse_request("stats show"), Ok(Request::StatsShow));
        assert!(!Request::StatsShow.is_decision());
        assert!(parse_request("limit=10 stats show").is_err());
        assert_eq!(
            parse_request("schema s class C {}\\nclass D : C {}"),
            Ok(Request::DefineSchema {
                session: "s".into(),
                text: "class C {}\nclass D : C {}".into(),
            })
        );
        assert_eq!(
            parse_request("query s Q { x | x in C }"),
            Ok(Request::DefineQuery {
                session: "s".into(),
                name: "Q".into(),
                text: "{ x | x in C }".into(),
            })
        );
        assert_eq!(
            parse_request("satisfiable s Q"),
            Ok(Request::Satisfiable {
                session: "s".into(),
                query: "Q".into(),
            })
        );
        assert_eq!(
            parse_request("contains s A B"),
            Ok(Request::Contains {
                session: "s".into(),
                q1: "A".into(),
                q2: "B".into(),
            })
        );
        assert_eq!(
            parse_request("equiv s A B"),
            Ok(Request::Equivalent {
                session: "s".into(),
                q1: "A".into(),
                q2: "B".into(),
            })
        );
        assert_eq!(
            parse_request("explain s A B"),
            Ok(Request::Explain {
                session: "s".into(),
                q1: "A".into(),
                q2: "B".into(),
            })
        );
        assert_eq!(
            parse_request("expand s Q"),
            Ok(Request::Expand {
                session: "s".into(),
                query: "Q".into(),
            })
        );
        assert_eq!(
            parse_request("minimize s Q"),
            Ok(Request::Minimize {
                session: "s".into(),
                query: "Q".into(),
            })
        );
        assert_eq!(
            parse_request("run schema { class C {} }"),
            Ok(Request::Run {
                text: "schema { class C {} }".into(),
            })
        );
    }

    #[test]
    fn limit_option_wraps_decision_requests() {
        assert_eq!(
            parse_request("limit=100 contains s A B"),
            Ok(Request::Limited {
                limit: 100,
                inner: Box::new(Request::Contains {
                    session: "s".into(),
                    q1: "A".into(),
                    q2: "B".into(),
                }),
            })
        );
        assert_eq!(
            parse_request("limit=1 run ping"),
            Ok(Request::Limited {
                limit: 1,
                inner: Box::new(Request::Run {
                    text: "ping".into()
                }),
            })
        );
        assert!(parse_request("limit=100 contains s A B")
            .unwrap()
            .is_decision());
    }

    #[test]
    fn limit_option_rejects_bad_values_and_targets() {
        for bad in [
            "limit=",
            "limit=100",
            "limit=0 contains s A B",
            "limit=-1 contains s A B",
            "limit=abc contains s A B",
            "limit=9999999999999999999999 contains s A B",
            "limit=10 ping",
            "limit=10 quit",
            "limit=10 stats off",
            "limit=10 schema s class C {}",
            "limit=10 query s Q { x | x in C }",
            "limit=10 limit=10 contains s A B",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn malformed_requests_are_reported_not_fatal() {
        for bad in [
            "",
            "frobnicate",
            "stats maybe",
            "schema s",
            "query s Q",
            "contains s A",
            "minimize s",
            "run",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn decision_classification() {
        assert!(!parse_request("ping").unwrap().is_decision());
        assert!(!parse_request("schema s class C {}").unwrap().is_decision());
        assert!(parse_request("contains s A B").unwrap().is_decision());
        assert!(parse_request("run ping").unwrap().is_decision());
    }

    #[test]
    fn responses_render_with_and_without_stats() {
        assert_eq!(
            render_response(3, &Ok("two\nlines".into()), None),
            "[3] ok two\\nlines"
        );
        let st = RequestStats {
            cached: 2,
            decided: 5,
            wall_us: 1234,
            threads: 8,
        };
        assert_eq!(
            render_response(0, &Err("boom".into()), Some(&st)),
            "[0] err boom # cached=2 decided=5 wall_us=1234 threads=8"
        );
    }
}
