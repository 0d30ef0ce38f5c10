//! Output: a minimal JSON writer, order statistics, and the host facts
//! every result carries.

use std::fmt;
use std::process::{Command, Stdio};

/// A JSON value. Object keys keep insertion order.
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj(fields: Vec<(&str, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JSON has no NaN or infinity; a degenerate ratio reads as 0.
            J::Num(x) if !x.is_finite() => f.write_str("0"),
            J::Num(x) => write!(f, "{x}"),
            J::Int(n) => write!(f, "{n}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, k)?;
                    write!(f, ": {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// One named measurement of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The last stdout line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = J::Obj(
        metrics
            .iter()
            .map(|m| {
                let v = J::obj(vec![("value", J::Num(m.value)), ("unit", J::str(m.unit))]);
                (m.name.to_owned(), v)
            })
            .collect(),
    );
    J::obj(vec![
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(attempted.max(1))),
        ("failed", J::Int(failed)),
        ("metrics", metrics),
    ])
    .to_string()
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample and return its (median, p99).
pub fn median_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (quantile(samples, 0.5), quantile(samples, 0.99))
}

/// Median of a small float sample (the mean of the middle two for even
/// lengths, 0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host facts recorded with every result.
pub fn host_facts(seed: u64) -> J {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    J::obj(vec![
        ("nproc", J::Int(nproc as u64)),
        ("cpu_model", J::Str(cpu)),
        ("kernel", J::Str(kernel)),
        ("rustc", J::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            J::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", J::Int(seed)),
    ])
}
