//! `oocq-perfbench`: the repository benchmark. It drives the `oocq-serve`
//! daemon over loopback TCP with one of three seeded request streams and
//! reports end-to-end metrics, or (`--trace 1`) replays the same stream
//! layer by layer in-process. See `perfbench/README.md`.
//!
//! Usage: `oocq-perfbench --server PATH --workload NAME --seed N
//! --seconds S --trace 0|1`. The last stdout line is the result JSON; the
//! line before it carries host facts, daemon knobs and input facts.

mod client;
mod report;
mod trace;
mod workload;

use client::{drive, start, Knobs, Window};
use report::{host_facts, median_f64, median_p99, result_line, Metric, J};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{Kind, Plan};

/// Daemons per run, each set up afresh and measured for an equal share of
/// `--seconds`; every end-to-end figure is the median over them.
const WINDOWS: usize = 4;

pub struct Args {
    pub server: PathBuf,
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        server: PathBuf::from(get("--server")?),
        kind: Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let dir = Path::new(".perfbench-tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

/// What a run prints: the detail line, then the result line.
pub struct Outcome {
    pub detail: J,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The daemon knobs a plan runs under; `spill_restart` keeps its disk tier
/// in `dir`.
pub fn knobs(plan: &Plan, dir: Option<PathBuf>) -> Knobs {
    Knobs {
        cache_capacity: plan.cache_capacity,
        disk_capacity: plan.disk_capacity,
        cache_dir: if plan.kind == Kind::SpillRestart {
            dir
        } else {
            None
        },
    }
}

pub fn knobs_json(k: &Knobs) -> J {
    J::Obj(
        k.env()
            .into_iter()
            .map(|(n, v)| (n.to_owned(), J::Str(v)))
            .collect(),
    )
}

/// `spill_restart`'s untimed first pass: a daemon over `dir` serves the
/// whole working set once, writing it to the decision log.
pub fn populate(args: &Args, plan: &Plan, dir: &Path) -> Result<Window, String> {
    let mut s = start(
        &args.server,
        &knobs(plan, Some(dir.to_owned())),
        plan,
        false,
    )
    .map_err(|e| format!("populate: {e}"))?;
    drive(&mut s.conns, plan, &mut plan.populate(), plan.depth, None)
        .map_err(|e| format!("populate: {e}"))
}

/// Facts about the inputs one window actually used.
pub fn input_facts(plan: &Plan, w: &Window) -> J {
    let mut distinct = w.issued.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let n = w.issued.len().max(1) as f64;
    let constrained = w
        .issued
        .iter()
        .filter(|&&p| plan.sessions[plan.pairs[p].session].constrained)
        .count();
    let planned: Vec<u64> = w.issued.iter().map(|&p| plan.pairs[p].planned).collect();
    J::obj(vec![
        ("operations", J::Int(w.issued.len() as u64)),
        ("distinct_pairs", J::Int(distinct.len() as u64)),
        ("working_set_pairs", J::Int(plan.working_set as u64)),
        (
            "fresh_pairs_generated",
            J::Int((plan.pairs.len() - plan.working_set) as u64),
        ),
        ("tier1_capacity", J::Int(plan.cache_capacity as u64)),
        ("sessions", J::Int(plan.sessions.len() as u64)),
        ("constrained_share", J::Num(constrained as f64 / n)),
        (
            "planned_branches_mean",
            J::Num(planned.iter().sum::<u64>() as f64 / n),
        ),
        (
            "planned_branches_max",
            J::Int(planned.iter().copied().max().unwrap_or(0)),
        ),
        ("candidates_dropped", J::Int(plan.dropped as u64)),
        ("generation_s", J::Num(plan.gen_s)),
        ("stream_exhausted", J::Bool(w.exhausted)),
    ])
}

fn end_to_end(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let plan = Plan::build(args.kind, args.seed, args.seconds)?;
    let populated = scratch.path("populated");
    let mut mismatches = 0;
    let mut samples = Vec::new();
    if plan.kind == Kind::SpillRestart {
        let w = populate(args, &plan, &populated)?;
        mismatches += w.mismatches;
        samples.extend(w.mismatch_sample);
    }
    // The window is split across WINDOWS daemons, each set up afresh (over
    // its own copy of the populated log) and fed the continuing stream.
    // Where a daemon's threads land on the two cores moves its throughput
    // by about a tenth; the middle of several daemons does not.
    let io = |e: std::io::Error| e.to_string();
    let secs = Duration::from_secs_f64(args.seconds / WINDOWS as f64);
    let mut feed = plan.measured();
    let mut windows: Vec<Window> = Vec::with_capacity(WINDOWS);
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut knobs_used = knobs(&plan, None);
    for k in 0..WINDOWS {
        let dir = scratch.path(&format!("cache-{k}"));
        if plan.kind == Kind::SpillRestart {
            trace::copy_dir(&populated, &dir)?;
        }
        knobs_used = knobs(&plan, Some(dir));
        let mut s =
            start(&args.server, &knobs_used, &plan, false).map_err(|e| format!("setup: {e}"))?;
        setups.push(s.setup.as_secs_f64());
        let warm = drive(&mut s.conns, &plan, &mut plan.warmup(), plan.depth, None).map_err(io)?;
        mismatches += warm.mismatches;
        samples.extend(warm.mismatch_sample);
        let mut w = drive(&mut s.conns, &plan, &mut feed, plan.depth, Some(secs)).map_err(io)?;
        w.failed += warm.failed;
        rss.push(s.daemon.peak_rss_mb().map_err(io)?);
        let exhausted = w.exhausted;
        windows.push(w);
        if exhausted {
            break; // the pool ran out: later daemons would get nothing
        }
    }

    let mut all = Window::default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let whole = windows.iter().filter(|w| !w.exhausted).count();
    for mut w in windows {
        // A window cut short by an exhausted pool counts only when no
        // window ran whole.
        if !w.exhausted || whole == 0 {
            let (p50, p99) = median_p99(&mut w.latencies_ns);
            rates.push(w.throughput());
            p50s.push(p50 as f64 / 1e6);
            p99s.push(p99 as f64 / 1e6);
        }
        all.issued.extend(w.issued);
        all.latencies_ns.extend(w.latencies_ns);
        all.failed += w.failed;
        all.mismatches += w.mismatches;
        samples.extend(w.mismatch_sample);
        all.window += w.window;
        all.exhausted |= w.exhausted;
    }
    mismatches += all.mismatches;
    let attempted = all.attempted();
    let success = (attempted.saturating_sub(all.failed)) as f64 / attempted.max(1) as f64;
    let metrics = vec![
        Metric {
            name: "throughput_rps",
            unit: "1/s",
            value: median_f64(&rates),
        },
        Metric {
            name: "latency_p50_ms",
            unit: "ms",
            value: median_f64(&p50s),
        },
        Metric {
            name: "latency_p99_ms",
            unit: "ms",
            value: median_f64(&p99s),
        },
        Metric {
            name: "success_rate",
            unit: "ratio",
            value: success,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: median_f64(&setups),
        },
        Metric {
            name: "server_rss_mb",
            unit: "MiB",
            value: median_f64(&rss),
        },
    ];
    let nums = |v: &[f64]| J::Arr(v.iter().map(|&x| J::Num(x)).collect());
    let detail = J::obj(vec![
        ("workload", J::str(plan.kind.name())),
        ("trace", J::Bool(false)),
        ("host", host_facts(args.seed)),
        ("daemon", knobs_json(&knobs_used)),
        (
            "load",
            J::obj(vec![
                ("connections", J::Int(client::CONNS as u64)),
                ("pipeline_depth", J::Int(plan.depth as u64)),
                ("loop", J::str("closed")),
                ("daemons", J::Int(WINDOWS as u64)),
                ("window_s", J::Num(all.window.as_secs_f64())),
            ]),
        ),
        ("inputs", input_facts(&plan, &all)),
        ("latency_samples", J::Int(all.latencies_ns.len() as u64)),
        ("window_throughput_rps", nums(&rates)),
        ("window_latency_p50_ms", nums(&p50s)),
        ("window_latency_p99_ms", nums(&p99s)),
        ("window_server_rss_mb", nums(&rss)),
        ("setup_samples_s", nums(&setups)),
        (
            "error_rate",
            J::Num(all.failed as f64 / attempted.max(1) as f64),
        ),
        ("verdict_mismatches", J::Int(mismatches)),
        (
            "mismatch_sample",
            J::Arr(samples.into_iter().take(5).map(J::Str).collect()),
        ),
    ]);
    Ok(Outcome {
        detail,
        correct: mismatches == 0,
        attempted,
        failed: all.failed,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = Scratch::new()
        .map_err(|e| e.to_string())
        .and_then(|scratch| {
            if args.trace {
                trace::run(&args, &scratch)
            } else {
                end_to_end(&args, &scratch)
            }
        });
    match outcome {
        Ok(o) => {
            println!("{}", o.detail);
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            if !o.correct {
                eprintln!("perfbench: verdict mismatch against the reference engine");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
