//! Whole-study benchmark of the stabilization pipeline.
//!
//! ```text
//! perfbench --workload <zoo-lattice|herman-showcase|herman-disk>
//!           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! A closed loop with one client: one `Study` at a time, each checked
//! against its pins. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` every op runs twice, plainly and
//! through the benchmark's own layer spans, and the last line carries
//! the per-layer metrics. See README.md for the metric → layer →
//! workload map.

mod point;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::{LayerSample, Tracer};
use workloads::{Rng, Workload, NAMES};

/// An untraced run sets up at least `MIN_SETUPS` times and until
/// `SETUP_FILL_S` seconds have gone to set-up; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const SETUP_FILL_S: f64 = 3.0;
/// The tail is the highest of these percentiles that has at least
/// `TAIL_OPS` ops beyond it.
const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
const TAIL_OPS: f64 = 10.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from("perfbench-work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {NAMES:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

/// CPU model, parallelism, compiler and kernel of this run, as JSON.
fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = env!("PERFBENCH_RUSTC_VERSION");
    format!(
        "{{\"cpu\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\",\"kernel\":\"{}\"}}",
        cpu.replace('"', "'"),
        rustc.replace('"', "'"),
        kernel.replace('"', "'")
    )
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// time a hypervisor took the CPUs away is the main source of run-to-run
/// noise on a shared host, so each run prints its share.
fn cpu_ticks() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `pct` of sorted `v`, with the number of ops
/// beyond it.
fn percentile(v: &[f64], pct: f64) -> (f64, usize) {
    let rank = ((pct / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// `study_s_tail`: the highest of [`TAIL_PERCENTILES`] with at least
/// [`TAIL_OPS`] ops beyond it, as `(value, percentile, ops beyond)`. With
/// fewer than 20 ops no listed percentile qualifies and the op with
/// exactly `TAIL_OPS` ops beyond it stands in (the fastest op if there
/// are no more than that), so the figure is still defined, though it is
/// no tail.
fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    match TAIL_PERCENTILES
        .iter()
        .rev()
        .find(|&&p| n * (1.0 - p / 100.0) >= TAIL_OPS)
    {
        Some(&p) => {
            let (value, beyond) = percentile(&v, p);
            (value, p, beyond)
        }
        None => {
            let rank = v.len().saturating_sub(TAIL_OPS as usize).max(1);
            (
                v.get(rank - 1).copied().unwrap_or(f64::NAN),
                100.0 * rank as f64 / n,
                v.len().saturating_sub(rank),
            )
        }
    }
}

/// Runs one op, catching panics; `Err` carries the failure.
fn run_op<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn fail(failed: &mut u64, what: &str, e: &str) {
    *failed += 1;
    if *failed <= 5 {
        eprintln!("op failed ({what}): {e}");
    }
}

/// The untimed set-ups, then the closed loop of plain `Study::run` ops.
fn run_plain(args: &Args, start: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut consistent = true;
    let mut w: Option<Workload> = None;
    while setup_s.len() < MIN_SETUPS || setup_s.iter().sum::<f64>() < SETUP_FILL_S {
        let t = if setup_s.is_empty() {
            start
        } else {
            Instant::now()
        };
        let next = Workload::setup(&args.workload, args.seed, &args.work_dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &w {
            consistent &= prev.same_references(&next);
        }
        w = Some(next);
    }
    let w = w.expect("at least one set-up");
    if !consistent {
        eprintln!("set-ups disagree on the reference output");
    }

    let mut rng = Rng::new(args.seed ^ 0x0D3E_5EED);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut times = Vec::new();
    let ticks = cpu_ticks();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        for p in w.order(&mut rng) {
            attempted += 1;
            let t = Instant::now();
            let res = run_op(|| w.points[p].run().map_err(|e| e.to_string()));
            times.push(t.elapsed().as_secs_f64());
            if let Err(e) = res.and_then(|r| w.check(p, &r)) {
                fail(&mut failed, w.points[p].label(), &e);
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    let steal = steal_share(ticks, cpu_ticks());
    w.clean();

    let p50 = median(&times);
    let (tail_s, tail_pct, beyond) = tail(&times);
    println!(
        "{}: {attempted} ops in {wall:.3} s; study_s_tail is p{tail_pct:.1} with {beyond} of {} ops beyond it; set-ups took {setup_s:.4?} s; steal {steal:.1}% of machine CPU time",
        w.name,
        times.len()
    );
    let metrics = vec![
        ("setup_s", "s", median(&setup_s)),
        ("study_s_p50", "s", p50),
        ("study_s_tail", "s", tail_s),
        ("studies_per_s", "1/s", attempted as f64 / wall),
        ("peak_rss_mb", "MiB", peak_rss_mib()),
    ];
    Ok(Outcome {
        correct: consistent && failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Every op twice — plain and traced, alternating which goes first — with
/// the traced op's verdicts and expected times checked against the plain
/// op's. Per-layer metrics are medians over ops (over sweeps for the zoo).
fn run_traced(args: &Args, host: &str) -> Result<Outcome, String> {
    let w = Workload::setup(&args.workload, args.seed, &args.work_dir)?;
    let mut rng = Rng::new(args.seed ^ 0x0D3E_5EED);
    let mut tracer = Tracer::new();
    let (mut attempted, mut failed, mut op) = (0u64, 0u64, 0u64);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut units: Vec<LayerSample> = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds {
        let mut unit = LayerSample::default();
        for p in w.order(&mut rng) {
            attempted += 1;
            let point = &w.points[p];
            let plain = |out: &mut Vec<f64>| {
                let t = Instant::now();
                let r = run_op(|| point.run().map_err(|e| e.to_string()));
                out.push(t.elapsed().as_secs_f64());
                r
            };
            let traced_first = op % 2 == 1;
            let traced = |tr: &mut Tracer| run_op(|| point.run_traced(tr, op));
            let (r, tr) = if traced_first {
                let tr = traced(&mut tracer);
                (plain(&mut plain_s), tr)
            } else {
                let r = plain(&mut plain_s);
                (r, traced(&mut tracer))
            };
            op += 1;
            let res = r.and_then(|r| {
                w.check(p, &r)?;
                let tr = tr?;
                if tr.verdicts != r.verdicts || tr.expected != r.expected_times {
                    return Err("traced op disagrees with Study::run".into());
                }
                Ok(tr)
            });
            match res {
                Ok(tr) => {
                    tracer.count(tr.root, "point", p as f64);
                    traced_s.push(tr.op_s);
                    unit += tr.layers;
                }
                Err(e) => fail(&mut failed, point.label(), &e),
            }
        }
        units.push(unit);
    }
    w.clean();

    let per_unit: Vec<_> = units.iter().map(LayerSample::metrics).collect();
    let mut metrics: Vec<_> = per_unit[0]
        .iter()
        .enumerate()
        .map(|(k, (name, unit, _))| {
            let xs: Vec<f64> = per_unit.iter().map(|m| m[k].2).collect();
            (*name, *unit, median(&xs))
        })
        .collect();
    metrics.push((
        "trace.overhead",
        "ratio",
        median(&traced_s) / median(&plain_s) - 1.0,
    ));

    let path = args
        .work_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let points: Vec<String> = w
        .points
        .iter()
        .map(|p| format!("\"{}\"", p.label()))
        .collect();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"host\":{host},\"points\":[{}],\"spans\":{}}}",
        args.workload,
        args.seed,
        points.join(","),
        tracer.spans().len()
    );
    tracer
        .write_jsonl(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{}: {attempted} traced op pairs over {} units; spans in {}",
        w.name,
        units.len(),
        path.display()
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    // The disk tier's Markov mirror spills to a temporary directory;
    // keep it inside the work directory. No thread exists yet.
    std::env::set_var("TMPDIR", &args.work_dir);

    let host = host_fingerprint();
    println!("host: {host}");
    let outcome = if args.trace {
        run_traced(&args, &host)
    } else {
        run_plain(&args, start)
    };
    match outcome {
        Ok(mut o) => {
            if o.metrics.iter().any(|(_, _, v)| !v.is_finite()) {
                eprintln!("perfbench: a metric is not finite: {:?}", o.metrics);
                o.correct = false;
                for m in &mut o.metrics {
                    if !m.2.is_finite() {
                        m.2 = 0.0;
                    }
                }
            }
            println!("{}", o.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
