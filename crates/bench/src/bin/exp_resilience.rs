//! E6 — the resilience drill, as a process-level harness for the CI
//! kill-and-resume job.
//!
//! One Herman N=13 study (synchronous daemon, all fairness verdicts,
//! exact expected times) run four ways:
//!
//! ```bash
//! exp_resilience reference --out ref.json          # uninterrupted
//! exp_resilience explore --dir ck --kill-after-frames 2 --out r.json
//!                                                  # dies mid-explore (exit 137)
//! exp_resilience explore --dir ck --out r.json     # adopts the frames, finishes
//! exp_resilience diff ref.json r.json              # bit-identical modulo timings
//! exp_resilience degraded --out d.json             # starved budget, still exit 0
//! ```
//!
//! `reference` and `explore` also accept `--edge-store disk`: the same
//! study forced onto the spilled edge tier (full sweep, no quotient), so
//! the kill-and-resume drill covers the `WSR1` chunk files too — the
//! checkpointed run spills next to its frames (`<dir>/spill`), the
//! injected kill lands after a durable frame, and the resumed run must
//! rebuild the spilled stream bit-for-bit before `diff` compares it
//! against the uninterrupted disk-tier reference.
//!
//! The injected kill uses the deterministic fault plan
//! (`FaultPlan::with_kill_after_frames`), so the process dies at an
//! *exact* frame boundary instead of wherever a racy external SIGKILL
//! lands; it still exits with the SIGKILL status (137) so the CI job
//! treats it like the real thing. `diff` parses both `study_report/v4`
//! documents, zeroes the wall-clock timings (the one part two runs can
//! never share), and demands full structural equality.
//!
//! `degraded` runs the same study under an already-exhausted wall-time
//! budget: the contract is exit 0 with `status.explore` degraded,
//! downstream stages skipped, and the Monte-Carlo stage (which needs no
//! exploration) still complete.

use std::path::PathBuf;
use std::time::Duration;

use stab_algorithms::HermanRing;
use stab_core::engine::{Budget, EdgeStoreKind, ExploreOptions, FaultPlan};
use stab_core::{CoreError, DaemonSpec, FairnessSet};
use stab_graph::builders;
use weak_stabilization::study::{McConfig, Outcome, Study, StudyReport, Timings};

const RING: usize = 13;
const CHECKPOINT_EVERY: u64 = 64;
/// The exit status a SIGKILLed process reports; the injected kill mimics
/// it so the CI job's expectations match a real kill.
const KILLED: i32 = 137;

fn usage() -> ! {
    eprintln!(
        "usage: exp_resilience <command>\n\
         \n\
         commands:\n\
         \x20 reference --out <file> [--edge-store disk]\n\
         \x20 explore --dir <dir> --out <file> [--kill-after-frames <k>] \
         [--edge-store disk]\n\
         \x20 diff <reference.json> <resumed.json>\n\
         \x20 degraded --out <file>"
    );
    std::process::exit(2)
}

fn flag(args: &mut std::env::Args, name: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{name} needs a value");
        usage()
    })
}

fn study<'a>(
    alg: &'a HermanRing,
    spec: &'a stab_algorithms::herman::SingleHermanToken,
    disk: bool,
) -> Study<'a, HermanRing, &'a stab_algorithms::herman::SingleHermanToken> {
    let mut s = Study::of(alg)
        .daemon(DaemonSpec::synchronous())
        .spec(spec)
        .verdicts(FairnessSet::ALL)
        .expected_times();
    if disk {
        // Forced wholesale (full sweep, no quotient): the drill's point
        // is the spilled stream, and both sides of the diff must run the
        // very same options for the reports to be comparable.
        s = s.options(ExploreOptions::full().with_edge_store(EdgeStoreKind::Disk));
    }
    s
}

/// Parses an `--edge-store` value: only the disk tier has a drill.
fn disk_flag(args: &mut std::env::Args) -> bool {
    let tier = flag(args, "--edge-store");
    if tier != "disk" {
        eprintln!("--edge-store only supports `disk` here (got {tier:?})");
        usage()
    }
    true
}

/// Wall-clock noise is the one part of a report two runs can never
/// share; everything else must be bit-identical.
fn strip_timings(mut report: StudyReport) -> StudyReport {
    report.timings_ms = Timings {
        plan: 0.0,
        explore: 0.0,
        verdicts: None,
        chain_build: None,
        expected_solve: None,
        monte_carlo: None,
        total: 0.0,
    };
    report
}

fn write_report(report: &StudyReport, out: &PathBuf) {
    std::fs::write(out, report.to_json_string()).expect("write report");
    println!(
        "wrote {} ({} explore: {:?})",
        out.display(),
        report.plan.quotient,
        report.status.explore
    );
}

fn load_report(path: &str) -> StudyReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    StudyReport::from_json_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn main() {
    let mut args = std::env::args();
    args.next();
    let command = args.next().unwrap_or_else(|| usage());
    let alg = HermanRing::on_ring(&builders::ring(RING)).unwrap();
    let spec = alg.legitimacy();

    match command.as_str() {
        "reference" => {
            let (mut out, mut disk) = (None, false);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => out = Some(PathBuf::from(flag(&mut args, "--out"))),
                    "--edge-store" => disk = disk_flag(&mut args),
                    _ => usage(),
                }
            }
            let out = out.unwrap_or_else(|| usage());
            let report = study(&alg, &spec, disk).run().expect("uninterrupted study");
            assert_eq!(report.status.explore, Outcome::Complete);
            write_report(&report, &out);
        }

        "explore" => {
            let (mut dir, mut out, mut kill_after, mut disk) = (None, None, None, false);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--dir" => dir = Some(PathBuf::from(flag(&mut args, "--dir"))),
                    "--out" => out = Some(PathBuf::from(flag(&mut args, "--out"))),
                    "--kill-after-frames" => {
                        kill_after = Some(
                            flag(&mut args, "--kill-after-frames")
                                .parse::<u64>()
                                .expect("a frame count"),
                        );
                    }
                    "--edge-store" => disk = disk_flag(&mut args),
                    _ => usage(),
                }
            }
            let (dir, out) = match (dir, out) {
                (Some(d), Some(o)) => (d, o),
                _ => usage(),
            };
            std::fs::create_dir_all(&dir).expect("checkpoint dir");
            let mut s = study(&alg, &spec, disk).checkpoint(&dir, CHECKPOINT_EVERY);
            if let Some(k) = kill_after {
                s = s.faults(FaultPlan::none().with_kill_after_frames(k));
            }
            match s.run() {
                Ok(report) => write_report(&report, &out),
                Err(CoreError::Interrupted { after_frames }) => {
                    eprintln!("killed mid-explore after {after_frames} durable frames");
                    std::process::exit(KILLED);
                }
                Err(e) => panic!("study failed: {e}"),
            }
        }

        "diff" => {
            let (a, b) = (
                args.next().unwrap_or_else(|| usage()),
                args.next().unwrap_or_else(|| usage()),
            );
            let left = strip_timings(load_report(&a));
            let right = strip_timings(load_report(&b));
            if left != right {
                eprintln!("{a} and {b} differ beyond timings");
                std::process::exit(1);
            }
            println!("{a} == {b} (modulo timings)");
        }

        "degraded" => {
            let mut out = None;
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--out" => out = Some(PathBuf::from(flag(&mut args, "--out"))),
                    _ => usage(),
                }
            }
            let out = out.unwrap_or_else(|| usage());
            let report = study(&alg, &spec, false)
                .monte_carlo(McConfig {
                    runs: 64,
                    max_steps: 100_000,
                    seed: 11,
                    threads: 1,
                })
                .budget(Budget::unlimited().with_wall_time(Duration::ZERO))
                .run()
                .expect("a starved study still exits cleanly");
            assert!(report.status.explore.is_degraded(), "{:?}", report.status);
            assert_eq!(report.status.verdicts, Outcome::Skipped);
            assert_eq!(report.status.expected_solve, Outcome::Skipped);
            assert_eq!(report.status.monte_carlo, Outcome::Complete);
            write_report(&report, &out);
        }

        _ => usage(),
    }
}
