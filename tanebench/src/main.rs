//! `tanebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Run from the repository root. Prints provenance and every metric with
//! its unit, then the result object as the last line of standard output;
//! writes the run's spans to `.bench_out/traces/` when tracing.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tane_util::Json;
use tanebench::metrics::{END_TO_END, PER_LAYER};
use tanebench::report::RunResult;
use tanebench::{batch, host, serve, stats, Ctx, Outcome};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<&str> = batch::workloads().iter().map(|b| b.name).collect();
    names.push("serve-churn");
    names
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tanebench: {e}");
            return ExitCode::from(2);
        }
    };
    if !workload_names().contains(&args.workload.as_str()) {
        eprintln!(
            "tanebench: unknown workload `{}` (one of {})",
            args.workload,
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    }

    // Everything the run writes lives under `.bench_out/` in the current
    // directory; the program's spill files go to a per-process directory
    // there through `TMPDIR`, set before any thread starts.
    let root = PathBuf::from(".");
    let out_dir = root.join(".bench_out");
    let spill_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        eprintln!("tanebench: cannot create {}: {e}", spill_dir.display());
        return ExitCode::from(1);
    }
    let spill_dir = spill_dir.canonicalize().unwrap_or(spill_dir);
    std::env::set_var("TMPDIR", &spill_dir);

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads: host::nproc(),
        spill_dir: spill_dir.clone(),
    };
    let outcome = match batch::workloads()
        .into_iter()
        .find(|b| b.name == args.workload)
    {
        Some(b) => batch::run(&b, &ctx),
        None => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&spill_dir);

    if args.trace {
        write_trace(&out_dir, &args, &outcome);
    }
    print_result(&root, &args, &ctx, outcome);
    ExitCode::SUCCESS
}

fn write_trace(out_dir: &Path, args: &Args, outcome: &Outcome) {
    let dir = out_dir.join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, outcome.tracer.to_json().render()));
    match written {
        Ok(()) => println!("# spans: {}", path.display()),
        Err(e) => eprintln!("tanebench: writing {}: {e}", path.display()),
    }
}

fn print_result(root: &Path, args: &Args, ctx: &Ctx, outcome: Outcome) {
    let percentile = |n: usize| stats::reportable_percentile(n).map_or(Json::Null, Json::Num);
    let samples = outcome
        .samples
        .iter()
        .map(|&(name, n)| {
            let body = Json::obj([
                ("n", Json::Num(n as f64)),
                ("highest_reportable_percentile", percentile(n)),
            ]);
            (name.to_string(), body)
        })
        .collect();
    let provenance = Json::obj([
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("threads", Json::Num(ctx.threads as f64)),
        ("cpu_model", Json::Str(host::cpu_model())),
        ("commit", Json::Str(host::commit(root))),
        ("source_digest", Json::Str(host::source_digest(root))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("samples", Json::Obj(samples)),
        (
            "cover_digest",
            outcome
                .cover_digest
                .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
        ),
        (
            "leftover_spill_bytes",
            Json::Num(outcome.leftover_spill_bytes as f64),
        ),
        (
            "failures",
            Json::str_array(outcome.failures.iter().cloned()),
        ),
    ]);
    println!("# provenance {}", provenance.render());

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.figures.emit(table);
    for m in &metrics {
        println!("# {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# error_rate {:.6} ({} failed of {} attempted)",
        tanebench::report::error_rate(outcome.attempted, outcome.failed),
        outcome.failed,
        outcome.attempted
    );
    for f in &outcome.failures {
        eprintln!("tanebench: FAILED: {f}");
    }
    let result = RunResult {
        correct: outcome.failed == 0 && outcome.attempted > 0,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics,
    };
    println!("{}", result.to_json());
}
