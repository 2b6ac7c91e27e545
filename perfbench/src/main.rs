//! The ndss benchmark: one seeded command per workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <memorize|scan-cold|serve-rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The run generates its inputs from the
//! seed, sets the workload up several times (reporting the median set-up
//! time), measures for the given seconds, checks sampled outputs against
//! exact references, and prints a host block followed, as its last line,
//! by `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` records spans around every call
//! into the library, writes them to `.bench_out/`, and reports the
//! per-layer metrics instead. Scratch files live in `.bench_work/` and are
//! removed at exit. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics.

mod check;
mod host;
mod inputs;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};

use ndss::json::{Json, ObjectBuilder};

use workloads::{Ctx, Workload};

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or_else(|| {
            format!(
                "unknown workload {name} (expected one of {:?})",
                workloads::NAMES
            )
        })?,
        workload_name: name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one workload; `Ok(false)` when an output failed its check.
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload_name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let _scratch = Scratch(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: trace::Tracer::new(args.trace),
        work,
    };
    let outcome = match args.workload {
        Workload::Memorize => workloads::memorize::run(&ctx),
        Workload::ScanCold => workloads::scan_cold::run(&ctx),
        Workload::ServeRw => workloads::serve_rw::run(&ctx),
    }?;

    let mut workload = ObjectBuilder::new().field("name", Json::Str(args.workload_name.clone()));
    for (key, value) in outcome.info {
        workload = workload.field(key, value);
    }
    let check = match &outcome.check {
        Ok(msg) => ObjectBuilder::new()
            .field("passed", Json::Bool(true))
            .field("detail", Json::Str(msg.clone())),
        Err(msg) => ObjectBuilder::new()
            .field("passed", Json::Bool(false))
            .field("detail", Json::Str(msg.clone())),
    };
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.end_to_end
    };
    let not_applicable = metrics
        .not_applicable_names()
        .iter()
        .map(|n| Json::Str(n.to_string()))
        .collect();
    let mut block = ObjectBuilder::new()
        .field("host", host::block(args.seed))
        .field("workload", workload.build())
        .field("check", check.build())
        .field("not_applicable", Json::Array(not_applicable));
    if args.trace {
        block = block.field("trace", write_trace(&ctx.tracer, &args)?);
    }
    println!("{}", block.build().to_string_compact());

    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let correct = outcome.check.is_ok();
    let line = report::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        metrics,
        catalogue,
    )?;
    println!("{line}");
    if let Err(msg) = &outcome.check {
        eprintln!("perfbench: check failed: {msg}");
    }
    Ok(correct)
}

/// Writes the spans to `.bench_out/` and summarizes self time per layer.
fn write_trace(tracer: &trace::Tracer, args: &Args) -> Result<Json, String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload_name, args.seed
    ));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let spans = tracer.spans();
    let mut self_s = ObjectBuilder::new();
    for (name, secs) in trace::self_time_by_name(&spans) {
        self_s = self_s.field(name, Json::Float(secs));
    }
    Ok(ObjectBuilder::new()
        .field("file", Json::Str(path.display().to_string()))
        .field("spans", Json::UInt(spans.len() as u64))
        .field("self_s", self_s.build())
        .build())
}
