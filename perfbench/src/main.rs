//! `perfbench`: one recorded DejaView session, end to end.
//!
//! ```text
//! perfbench --workload <web|octave|desktop|tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run drives a whole recorded session through the public APIs of
//! `dejaview::DejaView` and `dv_host::Host` as one closed-loop user
//! (each call issued after the previous one returns), checks every
//! answer against an oracle, and prints one line per metric followed,
//! as the last line, by a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and then traced on a
//! wall-clock dv-obs registry, and reports the per-layer metrics, the
//! layer waterfall of each operation and the tracing overhead. The
//! untraced pass records beside its unrecorded baseline in several
//! child processes (see `parts`).

mod ctx;
mod layers;
mod metrics;
mod parts;
mod reads;
mod schedule;
mod single;
mod stats;
mod tenants;
mod trace;

use std::process::ExitCode;

use ctx::Ctx;
use parts::Part;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes of an untraced pass (see `parts`).
    part: Option<Part>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|e| format!("--trace: {e}"))?),
            "--part" => part = Some(Part::parse(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        part,
    })
}

/// Which share of a workload a pass runs.
#[derive(Clone, Copy)]
enum Share {
    Whole,
    /// A child process's share of the set-ups and of the recording
    /// beside the unrecorded baseline.
    Beside(Part),
    /// The read session (the children ran the rest).
    Read,
}

/// Runs `share` of the workload into `ctx`.
fn pass(args: &Args, ctx: &mut Ctx, share: Share) -> Result<(), String> {
    let seed = match share {
        Share::Beside(part) => part.seed(args.seed),
        Share::Whole | Share::Read => args.seed,
    };
    let seconds = args.seconds as f64;
    match args.workload.as_str() {
        "tenants" => {
            let plan = tenants::plan();
            let plan = match share {
                Share::Whole => plan,
                Share::Beside(part) => plan.beside_share(part.of),
                Share::Read => plan.read_only(),
            };
            tenants::run(&plan, seed, seconds, ctx)
        }
        name => {
            let plan =
                metrics::single_plan(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let plan = match share {
                Share::Whole => plan,
                Share::Beside(part) => plan.beside_share(part.of),
                Share::Read => plan.read_only(),
            };
            single::run(&plan, seed, seconds, ctx)
        }
    }
}

fn run(args: &Args) -> Result<(Ctx, Option<Ctx>), String> {
    let mut untraced = parts::run(&args.workload, args.seed, args.seconds, metrics::PARTS)?;
    pass(args, &mut untraced, Share::Read)?;
    metrics::end_to_end(&mut untraced)?;
    if !args.trace {
        return Ok((untraced, None));
    }
    let mut traced = Ctx::new(true);
    pass(args, &mut traced, Share::Whole)?;
    metrics::end_to_end(&mut traced)?;
    layers::percentiles(&mut traced)?;
    metrics::host_percentiles(&mut traced, args.workload == "tenants")?;
    Ok((untraced, Some(traced)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(part) = args.part {
        let mut ctx = Ctx::new(false);
        return match pass(&args, &mut ctx, Share::Beside(part)) {
            Ok(()) => {
                parts::emit(&ctx);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload);
                ExitCode::from(1)
            }
        };
    }
    let (untraced, traced) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let out = format!(".bench_out/{}-seed{}", args.workload, args.seed);
    let samples = std::path::PathBuf::from(format!("{out}-samples.jsonl"));
    if let Err(e) = untraced.write_samples(&samples) {
        println!("samples not written to {}: {e}", samples.display());
    }
    let report = match traced {
        None => metrics::report_end_to_end(&untraced),
        Some(traced) => {
            let path = std::path::PathBuf::from(format!("{out}-spans.jsonl"));
            match traced.tracer.write_jsonl(&path) {
                Ok(()) => println!(
                    "{} spans written to {}",
                    traced.tracer.span_count(),
                    path.display()
                ),
                Err(e) => println!("spans not written to {}: {e}", path.display()),
            }
            metrics::report_per_layer(&untraced, traced)
        }
    };
    match report {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
