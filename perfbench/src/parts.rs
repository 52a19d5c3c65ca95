//! The recording beside the unrecorded baseline, split over several
//! processes.
//!
//! Where a process's heap and address space happen to lay out moves
//! its recording steps, and the unrecorded baseline's much cheaper
//! ones, by up to a fifth, and it stays that way for the life of the
//! process: one process measures one draw of the layout, however many
//! sessions it records. An untraced pass therefore runs its set-ups and
//! its sessions beside the baseline as `k` child processes, one after
//! the other, each with its share and a seed of its own derived from
//! the run's; `setup_s` and `record_overhead` are the medians over the
//! children, and their checkpoint stalls join the pooled samples. The
//! read session and its reads stay in the parent: split, each process
//! would start its caches cold and the runs would measure k cold
//! starts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::ctx::Ctx;
use crate::stats::median;

/// One process's share of a run: part `index` of `of`.
#[derive(Clone, Copy)]
pub struct Part {
    pub index: usize,
    pub of: usize,
}

impl Part {
    /// Parses `i/k`.
    pub fn parse(s: &str) -> Result<Part, String> {
        let bad = || format!("--part {s}: expected i/k with i < k");
        let (i, k) = s.split_once('/').ok_or_else(bad)?;
        let index = i.parse().map_err(|_| bad())?;
        let of = k.parse().map_err(|_| bad())?;
        if index >= of {
            return Err(bad());
        }
        Ok(Part { index, of })
    }

    /// This part's seed: fixed by the run's seed, different per part.
    pub fn seed(&self, seed: u64) -> u64 {
        seed.wrapping_mul(1_000_003).wrapping_add(self.index as u64)
    }
}

/// Prints a part's results for the parent, one record per line:
/// `sample`, `metric`, `calls`, `mismatch` and `note`.
pub fn emit(ctx: &Ctx) {
    let mut out = String::new();
    for (name, samples) in &ctx.samples {
        let _ = write!(out, "sample {name}");
        for v in samples.values() {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    for (name, (v, unit)) in &ctx.metrics {
        let _ = writeln!(out, "metric {name} {v} {unit}");
    }
    for (op, attempted, failed) in ctx.ledger.rows() {
        let _ = writeln!(out, "calls {op} {attempted} {failed}");
    }
    for m in &ctx.mismatches {
        let _ = writeln!(out, "mismatch {}", m.replace('\n', " "));
    }
    for n in &ctx.notes {
        let _ = writeln!(out, "note {}", n.replace('\n', " "));
    }
    print!("{out}");
}

/// Names read back from the parts: a few dozen per part, so a run
/// leaks a few hundred short strings.
fn intern(s: &str) -> &'static str {
    Box::leak(s.to_owned().into_boxed_str())
}

/// Runs the `k` parts of an untraced pass as child processes of this
/// binary, one after the other, and merges what they print.
pub fn run(workload: &str, seed: u64, seconds: u64, k: usize) -> Result<Ctx, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut merged = Ctx::new(false);
    let mut scalars: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    for index in 0..k {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--trace", "0"])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--part", &format!("{index}/{k}")])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("part {index}/{k}: {e}"))?;
        if !output.status.success() {
            return Err(format!("part {index}/{k} {}", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut fields = rest.split(' ');
            let mut next = || fields.next().unwrap_or_default();
            let bad = || format!("part {index}/{k}: unreadable line {line:?}");
            match kind {
                "sample" => {
                    let samples = merged.sample(intern(next()));
                    for v in rest.split(' ').skip(1) {
                        samples.push(v.parse().map_err(|_| bad())?);
                    }
                }
                "metric" => {
                    let name = next().to_string();
                    let value: f64 = next().parse().map_err(|_| bad())?;
                    let unit = next();
                    let entry = scalars
                        .entry(name)
                        .or_insert_with(|| (Vec::new(), intern(unit)));
                    entry.0.push(value);
                }
                "calls" => {
                    let op = intern(next());
                    let attempted = next().parse().map_err(|_| bad())?;
                    let failed = next().parse().map_err(|_| bad())?;
                    merged.ledger.add(op, attempted, failed);
                }
                "mismatch" => merged.mismatches.push(format!("part {index}/{k}: {rest}")),
                "note" => merged.note(format!("part {index}/{k}: {rest}")),
                _ => return Err(bad()),
            }
        }
    }
    for (name, (values, unit)) in scalars {
        merged.metric(&name, median(&values), unit);
    }
    Ok(merged)
}
