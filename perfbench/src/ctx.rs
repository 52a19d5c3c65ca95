//! State one benchmark run accumulates: samples, failure accounting,
//! the span tracer and the correctness verdicts.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dv_obs::Obs;

use crate::stats::{Ledger, Samples};
use crate::trace::{LayerTimes, Tracer};

/// A call in progress: its start and, when tracing, the registry's
/// layer busy times at the start.
pub struct Probe {
    start: Instant,
    before: Option<LayerTimes>,
}

/// A finished call.
pub struct Done {
    pub wall: Duration,
    /// Root span `(request, id)` when tracing.
    pub root: Option<(u64, u64)>,
    /// Layer busy time inside the call (empty when not tracing).
    pub layers: LayerTimes,
}

/// Samples one set holds before it grows. Room for a whole run up
/// front keeps the benchmark's own reallocations, whose timing depends
/// on machine speed, out of the recorder's heap while it is measured.
const SAMPLE_CAPACITY: usize = 1 << 17;

pub struct Ctx {
    pub tracer: Tracer,
    /// Whether checkpoint writeback runs on the calling thread.
    pub inline_commit: bool,
    pub ledger: Ledger,
    pub samples: BTreeMap<&'static str, Samples>,
    /// End-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Failed correctness checks, by description.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Ctx {
    pub fn new(trace: bool) -> Self {
        Ctx {
            tracer: Tracer::new(trace),
            inline_commit: true,
            ledger: Ledger::default(),
            samples: BTreeMap::new(),
            metrics: BTreeMap::new(),
            mismatches: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    pub fn begin(&self, obs: &Obs) -> Probe {
        let before = self
            .tracing()
            .then(|| LayerTimes::read(obs, self.inline_commit));
        Probe {
            start: Instant::now(),
            before,
        }
    }

    /// Ends a call of `op`: counts it, keeps its wall time under
    /// `sample` when it succeeded, and records its request span.
    pub fn end(
        &mut self,
        op: &'static str,
        sample: Option<&'static str>,
        obs: &Obs,
        probe: Probe,
        ok: bool,
    ) -> Done {
        let wall = probe.start.elapsed();
        let layers = match &probe.before {
            Some(before) => LayerTimes::read(obs, self.inline_commit).since(before),
            None => LayerTimes::default(),
        };
        self.ledger.count(op, ok);
        if ok {
            if let Some(name) = sample {
                self.sample(name).push_wall(wall);
            }
        }
        let root = self.tracer.request(op, probe.start, wall, &layers);
        Done { wall, root, layers }
    }

    pub fn sample(&mut self, name: &'static str) -> &mut Samples {
        self.samples
            .entry(name)
            .or_insert_with(|| Samples::with_capacity(SAMPLE_CAPACITY))
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Median and a tail percentile of `sample` as `<name>.p50` and
    /// `<name>.p<tail>`; an error when the tail has too few samples.
    pub fn percentiles(&mut self, name: &'static str, tails: &[f64]) -> Result<(), String> {
        let samples = self.samples.get(name).cloned().unwrap_or_default();
        for &p in std::iter::once(&50.0).chain(tails) {
            let v = samples
                .percentile(p)
                .map_err(|e| format!("{name}.p{p}: {e}"))?;
            self.metric(&format!("{name}.p{p}"), v, "ms");
        }
        Ok(())
    }

    /// Folds a warm-up's call counts and check verdicts into this run;
    /// its timings are dropped.
    pub fn absorb_checks(&mut self, warm: Ctx) {
        for (op, attempted, failed) in warm.ledger.rows() {
            self.ledger.add(op, attempted, failed);
        }
        self.mismatches.extend(warm.mismatches);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Writes every per-call sample, one JSON object per sample set.
    pub fn write_samples(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, samples) in &self.samples {
            let values: Vec<String> = samples.values().iter().map(|v| v.to_string()).collect();
            writeln!(
                w,
                "{{\"name\":\"{name}\",\"values\":[{}]}}",
                values.join(",")
            )?;
        }
        w.flush()
    }
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Peak resident memory of the process, in MB, since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
