//! Per-layer metrics, computed from registry deltas and from the
//! benchmark's own per-call samples. Only a traced run (`Obs::wall`)
//! prints them: in an untraced run the registry's spans time the
//! simulated clock.

use dv_obs::{names, Obs};

use crate::ctx::Ctx;
use crate::trace::{LayerTimes, COMMIT};

const MS: f64 = 1e6;

fn per(value: f64, by: f64) -> f64 {
    if by > 0.0 {
        value / by
    } else {
        0.0
    }
}

/// Recording-side layers over the record phase of `vs` virtual seconds.
pub fn record_phase(ctx: &mut Ctx, t: &LayerTimes, c: &PhaseCounters, vs: f64) {
    let ms_per_vs = |name: &str| per(t.get(name) as f64 / MS, vs);
    ctx.metric("display.flush_ms", ms_per_vs(names::DISPLAY_FLUSH), "ms/vs");
    ctx.metric(
        "display.keyframe_ms",
        ms_per_vs(names::DISPLAY_KEYFRAME),
        "ms/vs",
    );
    let display_bytes =
        c.get(names::DISPLAY_COMMAND_BYTES) + c.get(names::DISPLAY_SCREENSHOT_BYTES);
    ctx.metric(
        "display.bytes_per_vs",
        per(display_bytes as f64, vs),
        "B/vs",
    );
    ctx.metric(
        "display.keyframes",
        c.get(names::DISPLAY_KEYFRAMES) as f64,
        "count",
    );
    ctx.metric(
        "text.mirror_apply_ms",
        ms_per_vs(names::TEXT_MIRROR_APPLY),
        "ms/vs",
    );
    ctx.metric(
        "text.events_per_vs",
        per(c.get(names::TEXT_EVENTS) as f64, vs),
        "1/vs",
    );
    let ingested = c.get(names::TIDX_INGESTED) as f64;
    let filtered = c.get(names::TIDX_FILTERED) as f64;
    ctx.metric(
        "tidx.useful_ratio",
        per(ingested, ingested + filtered),
        "ratio",
    );
    let seals = c.get(names::TIDX_SEALS) as f64;
    ctx.metric(
        "tidx.seal_ms",
        per(t.get(names::TIDX_SEAL) as f64 / MS, seals),
        "ms",
    );

    // Checkpoint phases, per checkpoint taken.
    let ckpts = c.get(names::CHECKPOINT_COUNT) as f64;
    let per_ckpt = |name: &str| per(t.get(name) as f64 / MS, ckpts);
    ctx.metric(
        "checkpoint.quiesce_ms",
        per_ckpt(names::CHECKPOINT_QUIESCE),
        "ms",
    );
    ctx.metric(
        "checkpoint.capture_ms",
        per_ckpt(names::CHECKPOINT_CAPTURE),
        "ms",
    );
    ctx.metric(
        "checkpoint.fs_snapshot_ms",
        per_ckpt(names::CHECKPOINT_FS_SNAPSHOT),
        "ms",
    );
    ctx.metric("checkpoint.commit_ms", per_ckpt(COMMIT), "ms");
    let stored = c.get(names::CHECKPOINT_STORED_BYTES) as f64;
    ctx.metric("checkpoint.stored_bytes_per_vs", per(stored, vs), "B/vs");
    ctx.metric(
        "checkpoint.inline_fallbacks",
        c.get(names::CHECKPOINT_INLINE_FALLBACKS) as f64,
        "count",
    );
    ctx.metric(
        "checkpoint.commit_retries",
        c.get(names::CHECKPOINT_COMMIT_RETRIES) as f64,
        "count",
    );
    ctx.metric("lsfs.sync_ms", per_ckpt(names::LSFS_SYNC), "ms");
    ctx.metric("lsfs.snapshot_ms", per_ckpt(names::LSFS_SNAPSHOT), "ms");
    ctx.metric("lsfs.blob_put_ms", per_ckpt(names::LSFS_BLOB_PUT), "ms");
    ctx.metric("cas.put_ms", per_ckpt(names::CAS_PUT), "ms");
}

/// Query-side layers: registry count distributions over the run and
/// the per-call samples the reads kept.
pub fn query_side(ctx: &mut Ctx, obs: &Obs, live_instances: u64) {
    let mean = |name: &str| {
        obs.histogram(name)
            .map_or(0.0, |h| per(h.sum_nanos as f64, h.count as f64))
    };
    ctx.metric(
        "tidx.segment_probes.mean",
        mean(names::TIDX_SEGMENT_PROBES),
        "count",
    );
    let probes = mean(names::VIDX_PROBES);
    ctx.metric("vidx.probes_per_query", probes, "count");
    ctx.metric(
        "vidx.probe_ratio",
        per(probes, live_instances as f64),
        "ratio",
    );
    for (metric, sample) in [
        ("record.commands_per_seek", "record.commands_per_seek"),
        ("record.portals_per_search", "record.portals_per_search"),
        ("checkpoint.pages_per_revive", "checkpoint.pages_per_revive"),
        ("lsfs.blob_gets_per_revive", "lsfs.blob_gets_per_revive"),
    ] {
        let v = ctx.samples.get(sample).map_or(0.0, |s| s.mean());
        ctx.metric(metric, v, "count");
    }
}

/// Medians of the archive→reopen parts and of a whole-record replay.
pub fn medians(ctx: &mut Ctx) {
    for (name, unit) in [
        ("core.save_archive_ms", "ms"),
        ("core.load_archive_ms", "ms"),
        ("core.recover_ms", "ms"),
        ("core.archive_mb", "MB"),
        ("record.play_ms", "ms"),
    ] {
        let v = ctx.samples.get(name).map_or(0.0, |s| s.median());
        ctx.metric(name, v, unit);
    }
}

/// Per-call percentiles of the traced run; an error when a tail has
/// too few calls behind it.
pub fn percentiles(ctx: &mut Ctx) -> Result<(), String> {
    for (name, tails) in [
        ("app.step_ms", &[][..]),
        ("tidx.query_ms", &[99.0][..]),
        ("tidx.search_at_ms", &[][..]),
        ("vidx.query_ms", &[99.0][..]),
        ("record.seek_ms", &[90.0][..]),
    ] {
        ctx.percentiles(name, tails)?;
    }
    // Cross-tenant search returns hits without screenshot portals.
    if ctx.samples.contains_key("record.portal_ms") {
        ctx.percentiles("record.portal_ms", &[])?;
    } else {
        ctx.metric("record.portal_ms.p50", 0.0, "ms");
    }
    Ok(())
}

/// Layer work over the record phase, from registry deltas.
pub struct PhaseCounters {
    counters: Vec<(&'static str, u64)>,
}

const PHASE_COUNTERS: &[&str] = &[
    names::DISPLAY_COMMAND_BYTES,
    names::DISPLAY_SCREENSHOT_BYTES,
    names::DISPLAY_KEYFRAMES,
    names::TEXT_EVENTS,
    names::TIDX_INGESTED,
    names::TIDX_FILTERED,
    names::CHECKPOINT_STORED_BYTES,
    names::CHECKPOINT_COUNT,
    names::TIDX_SEALS,
    names::CHECKPOINT_INLINE_FALLBACKS,
    names::CHECKPOINT_COMMIT_RETRIES,
];

impl PhaseCounters {
    pub fn read(obs: &Obs) -> Self {
        PhaseCounters {
            counters: PHASE_COUNTERS
                .iter()
                .map(|&n| (n, obs.counter(n)))
                .collect(),
        }
    }

    pub fn since(&self, earlier: &PhaseCounters) -> PhaseCounters {
        PhaseCounters {
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|((n, a), (_, b))| (*n, a.saturating_sub(*b)))
                .collect(),
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn add(&mut self, other: &PhaseCounters) {
        for ((_, a), (_, b)) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
    }
}
