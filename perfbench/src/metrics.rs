//! Workload sizes, the metric names `BENCHMARK.json` lists, and the
//! printed report.

use std::fmt::Write as _;

use crate::ctx::Ctx;
use crate::schedule::Mins;
use crate::single::Plan;

/// End-to-end metrics printed by `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("record_overhead", "x"),
    ("ckpt_stall_ms.p50", "ms"),
    ("ckpt_stall_ms.p90", "ms"),
    ("search_ms.p50", "ms"),
    ("search_ms.p90", "ms"),
    ("browse_ms.p50", "ms"),
    ("browse_ms.p90", "ms"),
    ("visual_ms.p50", "ms"),
    ("visual_ms.p99", "ms"),
    ("revive_ms.p50", "ms"),
    ("revive_ms.p90", "ms"),
    ("playback_x", "x"),
    ("archive_reopen_ms.p50", "ms"),
    ("storage_mb_per_vs", "MB/vs"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed by `--trace 1`: name and unit. A layer a
/// workload never reaches (the host on a single-tenant session) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("app.step_ms.p50", "ms"),
    ("display.flush_ms", "ms/vs"),
    ("display.keyframe_ms", "ms/vs"),
    ("display.bytes_per_vs", "B/vs"),
    ("display.keyframes", "count"),
    ("text.mirror_apply_ms", "ms/vs"),
    ("text.events_per_vs", "1/vs"),
    ("tidx.useful_ratio", "ratio"),
    ("tidx.seal_ms", "ms"),
    ("tidx.query_ms.p50", "ms"),
    ("tidx.query_ms.p99", "ms"),
    ("tidx.search_at_ms.p50", "ms"),
    ("tidx.segment_probes.mean", "count"),
    ("vidx.query_ms.p50", "ms"),
    ("vidx.query_ms.p99", "ms"),
    ("vidx.probes_per_query", "count"),
    ("vidx.probe_ratio", "ratio"),
    ("record.seek_ms.p50", "ms"),
    ("record.seek_ms.p90", "ms"),
    ("record.commands_per_seek", "count"),
    ("record.portal_ms.p50", "ms"),
    ("record.portals_per_search", "count"),
    ("record.play_ms", "ms"),
    ("checkpoint.quiesce_ms", "ms"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.fs_snapshot_ms", "ms"),
    ("checkpoint.commit_ms", "ms"),
    ("checkpoint.stored_bytes_per_vs", "B/vs"),
    ("checkpoint.pages_per_revive", "count"),
    ("checkpoint.inline_fallbacks", "count"),
    ("checkpoint.commit_retries", "count"),
    ("lsfs.sync_ms", "ms"),
    ("lsfs.snapshot_ms", "ms"),
    ("lsfs.blob_put_ms", "ms"),
    ("lsfs.blob_gets_per_revive", "count"),
    ("cas.put_ms", "ms"),
    ("cas.dedup_hit_ratio", "ratio"),
    ("cas.physical_per_logical", "ratio"),
    ("host.checkpoint_ms.p50", "ms"),
    ("host.checkpoint_ms.p90", "ms"),
    ("host.commit_queue_depth.max", "count"),
    ("host.search_all_ms.p50", "ms"),
    ("host.visual_all_ms.p50", "ms"),
    ("core.save_archive_ms", "ms"),
    ("core.load_archive_ms", "ms"),
    ("core.recover_ms", "ms"),
    ("core.archive_mb", "MB"),
    ("trace.overhead_ratio", "x"),
];

/// The single-tenant workloads, sized so one run takes about half a
/// minute on a 2-core machine and every tail has its samples.
pub fn single_plan(name: &str) -> Option<Plan> {
    let base = |scenario, scale, steps, policy, interleave, beside, live_samples| Plan {
        scenario,
        scale,
        steps,
        policy,
        interleave,
        beside,
        read: true,
        live_samples,
        setups: 11,
        mins: MINS,
        vocabulary: dv_workloads::common::WORDS,
    };
    Some(match name {
        // Table 1 web: 54 pages, 27 virtual s, one checkpoint per
        // virtual second; 30 sessions beside the baseline and the read
        // session give 837 checkpoint stalls.
        "web" => base("web", 1.0, 54, false, false, 30, 54),
        // Table 1 octave: 100 iterations, 20 virtual s; 10 sessions
        // beside the baseline and the read session give 220 stalls.
        "octave" => base("octave", 1.0, 100, false, false, 10, 50),
        // §6 real usage at 1280x1024 for 15 virtual minutes under the
        // policy: ten sessions beside the baseline, and the read
        // session with the mandatory reads interleaved. A search here
        // rebuilds most of its portals (about 60 ms), so it makes 300
        // searches, not 400.
        "desktop" => Plan {
            mins: Mins {
                search: 300,
                ..MINS
            },
            ..base("desktop", 0.25, 900, true, true, 10, 200)
        },
        _ => return None,
    })
}

/// Child processes the recording beside the baseline is split over
/// (see `parts`).
pub const PARTS: usize = 5;

/// Calls per operation in every run, beyond what the time budget adds:
/// sample sizes for the reported percentiles (a p90 needs 100 calls, a
/// p99 1000), with room to spare where calls are cheap.
pub const MINS: Mins = Mins {
    search: 400,
    browse: 200,
    visual: 2000,
    revive: 200,
    replays: 41,
    archives: 7,
};

/// End-to-end percentiles; an error when a tail lacks samples.
pub fn end_to_end(ctx: &mut Ctx) -> Result<(), String> {
    for (name, tails) in [
        ("ckpt_stall_ms", &[90.0][..]),
        ("search_ms", &[90.0][..]),
        ("browse_ms", &[90.0][..]),
        ("visual_ms", &[99.0][..]),
        ("revive_ms", &[90.0][..]),
        ("archive_reopen_ms", &[][..]),
    ] {
        ctx.percentiles(name, tails)?;
    }
    Ok(())
}

/// Host-layer percentiles (zero on single-tenant workloads).
pub fn host_percentiles(ctx: &mut Ctx, host: bool) -> Result<(), String> {
    if host {
        ctx.percentiles("host.checkpoint_ms", &[90.0])?;
        ctx.percentiles("host.search_all_ms", &[])?;
        ctx.percentiles("host.visual_all_ms", &[])?;
    } else {
        for name in [
            "host.checkpoint_ms.p50",
            "host.checkpoint_ms.p90",
            "host.search_all_ms.p50",
            "host.visual_all_ms.p50",
            "host.commit_queue_depth.max",
            "cas.dedup_hit_ratio",
            "cas.physical_per_logical",
        ] {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("ms", |(_, u)| u);
            ctx.metrics.entry(name.to_string()).or_insert((0.0, unit));
        }
    }
    Ok(())
}

fn lines(ctx: &Ctx, out: &mut String) {
    for note in &ctx.notes {
        let _ = writeln!(out, "  {note}");
    }
    for (op, attempted, failed) in ctx.ledger.rows() {
        let _ = writeln!(
            out,
            "  calls {op:<16} attempted {attempted:>7} failed {failed:>5}"
        );
    }
    for m in ctx.mismatches.iter().take(10) {
        let _ = writeln!(out, "  MISMATCH {m}");
    }
    if ctx.mismatches.len() > 10 {
        let _ = writeln!(out, "  ... {} mismatches in all", ctx.mismatches.len());
    }
}

fn value(ctx: &Ctx, name: &str) -> Result<f64, String> {
    match ctx.metrics.get(name) {
        Some((v, _)) if v.is_finite() => Ok(*v),
        Some((v, _)) => Err(format!("metric {name} is {v}")),
        None => Err(format!("metric {name} was not measured")),
    }
}

/// The paper's shapes, from the end-to-end numbers, as they stand.
fn shapes(ctx: &Ctx, out: &mut String) -> Result<(), String> {
    let verdict = |ok: bool| if ok { "holds" } else { "violated" };
    let overhead = value(ctx, "record_overhead")?;
    let stall = value(ctx, "ckpt_stall_ms.p90")?;
    let search = value(ctx, "search_ms.p50")?;
    let browse = value(ctx, "browse_ms.p50")?;
    let playback = value(ctx, "playback_x")?;
    let _ = writeln!(
        out,
        "  shape fig2 record_overhead {overhead:.2}x <= 1.2 (paper: all but web): {}",
        verdict(overhead <= 1.2)
    );
    let _ = writeln!(
        out,
        "  shape fig3 ckpt_stall_ms.p90 {stall:.3} ms < 10 ms: {}",
        verdict(stall < 10.0)
    );
    let _ = writeln!(
        out,
        "  shape fig5 search_ms.p50 {search:.3} ms <= browse_ms.p50 {browse:.3} ms: {}",
        verdict(search <= browse)
    );
    let _ = writeln!(
        out,
        "  shape fig6 playback_x {playback:.1}x >= 10x: {}",
        verdict(playback >= 10.0)
    );
    Ok(())
}

fn json(ctx_ok: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {ctx_ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn collect(
    ctx: &Ctx,
    names: &[(&'static str, &'static str)],
    out: &mut String,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let v = value(ctx, name)?;
        let _ = writeln!(out, "  {name:<32} {v:>14.4} {unit}");
        metrics.push((name, v, unit));
    }
    Ok(metrics)
}

/// The `--trace 0` report; returns the JSON result line.
pub fn report_end_to_end(ctx: &Ctx) -> Result<String, String> {
    let mut out = String::new();
    lines(ctx, &mut out);
    let metrics = collect(ctx, END_TO_END, &mut out)?;
    shapes(ctx, &mut out)?;
    print!("{out}");
    let ok = ctx.mismatches.is_empty();
    Ok(json(
        ok,
        ctx.ledger.attempted(),
        ctx.ledger.failed(),
        &metrics,
    ))
}

/// Median wall time of one operation in a pass.
fn op_p50(ctx: &Ctx, name: &str) -> Option<f64> {
    ctx.samples
        .get(name)
        .filter(|s| !s.is_empty())
        .map(|s| s.median())
}

/// The `--trace 1` report: the untraced pass's readout, the traced
/// pass's layers and waterfall, and the overhead tracing added.
pub fn report_per_layer(untraced: &Ctx, mut traced: Ctx) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "untraced pass:");
    lines(untraced, &mut out);
    shapes(untraced, &mut out)?;
    let _ = writeln!(out, "traced pass:");
    lines(&traced, &mut out);
    let mut sum_untraced = 0.0;
    let mut sum_traced = 0.0;
    for op in [
        "ckpt_stall_ms",
        "search_ms",
        "browse_ms",
        "visual_ms",
        "revive_ms",
        "archive_reopen_ms",
    ] {
        if let (Some(a), Some(b)) = (op_p50(untraced, op), op_p50(&traced, op)) {
            let _ = writeln!(
                out,
                "  tracing overhead {op:<20} p50 {a:>10.4} -> {b:>10.4} ms ({:+.1}%)",
                100.0 * (b / a - 1.0)
            );
            sum_untraced += a;
            sum_traced += b;
        }
    }
    traced.metric("trace.overhead_ratio", sum_traced / sum_untraced, "x");
    let metrics = collect(&traced, PER_LAYER, &mut out)?;
    out.push_str(&traced.tracer.waterfall());
    print!("{out}");
    let ok = untraced.mismatches.is_empty() && traced.mismatches.is_empty();
    let attempted = untraced.ledger.attempted() + traced.ledger.attempted();
    let failed = untraced.ledger.failed() + traced.ledger.failed();
    Ok(json(ok, attempted, failed, &metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
