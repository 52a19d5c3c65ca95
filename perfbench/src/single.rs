//! The single-tenant workloads: `web`, `octave` and `desktop`.
//!
//! One run sets a recording server up several times (the median is
//! `setup_s`) and records the scenario in several sessions with full
//! recording and checkpoints. Before each of them but the last, a
//! second server runs the same steps with recording off, so both sides
//! of `record_overhead` see the same machine. The last session records
//! alone, so `peak_rss_mb` counts the recorder and not the baseline.
//! Seeded reads then run on it for the time budget, with whole-record
//! replays and archive→reopen round trips spread over it. `desktop`
//! also issues its mandatory reads between the last session's
//! recording steps, so they run beside writes, seals and compaction.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dejaview::{Config, DejaView};
use dv_obs::Obs;
use dv_time::SimClock;
use dv_workloads::{scenario_by_name, Scenario};

use crate::ctx::{peak_rss_mb, reset_peak_rss, Ctx};
use crate::layers::{self, PhaseCounters};
use crate::reads::{self, ReadState};
use crate::schedule::{Mins, Op, Schedule};
use crate::stats::{median, median_total};
use crate::trace::LayerTimes;

/// How one single-tenant workload is sized and driven.
#[derive(Clone)]
pub struct Plan {
    pub scenario: &'static str,
    pub scale: f64,
    /// Checkpoint through the display-activity policy (else one
    /// forced checkpoint per virtual second).
    pub policy: bool,
    /// Issue the mandatory reads between recording steps.
    pub interleave: bool,
    /// Sessions recorded beside an unrecorded baseline, for
    /// `record_overhead` (and checkpoint samples).
    pub beside: usize,
    /// Then record one more session alone and read it.
    pub read: bool,
    /// Steps in one session at this scale (sets the cadence of live
    /// samples and interleaved reads).
    pub steps: u64,
    /// Live screens sampled for the browse oracle and visual probes.
    pub live_samples: u64,
    /// Set-up repetitions (the median is `setup_s`; none, no metric).
    pub setups: usize,
    pub mins: Mins,
    /// Query terms for reads interleaved with recording (the words the
    /// scenario writes on screen); reads after recording draw from the
    /// recorded text itself.
    pub vocabulary: &'static [&'static str],
}

impl Plan {
    /// One of `k` processes' share of the set-ups and of the sessions
    /// beside the baseline, without the read session.
    pub fn beside_share(&self, k: usize) -> Plan {
        Plan {
            beside: self.beside.div_ceil(k),
            setups: self.setups.div_ceil(k),
            read: false,
            ..self.clone()
        }
    }

    /// The read session alone.
    pub fn read_only(&self) -> Plan {
        Plan {
            beside: 0,
            setups: 0,
            ..self.clone()
        }
    }
}

/// A session's configuration: `Config::default()` at the scenario's
/// screen size, with every recording stream on or off.
pub fn config(width: u32, height: u32, recording: bool, obs: Obs) -> Config {
    Config {
        width,
        height,
        enable_display_recording: recording,
        enable_text_capture: recording,
        enable_visual_index: recording,
        obs,
        ..Config::default()
    }
}

/// A server with its scenario set up, and the set-up's wall time.
fn set_up(plan: &Plan, recording: bool, trace: bool) -> (DejaView, Box<dyn Scenario>, f64) {
    let started = Instant::now();
    let mut scenario = scenario_by_name(plan.scenario, plan.scale).expect("known scenario");
    let (w, h) = scenario.screen();
    let clock = SimClock::new();
    let obs = if trace {
        Obs::wall(clock.shared())
    } else {
        Obs::disabled()
    };
    let mut dv = DejaView::with_clock(config(w, h, recording, obs), clock);
    scenario.setup(&mut dv);
    dv.vee_mut().fs.sync().expect("sync after setup");
    (dv, scenario, started.elapsed().as_secs_f64())
}

/// One scenario step on `dv` plus, when recording, the checkpoint due
/// at each whole virtual second. Returns whether the scenario has more
/// steps, and the busy wall seconds.
fn step(
    ctx: &mut Ctx,
    dv: &mut DejaView,
    scenario: &mut dyn Scenario,
    plan: &Plan,
    recording: bool,
) -> (bool, f64) {
    let obs = dv.obs().clone();
    let before = dv.now();
    let probe = ctx.begin(&obs);
    let more = scenario.step(dv);
    dv.clock().advance(scenario.step_duration());
    dv.vee_mut().tick();
    let (op, sample) = if recording {
        ("record.step", None)
    } else {
        ("app.step", Some("app.step_ms"))
    };
    let mut busy = ctx.end(op, sample, &obs, probe, true).wall.as_secs_f64();
    let second = |t: dv_time::Timestamp| t.as_nanos() / 1_000_000_000;
    if recording && second(dv.now()) > second(before) {
        let probe = ctx.begin(&obs);
        let (ok, took) = if plan.policy {
            match dv.policy_tick() {
                Ok(tick) => (true, tick.report.is_some()),
                Err(_) => (false, true),
            }
        } else {
            (dv.checkpoint_now().is_ok(), true)
        };
        let op = if took { "checkpoint" } else { "policy_skip" };
        let sample = took.then_some("ckpt_stall_ms");
        busy += ctx.end(op, sample, &obs, probe, ok).wall.as_secs_f64();
    }
    (more, busy)
}

/// Runs one single-tenant workload with `seconds` of reads.
pub fn run(plan: &Plan, seed: u64, seconds: f64, ctx: &mut Ctx) -> Result<(), String> {
    let trace = ctx.tracing();
    let mut rng = StdRng::seed_from_u64(seed);

    if plan.setups > 0 {
        let setups: Vec<f64> = (0..plan.setups)
            .map(|_| set_up(plan, true, trace).2)
            .collect();
        ctx.metric("setup_s", median(&setups), "s");
    }

    // Busy wall seconds of each step, recorded and unrecorded, per
    // session beside the baseline.
    let (mut full_runs, mut base_runs) = (Vec::new(), Vec::new());
    let mut recorded_vs = 0.0;
    let mut layer_time = LayerTimes::default();
    let mut counters: Option<PhaseCounters> = None;
    let mut st = ReadState::new(plan.vocabulary.iter().map(|w| w.to_string()).collect());
    let mut schedule = Schedule::new(&plan.mins, trace, plan.interleave, &mut rng);
    let mut read_on = None;
    let sessions = plan.beside + plan.read as usize;
    for session in 0..sessions {
        let last = plan.read && session + 1 == sessions;
        if last {
            // Every earlier server and baseline is gone: from here on
            // the peak is the read session's own.
            reset_peak_rss()?;
        }
        let (mut dv, mut scenario, _) = set_up(plan, true, trace);
        let mut base = (!last).then(|| set_up(plan, false, trace));
        let every = (plan.steps / plan.live_samples).max(1);
        let per_step = schedule.total() as f64 / plan.steps as f64;
        let obs = dv.obs().clone();
        let layers_before = LayerTimes::read(&obs, true);
        let counters_before = PhaseCounters::read(&obs);
        let start = dv.now();
        let mut i = 0u64;
        let mut issued = 0usize;
        let (mut base_s, mut full_s) = (Vec::new(), Vec::new());
        // The unrecorded session runs whole just before the recorded
        // one: close enough in time to see the same machine, and its
        // steps are not run in the caches a recording step just left.
        if let Some((base, base_scenario, _)) = base.as_mut() {
            loop {
                let (more, busy) = step(ctx, base, &mut **base_scenario, plan, false);
                base_s.push(busy);
                if !more {
                    break;
                }
            }
        }
        loop {
            let (more, busy) = step(ctx, &mut dv, &mut *scenario, plan, true);
            full_s.push(busy);
            if last && i % every == every / 2 {
                st.sample_live(&dv, &mut rng);
            }
            if last && plan.interleave {
                // Evenly spaced: the reads due by the end of step `i`.
                let due = ((i + 1) as f64 * per_step).round() as usize;
                while issued < due {
                    issued += 1;
                    let Some(op) = schedule.next() else { break };
                    if !reads::issue(ctx, &mut dv, op, &mut st, &mut rng) {
                        schedule.defer(op);
                    }
                }
            }
            i += 1;
            if !more {
                break;
            }
        }
        if i != plan.steps {
            return Err(format!(
                "{} has {i} steps, the plan says {}",
                plan.scenario, plan.steps
            ));
        }
        if base.is_some() {
            full_runs.push(full_s);
            base_runs.push(base_s);
        }
        recorded_vs += dv.now().saturating_since(start).as_secs_f64();
        layer_time = layer_time.plus(&LayerTimes::read(&obs, true).since(&layers_before));
        let delta = PhaseCounters::read(&obs).since(&counters_before);
        match &mut counters {
            Some(c) => c.add(&delta),
            None => counters = Some(delta),
        }
        if last {
            read_on = Some((dv, scenario));
        }
    }
    if !full_runs.is_empty() {
        // Each step's median over the sessions, summed: the record
        // phase of a typical session, recorded and not.
        let (full_busy, base_busy) = (median_total(&full_runs), median_total(&base_runs));
        ctx.metric("record_overhead", full_busy / base_busy, "x");
        ctx.note(format!(
            "typical session of the {} of {} steps beside the baseline: record {full_busy:.3} s, same steps unrecorded {base_busy:.3} s",
            full_runs.len(),
            plan.steps
        ));
    }
    let Some((mut dv, _scenario)) = read_on else {
        return Ok(());
    };
    let storage = dv.storage();
    let blob_bytes = dv.store_mut().stats().bytes_written;

    // --- Reads after recording, for the time budget. ---------------
    let (w, h) = dv.screen_size();
    // Untimed first: one archive round trip and replay, so the heap
    // grows to hold them once, not inside the first timed ones.
    if !plan.interleave {
        st.terms = reads::recorded_terms(&dv);
    }
    let mut warm = Ctx::new(false);
    reads::archive_round_trip(
        &mut warm,
        &mut dv,
        config(w, h, true, Obs::disabled()),
        &mut st,
        &mut rng,
    );
    reads::replay(&mut warm, &dv);
    ctx.absorb_checks(warm);
    schedule.start_window(seconds);
    let mut stuck = 0;
    while let Some(op) = schedule.next_in_window(&mut rng) {
        let ran = match op {
            Op::Replay => {
                reads::replay(ctx, &dv);
                true
            }
            Op::Archive => {
                let config = config(w, h, true, Obs::disabled());
                reads::archive_round_trip(ctx, &mut dv, config, &mut st, &mut rng);
                true
            }
            _ => reads::issue(ctx, &mut dv, op, &mut st, &mut rng),
        };
        if ran {
            stuck = 0;
        } else {
            stuck += 1;
            if stuck > 64 {
                return Err(format!("read {op:?} cannot run on this record"));
            }
            schedule.defer(op);
        }
    }

    // Display, index, blob-store and file-system bytes of the record
    // the reads ran on, per recorded virtual second.
    let last_vs = dv.record().read().duration().as_secs_f64();
    let stored = storage.display_bytes + storage.index_bytes + storage.fs_bytes + blob_bytes;
    ctx.metric(
        "storage_mb_per_vs",
        stored as f64 / 1e6 / last_vs.max(1e-9),
        "MB/vs",
    );
    let playback = ctx.samples.get("playback_x").map_or(0.0, |s| s.median());
    ctx.metric("playback_x", playback, "x");
    ctx.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    let counters = counters.expect("at least one session");
    layers::record_phase(ctx, &layer_time, &counters, recorded_vs);
    layers::medians(ctx);
    let live_instances = dv.vidx().map_or(0, |v| v.linear_probe_cost());
    layers::query_side(ctx, &dv.obs().clone(), live_instances);
    ctx.note(format!(
        "recorded {recorded_vs:.0} virtual s in {sessions} session(s) of {} steps",
        plan.steps
    ));
    ctx.note(format!(
        "read set: {} live screens, {} visual probes, {} query terms",
        st.live.len(),
        st.probes.len(),
        st.terms.len(),
    ));
    let seals = counters.get(dv_obs::names::TIDX_SEALS);
    let live_segments = dv.tidx().map_or(0, |t| t.stats().live_segments);
    ctx.note(format!(
        "working set: {seals} index seals, {live_segments} live segments (segment cache {}); \
         {} distinct portal times (portal cache {}); {live_instances} visual instances; \
         {} keyframes (playback keyframe cache 16)",
        Config::default().index_segment_cache,
        st.portal_times.len(),
        Config::default().search_cache,
        counters.get(dv_obs::names::DISPLAY_KEYFRAMES),
    ));
    Ok(())
}
