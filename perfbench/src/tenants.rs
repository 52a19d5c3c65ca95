//! The `tenants` workload: 16 desktop-like tenants on one
//! `dv_host::Host`, sharing its deduplicating blob store and a
//! one-worker commit pool.
//!
//! Each tenant replays the §6 desktop trace at a small scale from a
//! seeded start round, checkpointing through `Host::checkpoint` every
//! few virtual seconds. Reads after recording mix cross-tenant
//! `search_all`/`visual_all` 1:1 with per-tenant
//! `search_at_checkpoint`/`visual_at_checkpoint` at seeded durable
//! counters, plus browse and revive on seeded tenants.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dv_display::Screenshot;
use dv_host::{CrossVisualHit, Host, HostConfig};
use dv_index::RankOrder;
use dv_obs::{names, Obs};
use dv_time::{Duration, SimClock};
use dv_workloads::{DesktopScenario, Scenario};

use crate::ctx::{peak_rss_mb, reset_peak_rss, Ctx};
use crate::layers::{self, PhaseCounters};
use crate::reads::{self, ReadState, VISUAL_K};
use crate::schedule::{shuffle, Deck, Mins, Op, Schedule};
use crate::single::config;
use crate::stats::{median, median_total};
use crate::trace::LayerTimes;

#[derive(Clone)]
pub struct TenantPlan {
    pub tenants: usize,
    /// Desktop-trace scale per tenant (100 virtual seconds minimum).
    pub scale: f64,
    /// Latest seeded start round of a tenant.
    pub max_offset: u64,
    /// Virtual seconds between one tenant's checkpoints.
    pub ckpt_every: u64,
    /// Steps in one tenant's trace at this scale.
    pub steps: u64,
    /// Live screens sampled per tenant (browse oracle, visual probes).
    pub live_per_tenant: u64,
    pub setups: usize,
    /// Time the set-ups and report `setup_s` and `record_overhead` (off
    /// in the parent of a split run: its children report them).
    pub report_lockstep: bool,
    /// After the pair of fleets, record the read fleet and read it.
    pub read: bool,
    pub mins: Mins,
}

impl TenantPlan {
    /// One of `k` child processes' share: its share of the set-ups and
    /// a pair of fleets, without the read fleet.
    pub fn beside_share(&self, k: usize) -> TenantPlan {
        TenantPlan {
            setups: self.setups.div_ceil(k),
            read: false,
            ..self.clone()
        }
    }

    /// The parent's share: a pair of fleets too, for its checkpoint
    /// stalls and so that its heap has grown as a child's has before
    /// the read fleet, then the read fleet.
    pub fn read_only(&self) -> TenantPlan {
        TenantPlan {
            report_lockstep: false,
            ..self.clone()
        }
    }
}

pub fn plan() -> TenantPlan {
    TenantPlan {
        tenants: 16,
        scale: 120.0 / 3600.0,
        max_offset: 40,
        ckpt_every: 1,
        steps: 120,
        live_per_tenant: 12,
        setups: 5,
        report_lockstep: true,
        read: true,
        mins: crate::metrics::MINS,
    }
}

/// Cross-tenant results: hits per query.
const CROSS_LIMIT: usize = 64;

struct Fleet {
    host: Host,
    ids: Vec<u64>,
    scenarios: Vec<DesktopScenario>,
}

fn build(plan: &TenantPlan, recording: bool, obs: &Obs) -> Fleet {
    let clock = SimClock::new();
    let mut host = Host::with_clock(
        HostConfig {
            commit_workers: 1,
            ..HostConfig::default()
        },
        clock,
    );
    if obs.is_enabled() {
        // The shared store reports into the traced registry too.
        host.store().with(|s| s.set_obs(obs.clone()));
    }
    let mut ids = Vec::new();
    let mut scenarios = Vec::new();
    for t in 0..plan.tenants {
        let mut scenario = DesktopScenario::new(plan.scale);
        let (w, h) = scenario.screen();
        let id = host.create_session(&format!("t{t:02}"), config(w, h, recording, obs.clone()));
        let dv = host.session_mut(id).expect("just created");
        scenario.setup(dv);
        dv.vee_mut().fs.sync().expect("sync after setup");
        ids.push(id);
        scenarios.push(scenario);
    }
    Fleet {
        host,
        ids,
        scenarios,
    }
}

/// One step of tenant `t` plus, when recording, its checkpoint due
/// every `ckpt_every` virtual seconds of its own trace. Returns
/// whether its trace goes on, and the busy wall seconds.
fn tenant_step(
    ctx: &mut Ctx,
    fleet: &mut Fleet,
    t: usize,
    age: u64,
    plan: &TenantPlan,
    recording: bool,
) -> (bool, f64) {
    let id = fleet.ids[t];
    let dv = fleet.host.session_mut(id).expect("tenant");
    let obs = dv.obs().clone();
    let probe = ctx.begin(&obs);
    let more = fleet.scenarios[t].step(dv);
    let (op, sample) = if recording {
        ("record.step", None)
    } else {
        ("app.step", Some("app.step_ms"))
    };
    let mut busy = ctx.end(op, sample, &obs, probe, true).wall.as_secs_f64();
    if recording && age % plan.ckpt_every == plan.ckpt_every - 1 {
        let probe = ctx.begin(&obs);
        let ok = fleet.host.checkpoint(id).is_ok();
        let done = ctx.end("checkpoint", Some("ckpt_stall_ms"), &obs, probe, ok);
        busy += done.wall.as_secs_f64();
        if ok {
            ctx.sample("host.checkpoint_ms").push_wall(done.wall);
            let depth = obs.gauge(names::CHECKPOINT_QUEUE_DEPTH) as f64;
            ctx.sample("host.commit_queue_depth").push(depth);
        }
    }
    (more, busy)
}

/// Advances tenant `t`'s VEE by one tick.
fn tick(fleet: &mut Fleet, t: usize) {
    fleet
        .host
        .session_mut(fleet.ids[t])
        .expect("tenant")
        .vee_mut()
        .tick();
}

/// Drives every tenant from its start round to the end of its trace,
/// one virtual second per round on the host clock, on the recording
/// fleet and (in lockstep, tenant by tenant) on the unrecorded `base`
/// if given. `between` runs after each recording tenant's second; its
/// time is not counted. Returns busy wall seconds of each tenant's
/// steps, recorded and unrecorded.
fn drive(
    ctx: &mut Ctx,
    fleet: &mut Fleet,
    mut base: Option<&mut Fleet>,
    plan: &TenantPlan,
    offsets: &[u64],
    mut between: impl FnMut(&mut Ctx, &mut Fleet, usize),
) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut done = vec![false; plan.tenants];
    let mut full_busy = vec![Vec::new(); plan.tenants];
    let mut base_busy = vec![Vec::new(); plan.tenants];
    let mut round = 0u64;
    while done.iter().any(|d| !d) {
        for t in 0..plan.tenants {
            if done[t] || round < offsets[t] {
                continue;
            }
            let age = round - offsets[t];
            if let Some(base) = base.as_deref_mut() {
                base_busy[t].push(tenant_step(ctx, base, t, age, plan, false).1);
            }
            let (more, busy) = tenant_step(ctx, fleet, t, age, plan, true);
            full_busy[t].push(busy);
            done[t] = !more;
        }
        fleet.host.clock().advance(Duration::from_secs(1));
        if let Some(base) = base.as_deref_mut() {
            base.host.clock().advance(Duration::from_secs(1));
        }
        for (t, &offset) in offsets.iter().enumerate() {
            if round >= offset {
                tick(fleet, t);
                if let Some(base) = base.as_deref_mut() {
                    tick(base, t);
                }
                between(ctx, fleet, t);
            }
        }
        round += 1;
    }
    (full_busy, base_busy)
}

/// `visual_all`'s answer rebuilt from each tenant's linear scan in the
/// host's merge order.
fn cross_visual_oracle(fleet: &Fleet, probe: &Screenshot) -> Vec<(u64, dejaview::VisualHit)> {
    let mut all = Vec::new();
    for &id in &fleet.ids {
        let dv = fleet.host.session(id).expect("tenant");
        if let Some(v) = dv.vidx() {
            if let Ok(hits) = v.query_linear(probe, VISUAL_K) {
                all.extend(hits.into_iter().map(|h| (id, h)));
            }
        }
    }
    all.sort_by(|(ta, a), (tb, b)| {
        (a.distance, std::cmp::Reverse(a.last), ta)
            .cmp(&(b.distance, std::cmp::Reverse(b.last), tb))
            .then(std::cmp::Reverse(a.id).cmp(&std::cmp::Reverse(b.id)))
    });
    all.truncate(VISUAL_K);
    all
}

/// Tenant `t`'s read state, plus a deck alternating cross-tenant and
/// per-tenant calls 1:1 in seeded order.
pub struct TenantReads {
    pub st: Vec<ReadState>,
    mix: [Deck; 2],
}

fn search(
    ctx: &mut Ctx,
    fleet: &mut Fleet,
    t: usize,
    r: &mut TenantReads,
    rng: &mut StdRng,
) -> bool {
    let q = r.st[t].query(rng);
    if r.mix[0].draw(2, rng) == 0 {
        let obs = fleet
            .host
            .session(fleet.ids[t])
            .expect("tenant")
            .obs()
            .clone();
        let probe = ctx.begin(&obs);
        let result = fleet
            .host
            .search_all(&q, RankOrder::Chronological, CROSS_LIMIT);
        let done = ctx.end("search_all", Some("search_ms"), &obs, probe, result.is_ok());
        if result.is_ok() {
            ctx.sample("host.search_all_ms").push_wall(done.wall);
        }
        return true;
    }
    let dv = fleet.host.session(fleet.ids[t]).expect("tenant");
    let Some(n) = r.st[t].counter(&reads::durable_counters(dv), rng) else {
        return false;
    };
    let obs = dv.obs().clone();
    let probe = ctx.begin(&obs);
    let result = dv.search_at_checkpoint(n, &q, RankOrder::Chronological);
    ctx.end("search_at", Some("search_ms"), &obs, probe, result.is_ok());
    true
}

fn visual(
    ctx: &mut Ctx,
    fleet: &mut Fleet,
    t: usize,
    r: &mut TenantReads,
    rng: &mut StdRng,
) -> bool {
    let Some(probe_shot) = r.st[t].probe(rng) else {
        return false;
    };
    let obs = fleet
        .host
        .session(fleet.ids[t])
        .expect("tenant")
        .obs()
        .clone();
    let done = if r.mix[1].draw(2, rng) == 0 {
        let probe = ctx.begin(&obs);
        let hits: Vec<CrossVisualHit> = fleet.host.visual_all(&probe_shot, VISUAL_K);
        let done = ctx.end("visual_all", Some("visual_ms"), &obs, probe, true);
        ctx.sample("host.visual_all_ms").push_wall(done.wall);
        let got: Vec<(u64, dejaview::VisualHit)> =
            hits.into_iter().map(|c| (c.tenant, c.hit)).collect();
        let oracle = cross_visual_oracle(fleet, &probe_shot);
        ctx.check(got == oracle, || {
            "visual_all differs from the per-tenant linear scans".into()
        });
        done
    } else {
        let dv = fleet.host.session(fleet.ids[t]).expect("tenant");
        let Some(n) = r.st[t].counter(&reads::durable_counters(dv), rng) else {
            return false;
        };
        let probe = ctx.begin(&obs);
        let result = dv.visual_at_checkpoint(n, &probe_shot, VISUAL_K);
        ctx.end("visual_at", Some("visual_ms"), &obs, probe, result.is_ok())
    };
    if ctx.tracing() {
        let ns = done.layers.get(names::VIDX_QUERY);
        ctx.sample("vidx.query_ms").push(ns as f64 / 1e6);
    }
    true
}

/// Tenant `t` archived and reopened alone, under its blob namespace.
fn archive(ctx: &mut Ctx, fleet: &mut Fleet, t: usize, r: &mut TenantReads, rng: &mut StdRng) {
    let label = fleet
        .host
        .tenant_label(fleet.ids[t])
        .expect("tenant")
        .to_string();
    let dv = fleet.host.session_mut(fleet.ids[t]).expect("tenant");
    let (w, h) = dv.screen_size();
    let config = dejaview::Config {
        blob_prefix: Some(label),
        ..config(w, h, true, Obs::disabled())
    };
    reads::archive_round_trip(ctx, dv, config, &mut r.st[t], rng);
}

fn restore_fingerprints(fleet: &mut Fleet) -> Vec<Option<u64>> {
    let ids = fleet.ids.clone();
    ids.iter()
        .map(|&id| fleet.host.restore_fingerprint(id, &[]).ok())
        .collect()
}

pub fn run(plan: &TenantPlan, seed: u64, seconds: f64, ctx: &mut Ctx) -> Result<(), String> {
    let trace = ctx.tracing();
    ctx.inline_commit = false;
    let mut rng = StdRng::seed_from_u64(seed);
    // Start offsets one per slot of `max_offset / tenants` rounds, the
    // slots dealt to tenants in seeded order with a seeded point inside
    // each: how many tenants overlap stays the same from seed to seed.
    let mut slots: Vec<u64> = (0..plan.tenants as u64).collect();
    shuffle(&mut slots, &mut rng);
    let width = plan.max_offset as f64 / plan.tenants as f64;
    let offsets: Vec<u64> = slots
        .iter()
        .map(|&slot| ((slot as f64 + rng.gen::<f64>()) * width) as u64)
        .collect();
    let traced_obs = || {
        if trace {
            Obs::wall(SimClock::new().shared())
        } else {
            Obs::disabled()
        }
    };

    // Set up several times; one fleet is alive at a time.
    if plan.report_lockstep {
        let setups: Vec<f64> = (0..plan.setups)
            .map(|_| {
                let started = Instant::now();
                let _fleet = build(plan, true, &traced_obs());
                started.elapsed().as_secs_f64()
            })
            .collect();
        ctx.metric("setup_s", median(&setups), "s");
    }

    // `record_overhead`: a recording fleet beside the unrecorded one,
    // tenant by tenant in lockstep. Every tenant runs the same trace,
    // so each step's median over tenants, summed, is a typical
    // tenant's record phase, recorded and not.
    let mut fleet = build(plan, true, &traced_obs());
    let mut base = build(plan, false, &traced_obs());
    let (full_runs, base_runs) = drive(
        ctx,
        &mut fleet,
        Some(&mut base),
        plan,
        &offsets,
        |_, _, _| {},
    );
    let _ = fleet.host.flush_all();
    drop((fleet, base));
    if plan.report_lockstep {
        let (full_busy, base_busy) = (median_total(&full_runs), median_total(&base_runs));
        ctx.metric("record_overhead", full_busy / base_busy, "x");
        ctx.note(format!(
            "typical tenant of the lockstep fleet: record {full_busy:.3} s, same steps unrecorded {base_busy:.3} s"
        ));
    }
    if !plan.read {
        return Ok(());
    }

    // The fleet that is read records alone, so the peak resident set
    // from here on is the recorder's, not the baseline's.
    reset_peak_rss()?;
    let mut fleet = build(plan, true, &traced_obs());

    let mut r = TenantReads {
        st: (0..plan.tenants)
            .map(|_| {
                ReadState::new(
                    dv_workloads::common::WORDS
                        .iter()
                        .map(|w| w.to_string())
                        .collect(),
                )
            })
            .collect(),
        mix: Default::default(),
    };
    let reg = fleet
        .host
        .session(fleet.ids[0])
        .expect("tenant")
        .obs()
        .clone();
    let layers_before: Vec<(LayerTimes, PhaseCounters)> = fleet
        .ids
        .iter()
        .map(|&id| {
            let o = fleet.host.session(id).expect("tenant").obs().clone();
            (LayerTimes::read(&o, false), PhaseCounters::read(&o))
        })
        .collect();
    let period = (plan.steps / plan.live_per_tenant).max(1);
    let mut ages = vec![0u64; plan.tenants];
    drive(ctx, &mut fleet, None, plan, &offsets, |_, fleet, t| {
        ages[t] += 1;
        if ages[t] % period == period / 2 {
            let dv = fleet.host.session(fleet.ids[t]).expect("tenant");
            r.st[t].sample_live(dv, &mut rng);
        }
    });
    let _ = fleet.host.flush_all();
    fleet.host.compact_round();
    let _ = fleet.host.flush_all();

    // Per-tenant registries (untraced) or one shared one (traced).
    let mut layer_time = LayerTimes::default();
    let mut counters: Option<PhaseCounters> = None;
    let mut recorded_vs = 0.0;
    for (i, &id) in fleet.ids.iter().enumerate() {
        let dv = fleet.host.session(id).expect("tenant");
        recorded_vs += dv.record().read().duration().as_secs_f64();
        if trace && i > 0 {
            continue;
        }
        let o = dv.obs().clone();
        layer_time = layer_time.plus(&LayerTimes::read(&o, false).since(&layers_before[i].0));
        let delta = PhaseCounters::read(&o).since(&layers_before[i].1);
        match &mut counters {
            Some(c) => c.add(&delta),
            None => counters = Some(delta),
        }
    }
    let before = restore_fingerprints(&mut fleet);

    // --- Reads. -----------------------------------------------------
    let mut schedule = Schedule::new(&plan.mins, trace, false, &mut rng);
    let mut tenants = Deck::default();
    // One untimed round trip and replay first: the heap grows to hold
    // an archive once, not inside the first timed one.
    let mut warm = Ctx::new(false);
    archive(&mut warm, &mut fleet, 0, &mut r, &mut rng);
    reads::replay(&mut warm, fleet.host.session(fleet.ids[0]).expect("tenant"));
    ctx.absorb_checks(warm);
    schedule.start_window(seconds);
    let mut stuck = 0;
    while let Some(op) = schedule.next_in_window(&mut rng) {
        let t = tenants.draw(plan.tenants, &mut rng);
        let ran = match op {
            Op::Search => search(ctx, &mut fleet, t, &mut r, &mut rng),
            Op::Visual => visual(ctx, &mut fleet, t, &mut r, &mut rng),
            Op::Replay => {
                reads::replay(ctx, fleet.host.session(fleet.ids[t]).expect("tenant"));
                true
            }
            Op::Archive => {
                // Always the first tenant: each tenant's archive carries
                // the whole shared store, so one is as large as another,
                // and the same one keeps the round trips comparable.
                archive(ctx, &mut fleet, 0, &mut r, &mut rng);
                true
            }
            _ => {
                let dv = fleet.host.session_mut(fleet.ids[t]).expect("tenant");
                reads::issue(ctx, dv, op, &mut r.st[t], &mut rng)
            }
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

    let after = restore_fingerprints(&mut fleet);
    for (t, (a, b)) in before.iter().zip(&after).enumerate() {
        ctx.check(a.is_some() && a == b, || {
            format!("tenant {t}: restore fingerprint {a:?} before reads, {b:?} after")
        });
    }

    let mut stored = fleet.host.storage_physical_bytes();
    for &id in &fleet.ids {
        let s = fleet.host.session(id).expect("tenant").storage();
        stored += s.display_bytes + s.index_bytes + s.fs_bytes;
    }
    let playback = ctx.samples.get("playback_x").map_or(0.0, |s| s.median());
    ctx.metric("playback_x", playback, "x");
    ctx.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    ctx.metric(
        "storage_mb_per_vs",
        stored as f64 / 1e6 / recorded_vs,
        "MB/vs",
    );
    let counters = counters.expect("at least one tenant");
    layers::record_phase(ctx, &layer_time, &counters, recorded_vs);
    layers::medians(ctx);
    let live: u64 = fleet
        .ids
        .iter()
        .filter_map(|&id| fleet.host.session(id).ok()?.vidx())
        .map(|v| v.linear_probe_cost())
        .sum::<u64>()
        / plan.tenants as u64;
    layers::query_side(ctx, &reg, live);
    if let Some(cas) = fleet.host.storage_cas_stats() {
        let hits = cas.dedup_hits as f64;
        let lookups = (cas.dedup_hits + cas.dedup_misses) as f64;
        ctx.metric(
            "cas.dedup_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        let logical = cas.logical_bytes.max(1) as f64;
        ctx.metric(
            "cas.physical_per_logical",
            cas.physical_bytes as f64 / logical,
            "ratio",
        );
    }
    let depth = ctx
        .samples
        .get("host.commit_queue_depth")
        .map_or(0.0, |s| s.max());
    ctx.metric("host.commit_queue_depth.max", depth, "count");
    ctx.note(format!(
        "{} tenants, {recorded_vs:.0} virtual s recorded in all (read fleet)",
        plan.tenants
    ));
    let default = dejaview::Config::default();
    ctx.note(format!(
        "working set: {} index seals in all (segment cache {} per tenant); {live} visual instances per tenant; \
         {} keyframes; {} blobs in the shared store",
        counters.get(names::TIDX_SEALS),
        default.index_segment_cache,
        counters.get(names::DISPLAY_KEYFRAMES),
        fleet.host.store().with(|s| s.names().len()),
    ));
    Ok(())
}
