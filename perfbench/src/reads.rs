//! Seeded read requests against one recording server, each checked
//! against an oracle: search, browse, visual recall, revive, the
//! direct layer calls of a traced run, whole-record replay and
//! archive→reopen.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use dejaview::{Config, DejaView};
use dv_display::Screenshot;
use dv_index::RankOrder;
use dv_obs::{names, Obs};
use dv_record::PlaybackEngine;
use dv_time::{Duration, Timestamp};

use crate::ctx::Ctx;
use crate::schedule::{Deck, Op};

/// Nearest thumbnails asked for per visual query.
pub const VISUAL_K: usize = 8;
/// Visual probes kept for queries (full-resolution screens).
const PROBES: usize = 12;

/// One live screen sampled during recording: browse must rebuild it.
#[derive(Clone, Copy)]
pub struct LiveScreen {
    pub at: Timestamp,
    pub fingerprint: u64,
}

/// What reads draw from: sampled screens, query terms, probes.
pub struct ReadState {
    pub live: Vec<LiveScreen>,
    pub terms: Vec<String>,
    pub probes: Vec<Screenshot>,
    probes_seen: usize,
    /// Distinct screenshot-portal times searches returned: the working
    /// set of the server's portal cache.
    pub portal_times: BTreeSet<u64>,
    decks: [Deck; 4],
    /// The benchmark's own playback engine for direct seeks.
    engine: Option<PlaybackEngine>,
}

const LIVE: usize = 0;
const PROBE: usize = 1;
const COUNTER: usize = 2;
/// Strata of the durable counters that revives and checkpoint reads
/// draw from.
const COUNTER_STRATA: usize = 32;
const TERM: usize = 3;

impl ReadState {
    pub fn new(terms: Vec<String>) -> Self {
        ReadState {
            live: Vec::new(),
            terms,
            probes: Vec::new(),
            probes_seen: 0,
            portal_times: BTreeSet::new(),
            decks: Default::default(),
            engine: None,
        }
    }

    /// Samples the live screen: its fingerprint for the browse oracle,
    /// and (reservoir-sampled) the screen itself as a visual probe.
    pub fn sample_live(&mut self, dv: &DejaView, rng: &mut StdRng) {
        let shot = dv.driver().snapshot();
        self.live.push(LiveScreen {
            // The next step's commands are stamped at `now`.
            at: dv.now() - Duration::from_nanos(1),
            fingerprint: shot.content_hash(),
        });
        self.probes_seen += 1;
        if self.probes.len() < PROBES {
            self.probes.push(shot);
        } else {
            let j = rng.gen_range(0..self.probes_seen);
            if j < PROBES {
                self.probes[j] = shot;
            }
        }
    }

    pub fn live_screen(&mut self, rng: &mut StdRng) -> Option<LiveScreen> {
        let n = self.live.len();
        (n > 0).then(|| self.live[self.decks[LIVE].draw(n, rng)])
    }

    pub fn probe(&mut self, rng: &mut StdRng) -> Option<Screenshot> {
        let n = self.probes.len();
        (n > 0).then(|| self.probes[self.decks[PROBE].draw(n, rng)].clone())
    }

    /// A durable counter, by its position among `counters`: positions
    /// are dealt from evenly spaced strata in seeded order, so the mix
    /// of old and recent checkpoints is the same from seed to seed even
    /// while recording adds counters.
    pub fn counter(&mut self, counters: &[u64], rng: &mut StdRng) -> Option<u64> {
        let n = counters.len();
        let stratum = self.decks[COUNTER].draw(COUNTER_STRATA, rng);
        (n > 0).then(|| counters[(stratum * 2 + 1) * n / (2 * COUNTER_STRATA)])
    }

    /// A query: one recorded term, or for every fourth term the
    /// two-term conjunction with its neighbour, narrower the way §6's
    /// contextual queries are. Each term always makes the same query,
    /// so a seed changes the order of queries, not the set.
    pub fn query(&mut self, rng: &mut StdRng) -> String {
        let n = self.terms.len();
        if n == 0 {
            return "session".into();
        }
        let i = self.decks[TERM].draw(n, rng);
        if i % 4 == 3 {
            format!("{} {}", self.terms[i], self.terms[(i + 1) % n])
        } else {
            self.terms[i].clone()
        }
    }
}

/// Every distinct indexed word of the text the open index holds: the
/// words the record actually shows, for queries issued after recording.
pub fn recorded_terms(dv: &DejaView) -> Vec<String> {
    let index = dv.index();
    let index = index.lock();
    let terms: BTreeSet<String> = index
        .all_instances()
        .flat_map(|i| dv_index::tokenizer::index_tokens(&i.text))
        .collect();
    terms.into_iter().collect()
}

pub fn durable_counters(dv: &DejaView) -> Vec<u64> {
    dv.engine().images().map(|m| m.counter).collect()
}

/// Issues one search, browse, visual, revive or direct layer call;
/// returns `false` when it cannot run yet (a revive before the first
/// checkpoint) so the caller can defer it.
pub fn issue(
    ctx: &mut Ctx,
    dv: &mut DejaView,
    op: Op,
    st: &mut ReadState,
    rng: &mut StdRng,
) -> bool {
    let obs = dv.obs().clone();
    match op {
        Op::Search => search(ctx, dv, &obs, st, rng),
        Op::Browse => match st.live_screen(rng) {
            Some(live) => browse(ctx, dv, &obs, live),
            None => return false,
        },
        Op::Visual => match st.probe(rng) {
            Some(probe) => visual(ctx, dv, &obs, &probe),
            None => return false,
        },
        Op::Revive => match st.counter(&durable_counters(dv), rng) {
            Some(counter) => revive(ctx, dv, &obs, counter),
            None => return false,
        },
        Op::TidxQuery => tidx_direct(ctx, dv, st, rng),
        Op::Seek => match st.live_screen(rng) {
            Some(live) => seek_direct(ctx, dv, st, live),
            None => return false,
        },
        Op::Replay | Op::Archive => unreachable!("issued by the workload"),
    }
    true
}

fn search(ctx: &mut Ctx, dv: &mut DejaView, obs: &Obs, st: &mut ReadState, rng: &mut StdRng) {
    let q = st.query(rng);
    let probe = ctx.begin(obs);
    let result = dv.search(&q, RankOrder::Chronological);
    let done = ctx.end("search", Some("search_ms"), obs, probe, result.is_ok());
    if let Ok(results) = result {
        let mut portals = 0;
        for r in &results {
            st.portal_times.insert(r.hit.time.as_nanos());
            portals += 1;
            if r.last_screenshot.is_some() {
                st.portal_times.insert(r.hit.until.as_nanos());
                portals += 1;
            }
        }
        if ctx.tracing() {
            ctx.sample("record.portals_per_search").push(portals as f64);
            let tidx_ns = done.layers.get(names::TIDX_QUERY) as f64;
            let portal_ns = (done.wall.as_nanos() as f64 - tidx_ns).max(0.0);
            ctx.sample("record.portal_ms").push(portal_ns / 1e6);
        }
    }
}

fn browse(ctx: &mut Ctx, dv: &mut DejaView, obs: &Obs, live: LiveScreen) {
    let probe = ctx.begin(obs);
    let result = dv.browse(live.at);
    let ok = result.is_ok();
    ctx.end("browse", Some("browse_ms"), obs, probe, ok);
    if let Ok(shot) = result {
        let got = shot.content_hash();
        ctx.check(got == live.fingerprint, || {
            format!(
                "browse({:?}) rebuilt {got:016x}, live screen was {:016x}",
                live.at, live.fingerprint
            )
        });
    }
}

fn visual(ctx: &mut Ctx, dv: &mut DejaView, obs: &Obs, probe_shot: &Screenshot) {
    let probe = ctx.begin(obs);
    let result = dv.visual_hits(probe_shot, VISUAL_K);
    let done = ctx.end("visual", Some("visual_ms"), obs, probe, result.is_ok());
    if ctx.tracing() {
        let ns = done.layers.get(names::VIDX_QUERY);
        ctx.sample("vidx.query_ms").push(ns as f64 / 1e6);
    }
    if let Ok(hits) = result {
        let oracle = dv
            .vidx()
            .and_then(|v| v.query_linear(probe_shot, VISUAL_K).ok());
        ctx.check(oracle.as_ref() == Some(&hits), || {
            format!("visual_hits differs from the linear scan: {hits:?} vs {oracle:?}")
        });
    }
}

fn revive(ctx: &mut Ctx, dv: &mut DejaView, obs: &Obs, counter: u64) {
    dv.store_mut().drop_caches();
    let gets = obs.counter(names::LSFS_BLOB_GETS);
    let probe = ctx.begin(obs);
    let result = dv.revive_counter(counter);
    ctx.end("revive", Some("revive_ms"), obs, probe, result.is_ok());
    if let Ok(id) = result {
        if ctx.tracing() {
            let pages = dv.session(id).map_or(0, |s| s.report.pages_installed);
            ctx.sample("checkpoint.pages_per_revive").push(pages as f64);
            let gets = obs.counter(names::LSFS_BLOB_GETS) - gets;
            ctx.sample("lsfs.blob_gets_per_revive").push(gets as f64);
        }
        let closed = dv.close_session(id).is_ok();
        ctx.ledger.count("close_session", closed);
    }
}

fn tidx_direct(ctx: &mut Ctx, dv: &mut DejaView, st: &mut ReadState, rng: &mut StdRng) {
    let Some(tidx) = dv.tidx() else { return };
    let Ok(query) = dv_index::parse_query(&st.query(rng)) else {
        ctx.ledger.count("tidx.query", false);
        return;
    };
    let counters = durable_counters(dv);
    let at = if rng.gen_bool(0.5) {
        st.counter(&counters, rng)
    } else {
        None
    };
    let obs = dv.obs().clone();
    let probe = ctx.begin(&obs);
    let ok = match at {
        Some(counter) => tidx
            .search_at(counter, &query, RankOrder::Chronological)
            .is_ok(),
        None => tidx.search(&query, RankOrder::Chronological).is_ok(),
    };
    let done = ctx.end("tidx.query", Some("tidx.query_ms"), &obs, probe, ok);
    if ok && at.is_some() {
        ctx.sample("tidx.search_at_ms").push_wall(done.wall);
    }
}

fn seek_direct(ctx: &mut Ctx, dv: &mut DejaView, st: &mut ReadState, live: LiveScreen) {
    let engine = st.engine.get_or_insert_with(|| dv.playback());
    let obs = dv.obs().clone();
    let probe = ctx.begin(&obs);
    let result = engine.seek(live.at);
    ctx.end(
        "record.seek",
        Some("record.seek_ms"),
        &obs,
        probe,
        result.is_ok(),
    );
    if let Ok(stats) = result {
        ctx.sample("record.commands_per_seek")
            .push(stats.commands_applied as f64);
    }
}

/// Replays the whole record once, as fast as it goes; keeps the
/// speed-up over real time (`playback_x`) and the wall time.
pub fn replay(ctx: &mut Ctx, dv: &DejaView) {
    let record = dv.record();
    let recorded = record.read().duration();
    let end = Timestamp::ZERO + recorded + Duration::from_secs(1);
    let obs = dv.obs().clone();
    let mut engine = dv.playback();
    let probe = ctx.begin(&obs);
    let ok = engine.seek(Timestamp::ZERO).is_ok() && engine.play_until(end, None).is_ok();
    let done = ctx.end("playback", Some("record.play_ms"), &obs, probe, ok);
    if ok {
        let x = recorded.as_secs_f64() / done.wall.as_secs_f64().max(1e-9);
        ctx.sample("playback_x").push(x);
    }
}

/// One archive→reopen round trip of `dv`, checked against the
/// original at its last durable checkpoint.
pub fn archive_round_trip(
    ctx: &mut Ctx,
    dv: &mut DejaView,
    config: Config,
    st: &mut ReadState,
    rng: &mut StdRng,
) {
    let obs = dv.obs().clone();
    let probe = ctx.begin(&obs);
    let t0 = Instant::now();
    let saved = dv.save_archive();
    let t_save = t0.elapsed();
    let Ok(bytes) = saved else {
        ctx.end("archive_reopen", None, &obs, probe, false);
        return;
    };
    let t1 = Instant::now();
    let loaded = DejaView::load_archive(config, &bytes);
    let t_load = t1.elapsed();
    let t2 = Instant::now();
    let reopened = loaded.and_then(|mut re| {
        re.recover_index_shards()?;
        re.recover_visual()?;
        Ok(re)
    });
    let t_recover = t2.elapsed();
    let done = ctx.end(
        "archive_reopen",
        Some("archive_reopen_ms"),
        &obs,
        probe,
        reopened.is_ok(),
    );
    ctx.tracer.child(done.root, "core.save_archive", t0, t_save);
    ctx.tracer.child(done.root, "core.load_archive", t1, t_load);
    ctx.tracer.child(done.root, "core.recover", t2, t_recover);
    let Ok(re) = reopened else { return };
    ctx.sample("core.archive_mb").push(bytes.len() as f64 / 1e6);
    ctx.sample("core.save_archive_ms").push_wall(t_save);
    ctx.sample("core.load_archive_ms").push_wall(t_load);
    ctx.sample("core.recover_ms").push_wall(t_recover);

    // WYSIWYS across the round trip: the last durable checkpoint
    // answers identically before and after.
    if let Some(n) = durable_counters(dv).last().copied() {
        for _ in 0..4 {
            let q = st.query(rng);
            let before = dv.search_at_checkpoint(n, &q, RankOrder::Chronological);
            let after = re.search_at_checkpoint(n, &q, RankOrder::Chronological);
            let same = matches!((&before, &after), (Ok(a), Ok(b)) if a == b);
            ctx.check(same, || {
                format!("search_at_checkpoint({n}, {q:?}) changed across archive→reopen")
            });
        }
        for _ in 0..4 {
            let Some(probe) = st.probe(rng) else { break };
            let before = dv.visual_at_checkpoint(n, &probe, VISUAL_K);
            let after = re.visual_at_checkpoint(n, &probe, VISUAL_K);
            let same = matches!((&before, &after), (Ok(a), Ok(b)) if a == b);
            ctx.check(same, || {
                format!("visual_at_checkpoint({n}) changed across archive→reopen")
            });
        }
    }
}
