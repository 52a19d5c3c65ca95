//! The order of a run's read requests: seeded, stratified and paced
//! over the time budget.

use std::collections::VecDeque;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Search,
    Browse,
    Visual,
    Revive,
    /// Whole-record replay (after recording only).
    Replay,
    /// Archive→reopen round trip (after recording only).
    Archive,
    /// Traced runs only: `TidxEngine::search`/`search_at` called directly.
    TidxQuery,
    /// Traced runs only: `PlaybackEngine::seek` called directly.
    Seek,
}

/// Minimum calls per operation in one run: each reported tail needs
/// ten samples beyond it (p90 → 100 calls, p99 → 1000 calls); more
/// calls steady the percentiles.
#[derive(Clone, Copy)]
pub struct Mins {
    pub search: usize,
    pub browse: usize,
    pub visual: usize,
    pub revive: usize,
    pub replays: usize,
    pub archives: usize,
}

/// Direct layer calls a traced run adds (for the layer tails).
const TRACED_TIDX: usize = 1000;
const TRACED_SEEKS: usize = 200;

pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The seeded order of read requests, one call per slot. Each
/// operation's calls are interleaved in stratified seeded order; after
/// recording they are paced evenly over the time budget, as are
/// replays and archive round trips, with filler calls between them.
/// Pacing spreads every operation's samples over the whole run, so a
/// spell of machine noise cannot land on all of one operation's calls.
///
/// The call counts are sample sizes for the reported percentiles, not
/// a model of a user's traffic.
pub struct Schedule {
    queue: VecDeque<Op>,
    total: usize,
    timed: VecDeque<Op>,
    /// Filler weights: browse calls per visual call (visual 0 when
    /// only browses fill).
    fill: (usize, usize),
    window: Option<Window>,
}

struct Window {
    start: Instant,
    seconds: f64,
    queued: usize,
    timed: usize,
}

/// Whether the `done`-th of `total` paced items is due at `elapsed`
/// (a fraction of the window).
fn due(done: usize, total: usize, elapsed: f64) -> bool {
    done < total && (done as f64 + 0.5) <= elapsed * total as f64
}

impl Schedule {
    /// `interleaved` says the mandatory calls run between recording
    /// steps; the time budget after recording then fills with browses
    /// only (see [`Schedule::next_in_window`]).
    pub fn new(mins: &Mins, traced: bool, interleaved: bool, rng: &mut StdRng) -> Self {
        let mut calls = vec![
            (Op::Search, mins.search),
            (Op::Browse, mins.browse),
            (Op::Visual, mins.visual),
            (Op::Revive, mins.revive),
        ];
        if traced {
            calls.push((Op::TidxQuery, TRACED_TIDX));
            calls.push((Op::Seek, TRACED_SEEKS));
        }
        let total = calls.iter().map(|(_, n)| n).sum();
        // Each operation's calls are spread evenly over the order, each
        // at a seeded point of its own slot: a seed moves a call within
        // its slot, never from the start of the run to the end.
        let mut keyed: Vec<(f64, Op)> = Vec::new();
        for (op, n) in calls {
            for j in 0..n {
                keyed.push(((j as f64 + rng.gen::<f64>()) / n as f64, op));
            }
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut timed: Vec<Op> = std::iter::repeat_n(Op::Replay, mins.replays)
            .chain(std::iter::repeat_n(Op::Archive, mins.archives))
            .collect();
        shuffle(&mut timed, rng);
        let fill = if interleaved {
            (1, 0)
        } else {
            (mins.browse, mins.visual)
        };
        Schedule {
            total,
            queue: keyed.into_iter().map(|(_, op)| op).collect(),
            timed: timed.into(),
            fill,
            window: None,
        }
    }

    /// Mandatory calls, for spreading them over recording steps.
    pub fn total(&self) -> usize {
        self.total
    }

    /// The next mandatory call, if any are left.
    pub fn next(&mut self) -> Option<Op> {
        self.queue.pop_front()
    }

    /// Puts a call back for later (e.g. a revive before any checkpoint).
    pub fn defer(&mut self, op: Op) {
        self.queue.push_back(op);
    }

    /// Starts the post-recording read phase of `seconds`.
    pub fn start_window(&mut self, seconds: f64) {
        self.window = Some(Window {
            start: Instant::now(),
            seconds,
            queued: self.queue.len(),
            timed: self.timed.len(),
        });
    }

    /// The next call of the read phase, or `None` once its time is up
    /// and every mandatory and timed call has run.
    pub fn next_in_window(&mut self, rng: &mut StdRng) -> Option<Op> {
        let w = self.window.as_ref().expect("start_window first");
        let elapsed = w.start.elapsed().as_secs_f64() / w.seconds;
        let timed_done = w.timed - self.timed.len();
        if due(timed_done, w.timed, elapsed) || (elapsed >= 1.0 && self.queue.is_empty()) {
            if let Some(op) = self.timed.pop_front() {
                return Some(op);
            }
        }
        let queued_done = w.queued.saturating_sub(self.queue.len());
        if due(queued_done, w.queued, elapsed) || elapsed >= 1.0 {
            if let Some(op) = self.queue.pop_front() {
                return Some(op);
            }
        }
        if elapsed >= 1.0 {
            return None;
        }
        // Filler, in the same browse-to-visual proportion as the
        // minimum counts, which are set by each tail's sample needs.
        // Searches and revives stay at their minimums: both fill the
        // server's screenshot-portal cache, so a time-filled count
        // would make its hit rate, and memory, depend on machine
        // speed. Where the visual queries ran between recording steps,
        // browses alone fill: a speed-dependent share of visual calls
        // on the finished record would otherwise decide their median.
        let (browse, visual) = self.fill;
        Some(if rng.gen_range(0..browse + visual) < browse {
            Op::Browse
        } else {
            Op::Visual
        })
    }
}

/// Cycles through `0..n` in seeded permutations, so every item is
/// drawn equally often and a seed changes the order, not the mix.
#[derive(Default)]
pub struct Deck {
    order: Vec<usize>,
    pos: usize,
}

impl Deck {
    pub fn draw(&mut self, n: usize, rng: &mut StdRng) -> usize {
        if self.order.len() != n || self.pos >= n {
            self.order = (0..n).collect();
            shuffle(&mut self.order, rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}
