//! In-memory request spans and the layer waterfall.
//!
//! A traced run wraps every call the benchmark makes in a root span.
//! Work the call did inside the program's layers is read from the
//! dv-obs registry (an `Obs::wall` handle) at the call's boundaries:
//! the delta of each layer histogram's busy time becomes a child span
//! of the request. Registry deltas carry a duration but no start time,
//! so a derived child is placed at its parent's start; which layer
//! contains which is fixed by [`parent_of`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dv_obs::{names, Obs};

/// One span: a request root or a layer inside it.
pub struct Span {
    pub id: u64,
    pub request: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Registry histograms read at call boundaries, with the counter
/// carrying the checkpoint commit (writeback) time.
pub const LAYER_SPANS: &[&str] = &[
    names::TIDX_QUERY,
    names::INDEX_QUERY,
    names::VIDX_QUERY,
    names::CHECKPOINT_QUIESCE,
    names::CHECKPOINT_CAPTURE,
    names::CHECKPOINT_FS_SNAPSHOT,
    names::LSFS_SYNC,
    names::LSFS_SNAPSHOT,
    names::LSFS_BLOB_PUT,
    names::CAS_PUT,
    names::TIDX_SEAL,
    names::TIDX_COMPACT,
    names::VIDX_SEAL,
    names::INDEX_FLUSH,
    names::DISPLAY_FLUSH,
    names::DISPLAY_KEYFRAME,
    names::TEXT_MIRROR_APPLY,
];

/// The checkpoint writeback phase is a counter, not a histogram.
pub const COMMIT: &str = "checkpoint.commit";

/// Which layer span contains which, for self-time accounting.
fn parent_of(name: &str) -> Option<&'static str> {
    Some(match name {
        n if n == names::INDEX_QUERY => names::TIDX_QUERY,
        n if n == names::LSFS_SNAPSHOT => names::CHECKPOINT_FS_SNAPSHOT,
        n if n == names::LSFS_BLOB_PUT => COMMIT,
        n if n == names::CAS_PUT => names::LSFS_BLOB_PUT,
        n if n == names::DISPLAY_KEYFRAME => names::DISPLAY_FLUSH,
        _ => return None,
    })
}

/// Busy nanoseconds per layer, read from one registry.
#[derive(Clone, Default)]
pub struct LayerTimes(BTreeMap<&'static str, u64>);

impl LayerTimes {
    /// Reads every layer's busy time. The writeback (commit) phase is
    /// on the session thread only when the engine commits inline; a
    /// host's pool commits on its own worker and clock, so it is left
    /// out there.
    pub fn read(obs: &Obs, inline_commit: bool) -> Self {
        let mut out = BTreeMap::new();
        for &name in LAYER_SPANS {
            let sum = obs.histogram(name).map_or(0, |h| h.sum_nanos);
            out.insert(name, sum);
        }
        if inline_commit {
            out.insert(COMMIT, obs.counter(names::CHECKPOINT_ASYNC_COMMIT_NANOS));
        }
        LayerTimes(out)
    }

    pub fn since(&self, earlier: &LayerTimes) -> LayerTimes {
        LayerTimes(
            self.0
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(*earlier.0.get(k).unwrap_or(&0))))
                .collect(),
        )
    }

    pub fn plus(&self, other: &LayerTimes) -> LayerTimes {
        let mut out = self.0.clone();
        for (k, v) in &other.0 {
            *out.entry(k).or_default() += v;
        }
        LayerTimes(out)
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Spans of one run, kept in memory and written out when it ends.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    next_request: u64,
    spans: Vec<Span>,
    /// Root spans per operation, for the waterfall.
    roots: BTreeMap<&'static str, Vec<u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            next_request: 1,
            spans: Vec::new(),
            roots: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        request: u64,
        parent: Option<u64>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            request,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    /// Records one request: its root span over `[start, start + wall)`
    /// and the layer work the registry saw during it. Returns the root
    /// span id so callers can hang their own timed children on it.
    pub fn request(
        &mut self,
        op: &'static str,
        start: Instant,
        wall: Duration,
        layers: &LayerTimes,
    ) -> Option<(u64, u64)> {
        if !self.enabled {
            return None;
        }
        let request = self.next_request;
        self.next_request += 1;
        let s = self.nanos(start);
        let root = self.push(request, None, op, s, s + wall.as_nanos() as u64);
        self.roots.entry(op).or_default().push(root);
        let mut ids: BTreeMap<&'static str, u64> = BTreeMap::new();
        // Parents before children: a layer's parent is always listed
        // earlier in the walk below, which goes outermost first.
        let order = [
            COMMIT,
            names::CHECKPOINT_FS_SNAPSHOT,
            names::TIDX_QUERY,
            names::LSFS_BLOB_PUT,
            names::DISPLAY_FLUSH,
        ];
        let mut names: Vec<&'static str> = order.to_vec();
        names.extend(LAYER_SPANS.iter().filter(|n| !order.contains(n)));
        for name in names {
            let dur = layers.get(name);
            if dur == 0 {
                continue;
            }
            let parent = parent_of(name)
                .and_then(|p| ids.get(p).copied())
                .unwrap_or(root);
            let id = self.push(request, Some(parent), name, s, s + dur);
            ids.insert(name, id);
        }
        Some((request, root))
    }

    /// A child the benchmark timed itself around a layer call.
    pub fn child(
        &mut self,
        parent: Option<(u64, u64)>,
        name: &'static str,
        start: Instant,
        wall: Duration,
    ) {
        if let Some((request, root)) = parent {
            let s = self.nanos(start);
            self.push(request, Some(root), name, s, s + wall.as_nanos() as u64);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per operation: total root time, each layer's self time along the
    /// blocking path, and the share of the root no layer covers.
    pub fn waterfall(&self) -> String {
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_id.insert(s.id, i);
            if let Some(p) = s.parent {
                children.entry(p).or_default().push(i);
            }
        }
        let dur = |i: usize| {
            let s = &self.spans[i];
            s.end_ns.saturating_sub(s.start_ns)
        };
        let mut out = String::new();
        for (op, roots) in &self.roots {
            let mut total = 0u64;
            let mut covered = 0u64;
            let mut self_time: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut stack: Vec<usize> = Vec::new();
            for root in roots {
                let r = by_id[root];
                total += dur(r);
                let top: u64 = children
                    .get(root)
                    .map_or(0, |c| c.iter().map(|&i| dur(i)).sum());
                covered += top.min(dur(r));
                stack.extend(children.get(root).into_iter().flatten());
                while let Some(i) = stack.pop() {
                    let id = self.spans[i].id;
                    let inner: u64 = children
                        .get(&id)
                        .map_or(0, |c| c.iter().map(|&j| dur(j)).sum());
                    *self_time.entry(self.spans[i].name).or_default() +=
                        dur(i).saturating_sub(inner);
                    stack.extend(children.get(&id).into_iter().flatten());
                }
            }
            let total_ms = total as f64 / 1e6;
            let _ = writeln!(
                out,
                "waterfall {op}: {} calls, {:.3} ms total",
                roots.len(),
                total_ms
            );
            let mut rows: Vec<_> = self_time.into_iter().collect();
            rows.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
            for (layer, ns) in rows {
                let _ = writeln!(
                    out,
                    "  {layer:<26} self {:>10.3} ms {:>6.1}%",
                    ns as f64 / 1e6,
                    100.0 * ns as f64 / total.max(1) as f64
                );
            }
            let uncovered = total.saturating_sub(covered);
            let _ = writeln!(
                out,
                "  {:<26} self {:>10.3} ms {:>6.1}%",
                "(no layer)",
                uncovered as f64 / 1e6,
                100.0 * uncovered as f64 / total.max(1) as f64
            );
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"request\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
