//! Deterministic kernel self-profiler.
//!
//! [`KernelProfiler`] is the hot-path half: a set of plain integer
//! counters the simulator bumps while dispatching (per-node and
//! per-event-kind counts, a bounded queue-depth time series). It is
//! deterministic by construction — it reads only simulated time and
//! counts, never wall-clock — so an enabled profiler cannot move a
//! run's trace digest.
//!
//! [`KernelProfile`] is the cold half: a plain-data snapshot combining
//! the profiler counters with arena reuse counters that the simulator
//! fills in at snapshot time. It lives here, in `tn-obs`,
//! as pure integers so report and CLI layers can consume it without a
//! dependency on the simulator crate.

/// How many queue-depth samples a profile retains. When the series
/// fills up it is decimated in place (every other sample dropped, the
/// sampling stride doubled), so memory stays bounded for arbitrarily
/// long runs while coverage stays spread over the whole run.
pub const QUEUE_SERIES_CAP: usize = 256;

/// Per-node dispatch counters with simulated-time attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeProfile {
    /// Node id this row belongs to.
    pub node: u32,
    /// Shard whose kernel dispatched to this node (0 for serial runs).
    /// Additive field: merged multi-shard profiles stay unambiguous.
    pub shard: u16,
    /// Frames dispatched to the node.
    pub frames: u64,
    /// Timers dispatched to the node.
    pub timers: u64,
    /// Frames dropped while addressed to (or emitted by) the node.
    pub drops: u64,
    /// Simulated time of the first dispatch, ps (`u64::MAX` if none).
    pub first_at_ps: u64,
    /// Simulated time of the last dispatch, ps (0 if none).
    pub last_at_ps: u64,
}

impl NodeProfile {
    fn new(node: u32, shard: u16) -> NodeProfile {
        NodeProfile {
            node,
            shard,
            frames: 0,
            timers: 0,
            drops: 0,
            first_at_ps: u64::MAX,
            last_at_ps: 0,
        }
    }

    fn has_activity(&self) -> bool {
        self.dispatches() > 0 || self.drops > 0
    }

    /// Total dispatches (frames + timers).
    pub fn dispatches(&self) -> u64 {
        self.frames + self.timers
    }

    #[inline]
    fn touch(&mut self, at_ps: u64) {
        if self.first_at_ps == u64::MAX {
            self.first_at_ps = at_ps;
        }
        self.last_at_ps = at_ps;
    }
}

/// Hot-path counter set. All recording methods are branch-then-index:
/// a disabled profiler costs one predictable branch per call and an
/// enabled one a handful of integer stores — no allocation, no
/// wall-clock, no randomness.
#[derive(Debug, Clone, Default)]
pub struct KernelProfiler {
    enabled: bool,
    /// Dense per-node rows indexed by node id; grown only from the cold
    /// `ensure_node` path (node registration), never while dispatching.
    nodes: Vec<NodeProfile>,
    frames: u64,
    timers: u64,
    drops: u64,
    schedules: u64,
    /// `(at_ps, queue_depth)` samples, decimated in place when full.
    series: Vec<(u64, u64)>,
    /// Record every `stride`-th schedule into `series`.
    stride: u64,
    /// Pushes to skip before the next sample.
    until_sample: u64,
    max_queue_depth: u64,
    /// Shard id stamped onto per-node rows (0 = serial / unsharded).
    shard: u16,
}

impl KernelProfiler {
    /// A profiler that records nothing (the default).
    pub fn disabled() -> KernelProfiler {
        KernelProfiler::default()
    }

    /// An enabled profiler; the queue-depth series is reserved up front
    /// so recording never allocates.
    pub fn enabled() -> KernelProfiler {
        KernelProfiler {
            enabled: true,
            nodes: Vec::new(),
            frames: 0,
            timers: 0,
            drops: 0,
            schedules: 0,
            series: Vec::with_capacity(QUEUE_SERIES_CAP),
            stride: 1,
            until_sample: 0,
            max_queue_depth: 0,
            shard: 0,
        }
    }

    /// Attribute per-node rows created from now on to `shard`. Sharded
    /// kernels set this before registering their nodes; serial runs
    /// leave the default 0.
    pub fn set_shard(&mut self, shard: u16) {
        self.shard = shard;
    }

    /// True when the profiler is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Make room for per-node counters up to `node`. Cold path: called
    /// when a node is registered, so the dispatch-time methods below can
    /// index without bounds growth.
    pub fn ensure_node(&mut self, node: u32) {
        if !self.enabled {
            return;
        }
        let want = node as usize + 1;
        if self.nodes.len() < want {
            let mut id = self.nodes.len() as u32;
            let shard = self.shard;
            self.nodes.resize_with(want, || {
                let row = NodeProfile::new(id, shard);
                id += 1;
                row
            });
        }
    }

    /// A frame was dispatched to `node` at `at_ps`.
    #[inline]
    pub fn record_frame(&mut self, at_ps: u64, node: u32) {
        if !self.enabled {
            return;
        }
        self.frames += 1;
        if let Some(row) = self.nodes.get_mut(node as usize) {
            row.frames += 1;
            row.touch(at_ps);
        }
    }

    /// A timer was dispatched to `node` at `at_ps`.
    #[inline]
    pub fn record_timer(&mut self, at_ps: u64, node: u32) {
        if !self.enabled {
            return;
        }
        self.timers += 1;
        if let Some(row) = self.nodes.get_mut(node as usize) {
            row.timers += 1;
            row.touch(at_ps);
        }
    }

    /// A frame addressed to (or emitted toward) `node` was dropped.
    #[inline]
    pub fn record_drop(&mut self, node: u32) {
        if !self.enabled {
            return;
        }
        self.drops += 1;
        if let Some(row) = self.nodes.get_mut(node as usize) {
            row.drops += 1;
        }
    }

    /// An event was pushed into the event queue; `depth` is the queue
    /// length after the push. Samples the depth time series.
    #[inline]
    pub fn record_schedule(&mut self, at_ps: u64, depth: usize) {
        if !self.enabled {
            return;
        }
        self.schedules += 1;
        let depth = depth as u64;
        if depth > self.max_queue_depth {
            self.max_queue_depth = depth;
        }
        if self.until_sample > 0 {
            self.until_sample -= 1;
            return;
        }
        if self.series.len() == QUEUE_SERIES_CAP {
            // Decimate in place: keep every other sample, double the
            // stride. No allocation, bounded forever.
            for i in 0..QUEUE_SERIES_CAP / 2 {
                self.series[i] = self.series[2 * i];
            }
            self.series.truncate(QUEUE_SERIES_CAP / 2);
            self.stride *= 2;
        }
        self.series.push((at_ps, depth));
        self.until_sample = self.stride - 1;
    }

    /// Freeze the counters into a plain-data [`KernelProfile`]. The
    /// arena section is left zeroed for the simulator to fill in;
    /// returns `None` when the profiler is disabled.
    pub fn snapshot(&self, at_ps: u64) -> Option<KernelProfile> {
        if !self.enabled {
            return None;
        }
        Some(KernelProfile {
            at_ps,
            frames: self.frames,
            timers: self.timers,
            drops: self.drops,
            schedules: self.schedules,
            max_queue_depth: self.max_queue_depth,
            queue_depth: self.series.clone(),
            queue_stride: self.stride,
            per_node: self
                .nodes
                .iter()
                .filter(|n| n.dispatches() > 0 || n.drops > 0)
                .copied()
                .collect(),
            arena_allocated: 0,
            arena_reused: 0,
            arena_recycled: 0,
        })
    }

    /// Fold another profiler's counters into this one. Used when a
    /// sharded run reassembles per-shard profilers into one unified
    /// profile: totals are summed, per-node rows merged elementwise
    /// (first/last dispatch times widened, shard attribution taken from
    /// the profiler that actually dispatched to the node), queue-depth
    /// series merged in time order and re-decimated to the bounded cap.
    /// Deterministic: absorb shards in ascending shard order.
    pub fn merge_from(&mut self, other: &KernelProfiler) {
        if !self.enabled || !other.enabled {
            return;
        }
        self.frames += other.frames;
        self.timers += other.timers;
        self.drops += other.drops;
        self.schedules += other.schedules;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        if self.nodes.len() < other.nodes.len() {
            let mut id = self.nodes.len() as u32;
            let shard = self.shard;
            self.nodes.resize_with(other.nodes.len(), || {
                let row = NodeProfile::new(id, shard);
                id += 1;
                row
            });
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            mine.frames += theirs.frames;
            mine.timers += theirs.timers;
            mine.drops += theirs.drops;
            mine.first_at_ps = mine.first_at_ps.min(theirs.first_at_ps);
            mine.last_at_ps = mine.last_at_ps.max(theirs.last_at_ps);
            if theirs.has_activity() {
                mine.shard = theirs.shard;
            }
        }
        // Merge the two time-ordered series, then decimate back under the
        // cap; the merged stride is the coarser of the two, doubled per
        // decimation pass.
        let mut merged = Vec::with_capacity(self.series.len() + other.series.len());
        let (mut i, mut j) = (0, 0);
        while i < self.series.len() && j < other.series.len() {
            if self.series[i].0 <= other.series[j].0 {
                merged.push(self.series[i]);
                i += 1;
            } else {
                merged.push(other.series[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.series[i..]);
        merged.extend_from_slice(&other.series[j..]);
        let mut stride = self.stride.max(other.stride);
        while merged.len() > QUEUE_SERIES_CAP {
            let mut k = 0;
            merged.retain(|_| {
                let keep = k % 2 == 0;
                k += 1;
                keep
            });
            stride *= 2;
        }
        self.series.clear();
        self.series.extend_from_slice(&merged);
        self.stride = stride;
        self.until_sample = 0;
    }
}

/// Plain-data snapshot of kernel behavior over a run: dispatch counters
/// from [`KernelProfiler`] plus arena statistics filled in by the
/// simulator at snapshot time. Everything is integers, so it serializes
/// and renders without touching simulator types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelProfile {
    /// Simulated time the snapshot was taken, ps.
    pub at_ps: u64,
    /// Frames dispatched.
    pub frames: u64,
    /// Timers dispatched.
    pub timers: u64,
    /// Frames dropped (loss, overflow, unrouted).
    pub drops: u64,
    /// Events pushed into the event queue.
    pub schedules: u64,
    /// Largest queue depth ever observed after a push.
    pub max_queue_depth: u64,
    /// Bounded `(at_ps, depth)` time series of queue depth.
    pub queue_depth: Vec<(u64, u64)>,
    /// Sampling stride of `queue_depth` (every n-th push sampled).
    pub queue_stride: u64,
    /// Per-node rows (only nodes with activity), ascending node id.
    pub per_node: Vec<NodeProfile>,
    /// Frame buffers allocated fresh from the heap.
    pub arena_allocated: u64,
    /// Frame buffers reused from the arena free list.
    pub arena_reused: u64,
    /// Frame buffers returned to the arena.
    pub arena_recycled: u64,
}

impl KernelProfile {
    /// Total dispatches (frames + timers).
    pub fn dispatches(&self) -> u64 {
        self.frames + self.timers
    }

    /// Fraction of frame builds served from the arena free list,
    /// in `[0, 1]`. `None` when no frame was ever built.
    pub fn arena_reuse_ratio(&self) -> Option<f64> {
        let total = self.arena_allocated + self.arena_reused;
        if total == 0 {
            None
        } else {
            Some(self.arena_reused as f64 / total as f64)
        }
    }

    /// Busiest nodes by total dispatches, descending; ties break on
    /// ascending node id so the order is deterministic.
    pub fn busiest_nodes(&self, top: usize) -> Vec<NodeProfile> {
        let mut rows = self.per_node.clone();
        rows.sort_by(|a, b| {
            b.dispatches()
                .cmp(&a.dispatches())
                .then(a.node.cmp(&b.node))
        });
        rows.truncate(top);
        rows
    }

    /// Multi-line human-readable rendering, each line prefixed with
    /// `indent`. Used by `DesignReport::summary()` and the experiment
    /// binaries; byte-stable for fixed input.
    pub fn render(&self, indent: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{indent}kernel profile @ {} ps\n", self.at_ps));
        out.push_str(&format!(
            "{indent}  dispatched : {} frames, {} timers, {} drops ({} scheduled)\n",
            self.frames, self.timers, self.drops, self.schedules
        ));
        out.push_str(&format!(
            "{indent}  queue depth: max {} ({} samples, stride {})\n",
            self.max_queue_depth,
            self.queue_depth.len(),
            self.queue_stride
        ));
        match self.arena_reuse_ratio() {
            Some(ratio) => out.push_str(&format!(
                "{indent}  arena      : {} alloc, {} reuse, {} recycled ({:.1}% reuse)\n",
                self.arena_allocated,
                self.arena_reused,
                self.arena_recycled,
                ratio * 100.0
            )),
            None => out.push_str(&format!("{indent}  arena      : no frames built\n")),
        }
        for row in self.busiest_nodes(5) {
            out.push_str(&format!(
                "{indent}  node {:<5}: {} frames, {} timers, {} drops, active {}..{} ps\n",
                row.node,
                row.frames,
                row.timers,
                row.drops,
                if row.first_at_ps == u64::MAX {
                    0
                } else {
                    row.first_at_ps
                },
                row.last_at_ps
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = KernelProfiler::disabled();
        p.ensure_node(3);
        p.record_frame(10, 3);
        p.record_timer(10, 3);
        p.record_drop(3);
        p.record_schedule(10, 5);
        assert!(p.snapshot(10).is_none());
    }

    #[test]
    fn counters_attribute_per_node_and_kind() {
        let mut p = KernelProfiler::enabled();
        for n in 0..4 {
            p.ensure_node(n);
        }
        p.record_frame(100, 1);
        p.record_frame(200, 1);
        p.record_timer(300, 2);
        p.record_drop(1);
        let prof = p.snapshot(1_000).expect("enabled");
        assert_eq!(prof.frames, 2);
        assert_eq!(prof.timers, 1);
        assert_eq!(prof.drops, 1);
        assert_eq!(prof.dispatches(), 3);
        // Only active nodes appear.
        assert_eq!(prof.per_node.len(), 2);
        let n1 = prof.per_node.iter().find(|r| r.node == 1).expect("node 1");
        assert_eq!(n1.frames, 2);
        assert_eq!(n1.drops, 1);
        assert_eq!(n1.first_at_ps, 100);
        assert_eq!(n1.last_at_ps, 200);
        let busiest = prof.busiest_nodes(1);
        assert_eq!(busiest[0].node, 1);
    }

    #[test]
    fn late_registered_nodes_keep_existing_counts() {
        let mut p = KernelProfiler::enabled();
        p.ensure_node(0);
        p.record_frame(10, 0);
        p.ensure_node(5);
        p.record_frame(20, 5);
        let prof = p.snapshot(100).expect("enabled");
        assert_eq!(prof.per_node.len(), 2);
        assert_eq!(prof.per_node[0].node, 0);
        assert_eq!(prof.per_node[1].node, 5);
    }

    #[test]
    fn queue_series_is_bounded_and_decimates() {
        let mut p = KernelProfiler::enabled();
        for i in 0..(QUEUE_SERIES_CAP as u64 * 10) {
            p.record_schedule(i, i as usize % 50);
        }
        let prof = p.snapshot(0).expect("enabled");
        assert!(prof.queue_depth.len() <= QUEUE_SERIES_CAP);
        assert!(prof.queue_stride >= 2, "stride doubled at least once");
        assert_eq!(prof.max_queue_depth, 49);
        assert_eq!(prof.schedules, QUEUE_SERIES_CAP as u64 * 10);
        // Samples stay in time order after decimation.
        for w in prof.queue_depth.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn series_never_grows_beyond_reserved_capacity() {
        let mut p = KernelProfiler::enabled();
        let cap_before = p.series.capacity();
        for i in 0..100_000u64 {
            p.record_schedule(i, 3);
        }
        assert_eq!(
            p.series.capacity(),
            cap_before,
            "series must not reallocate"
        );
    }

    #[test]
    fn merge_from_merges_counters_rows_and_series() {
        let mut a = KernelProfiler::enabled();
        a.set_shard(1);
        a.ensure_node(2);
        a.record_frame(100, 1);
        a.record_schedule(100, 4);
        let mut b = KernelProfiler::enabled();
        b.set_shard(2);
        b.ensure_node(2);
        b.record_timer(50, 2);
        b.record_drop(2);
        b.record_schedule(50, 9);
        let mut merged = KernelProfiler::enabled();
        merged.merge_from(&a);
        merged.merge_from(&b);
        let prof = merged.snapshot(1_000).expect("enabled");
        assert_eq!(prof.frames, 1);
        assert_eq!(prof.timers, 1);
        assert_eq!(prof.drops, 1);
        assert_eq!(prof.schedules, 2);
        assert_eq!(prof.max_queue_depth, 9);
        // Series arrives in time order regardless of absorb order.
        assert_eq!(prof.queue_depth, vec![(50, 9), (100, 4)]);
        let n1 = prof.per_node.iter().find(|r| r.node == 1).expect("node 1");
        assert_eq!((n1.shard, n1.frames, n1.first_at_ps), (1, 1, 100));
        let n2 = prof.per_node.iter().find(|r| r.node == 2).expect("node 2");
        assert_eq!((n2.shard, n2.timers, n2.drops), (2, 1, 1));
    }

    #[test]
    fn merge_from_keeps_the_series_bounded() {
        let mut a = KernelProfiler::enabled();
        let mut b = KernelProfiler::enabled();
        for i in 0..QUEUE_SERIES_CAP as u64 {
            a.record_schedule(2 * i, 1);
            b.record_schedule(2 * i + 1, 2);
        }
        a.merge_from(&b);
        let prof = a.snapshot(0).expect("enabled");
        assert!(prof.queue_depth.len() <= QUEUE_SERIES_CAP);
        assert!(prof.queue_stride >= 2);
        for w in prof.queue_depth.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn reuse_ratio_handles_empty_and_full() {
        let mut prof = KernelProfiler::enabled().snapshot(0).expect("enabled");
        assert_eq!(prof.arena_reuse_ratio(), None);
        prof.arena_allocated = 25;
        prof.arena_reused = 75;
        assert_eq!(prof.arena_reuse_ratio(), Some(0.75));
    }

    #[test]
    fn render_header_names_only_the_snapshot_time() {
        let prof = KernelProfiler::enabled().snapshot(42).expect("enabled");
        let text = prof.render("  ");
        assert!(text.starts_with("  kernel profile @ 42 ps\n"), "{text}");
    }
}
