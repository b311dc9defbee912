//! Property tests over random fan-out topologies — mixed link speeds,
//! store-and-forward hops, optional fault-degraded links, telemetry on or
//! off. Every run must repeat bit-for-bit (trace digest, event count and
//! per-sink delivery tallies), telemetry must never move a digest, and a
//! lossless fan-out must deliver every frame it emits.

use proptest::prelude::*;

use trading_networks::fault::{FaultLink, FaultSpec};
use trading_networks::netdev::EtherLink;
use trading_networks::sim::{
    Context, Frame, IdealLink, Link, Metrics, Node, PortId, SimTime, Simulator, TimerToken,
};

const TICK: TimerToken = TimerToken(1);

/// Emits `count` pooled frames, one per timer firing, cycling across
/// `branches` output ports — the fan-out root.
struct FanSource {
    interval: SimTime,
    count: u32,
    payload: usize,
    branches: u32,
    sent: u32,
}

impl Node for FanSource {
    fn on_frame(&mut self, _ctx: &mut Context<'_>, _port: PortId, _frame: Frame) {}

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        let frame = ctx.frame().zeroed(self.payload).build();
        ctx.send(PortId((self.sent % self.branches) as u16), frame);
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, TICK);
        }
    }
}

/// A middle hop: either cut-through (forward immediately) or
/// store-and-forward (hold each frame for a fixed service time).
struct Hop {
    hold: Option<SimTime>,
    held: std::collections::VecDeque<Frame>,
}

impl Node for Hop {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        match self.hold {
            None => ctx.send(PortId(1), frame),
            Some(service) => {
                self.held.push_back(frame);
                ctx.set_timer(service, TICK);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer: TimerToken) {
        debug_assert_eq!(timer, TICK);
        if let Some(frame) = self.held.pop_front() {
            ctx.send(PortId(1), frame);
        }
    }
}

/// Counts deliveries and recycles every payload into the frame arena.
#[derive(Default)]
struct Sink {
    delivered: u64,
    bytes: u64,
}

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.delivered += 1;
        self.bytes += frame.bytes.len() as u64;
        ctx.recycle(frame);
    }
}

/// One link of a branch, as drawn by proptest.
#[derive(Debug, Clone, Copy)]
struct LinkPlan {
    /// `None` is an ideal link; `Some(bps)` serializes.
    rate_bps: Option<u64>,
    prop_ns: u64,
}

impl LinkPlan {
    /// Build the link, optionally behind a [`FaultLink`] with `loss`
    /// iid drop probability (seeded off this link's position).
    fn build(&self, fault: Option<(u64, f64)>) -> Box<dyn Link> {
        let prop = SimTime::from_ns(self.prop_ns);
        match (self.rate_bps, fault) {
            (None, None) => Box::new(IdealLink::new(prop)),
            (Some(bps), None) => Box::new(EtherLink::new(bps, prop)),
            (None, Some((seed, p))) => Box::new(FaultLink::wrap(
                IdealLink::new(prop),
                FaultSpec::new(seed).with_iid_loss(p),
            )),
            (Some(bps), Some((seed, p))) => Box::new(FaultLink::wrap(
                EtherLink::new(bps, prop),
                FaultSpec::new(seed).with_iid_loss(p),
            )),
        }
    }
}

/// One branch of the fan-out: hold times for its hops, then its links
/// (`hops.len() + 1` of them).
#[derive(Debug, Clone)]
struct BranchPlan {
    hops: Vec<Option<u64>>, // ns; None = cut-through
    links: Vec<LinkPlan>,
}

#[derive(Debug, Clone)]
struct Plan {
    seed: u64,
    branches: Vec<BranchPlan>,
    /// iid loss probability on every link when faults are on.
    loss: f64,
    frames: u32,
    payload: usize,
    interval_ns: u64,
}

fn arb_link() -> impl Strategy<Value = LinkPlan> {
    (
        prop_oneof![
            Just(None),
            Just(Some(1_000_000_000u64)),
            Just(Some(10_000_000_000u64)),
        ],
        0u64..20_000,
    )
        .prop_map(|(rate_bps, prop_ns)| LinkPlan { rate_bps, prop_ns })
}

fn arb_branch() -> impl Strategy<Value = BranchPlan> {
    let hold = prop_oneof![Just(None), (1u64..5_000).prop_map(Some)];
    proptest::collection::vec(hold, 0..3).prop_flat_map(|hops| {
        let links = proptest::collection::vec(arb_link(), hops.len() + 1..hops.len() + 2);
        (Just(hops), links).prop_map(|(hops, links)| BranchPlan { hops, links })
    })
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    (
        proptest::collection::vec(arb_branch(), 1..4),
        any::<u64>(),
        1u32..40,
        1u32..24,
        32usize..512,
        100u64..50_000,
    )
        .prop_map(
            |(branches, seed, loss_pct, frames, payload, interval_ns)| Plan {
                seed,
                branches,
                loss: f64::from(loss_pct) / 100.0,
                frames,
                payload,
                interval_ns,
            },
        )
}

/// What one run distills to: `(digest, events, per-sink (count, bytes))`.
type RunResult = (u64, u64, Vec<(u64, u64)>);

fn run_plan(plan: &Plan, faults: bool, telemetry: bool) -> RunResult {
    let mut sim = Simulator::new(plan.seed);
    if telemetry {
        sim.set_provenance(true);
        sim.set_metrics(Metrics::enabled());
    }
    let src = sim.add_node(
        "src",
        FanSource {
            interval: SimTime::from_ns(plan.interval_ns),
            count: plan.frames,
            payload: plan.payload,
            branches: plan.branches.len() as u32,
            sent: 0,
        },
    );
    let mut sinks = Vec::new();
    for (bi, branch) in plan.branches.iter().enumerate() {
        let mut prev = src;
        let mut prev_port = PortId(bi as u16);
        for (hi, hold) in branch.hops.iter().enumerate() {
            let hop = sim.add_node(
                format!("hop{bi}.{hi}"),
                Hop {
                    hold: hold.map(SimTime::from_ns),
                    held: std::collections::VecDeque::new(),
                },
            );
            let fault = faults.then(|| ((bi * 31 + hi) as u64, plan.loss));
            sim.install_link(
                prev,
                prev_port,
                hop,
                PortId(0),
                branch.links[hi].build(fault),
            );
            prev = hop;
            prev_port = PortId(1);
        }
        let sink = sim.add_node(format!("sink{bi}"), Sink::default());
        let fault = faults.then(|| ((bi * 31 + branch.hops.len()) as u64, plan.loss));
        sim.install_link(
            prev,
            prev_port,
            sink,
            PortId(0),
            branch.links[branch.hops.len()].build(fault),
        );
        sinks.push(sink);
    }
    sim.schedule_timer(SimTime::from_ns(10), src, TICK);
    sim.run();
    let tallies = sinks
        .iter()
        .map(|&s| {
            let sink = sim.node::<Sink>(s).expect("sink");
            (sink.delivered, sink.bytes)
        })
        .collect();
    (sim.trace.digest(), sim.trace.recorded(), tallies)
}

proptest! {
    /// For every random fan-out plan, every `{faults} × {telemetry}`
    /// setting repeats bit-for-bit, telemetry never moves a digest, and
    /// lossless runs deliver every frame.
    #[test]
    fn fanout_runs_repeat_and_ignore_telemetry_on_random_topologies(plan in arb_plan()) {
        for faults in [false, true] {
            let mut baseline: Option<RunResult> = None;
            for telemetry in [false, true] {
                let run = run_plan(&plan, faults, telemetry);
                let again = run_plan(&plan, faults, telemetry);
                prop_assert_eq!(
                    &run, &again,
                    "rerun diverged (faults={}, telemetry={})", faults, telemetry
                );
                if !faults {
                    // Lossless fan-out must deliver every frame somewhere.
                    let total: u64 = run.2.iter().map(|(n, _)| n).sum();
                    prop_assert_eq!(total, u64::from(plan.frames));
                }
                match &baseline {
                    None => baseline = Some(run),
                    Some(b) => prop_assert_eq!(b, &run, "telemetry moved the digest"),
                }
            }
        }
    }
}
