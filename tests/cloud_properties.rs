//! Property tests for the tn-cloud fairness mechanisms: with every
//! stochastic knob zeroed the machinery must be *exactly* fair and
//! *exactly* transparent, over random overlay shapes.
//!
//! * Equalizer: zero hop jitter + zero residual + a covering ceiling ⇒
//!   every subscriber sees each event at the identical instant — the
//!   delivery spread is exactly zero, not merely small.
//! * Sequencer: perfect clock sync (ε = 0) ⇒ release order equals
//!   arrival order, each release exactly `hold` after its arrival, with
//!   zero reordered releases.

use std::collections::BTreeMap;

use proptest::prelude::*;

use trading_networks::cloud::{
    equalizer, overlay, sequencer, DelayEqualizer, EqualizerConfig, HoldReleaseSequencer,
    OverlayTree, OverlayTreeConfig, SequencerConfig,
};
use trading_networks::sim::{
    Context, Frame, IdealLink, Node, PortId, SimTime, Simulator, TimerToken,
};

const EMIT: TimerToken = TimerToken(7);

/// Emits one tagged frame per timer tick, so each event is *born* at its
/// emission instant (the equalizer pads relative to birth).
struct Source {
    period: SimTime,
    left: u32,
}

impl Node for Source {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerToken) {
        let f = ctx.frame().zeroed(128).tag(u64::from(self.left)).build();
        ctx.send(PortId(0), f);
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer(self.period, EMIT);
        }
    }
}

/// Records `(frame id, arrival ps)` per delivery.
#[derive(Default)]
struct Sink {
    seen: Vec<(u64, u64)>,
    tags: Vec<u64>,
}

impl Node for Sink {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.seen.push((frame.id.0, ctx.now().as_ps()));
        self.tags.push(frame.meta.tag);
        ctx.recycle(frame);
    }
}

/// One drawn overlay shape plus traffic pattern.
#[derive(Debug, Clone)]
struct OverlayCase {
    fanout: u16,
    subscribers: usize,
    events: u32,
    period_ns: u64,
    vm_prop_ns: u64,
    copy_gap_ns: u64,
    seed: u64,
}

fn arb_overlay() -> impl Strategy<Value = OverlayCase> {
    (
        2u16..6,
        1usize..10,
        1u32..12,
        200u64..5_000,
        100u64..30_000,
        0u64..300,
        any::<u64>(),
    )
        .prop_map(
            |(fanout, subscribers, events, period_ns, vm_prop_ns, copy_gap_ns, seed)| OverlayCase {
                fanout,
                subscribers,
                events,
                period_ns,
                vm_prop_ns,
                copy_gap_ns,
                seed,
            },
        )
}

/// Build + run the overlay → equalizer-gate pipeline; returns the
/// per-sink deliveries.
fn run_overlay(case: &OverlayCase) -> Vec<Vec<(u64, u64)>> {
    let mut sim = Simulator::new(case.seed);
    let src = sim.add_node(
        "src",
        Source {
            period: SimTime::from_ns(case.period_ns),
            left: case.events - 1,
        },
    );
    let cfg = OverlayTreeConfig {
        fanout: case.fanout,
        leaves: case.subscribers,
        copy_gap: SimTime::from_ns(case.copy_gap_ns),
    };
    let tree = OverlayTree::build(&mut sim, "ov", &cfg, |_| {
        Box::new(IdealLink::new(SimTime::from_ns(case.vm_prop_ns)))
    });
    sim.install_link(
        src,
        PortId(0),
        tree.root,
        overlay::RELAY_IN,
        Box::new(IdealLink::new(SimTime::from_ns(case.vm_prop_ns))),
    );
    // Conservative covering ceiling: every hop is an ideal `vm_prop`
    // link (publisher + intra-tree + leaf = depth + 1 of them) and each
    // relay level can stagger copies by at most `fanout × copy_gap`.
    let ceiling_ns = (tree.depth as u64 + 1) * case.vm_prop_ns
        + (tree.depth as u64 + 1) * u64::from(case.fanout) * case.copy_gap_ns
        + 1_000;
    let mut sinks = Vec::new();
    for (s, &(relay, port)) in tree.leaf_ports.iter().enumerate() {
        let gate = sim.add_node(
            format!("gate{s}"),
            DelayEqualizer::new(EqualizerConfig {
                ceiling: SimTime::from_ns(ceiling_ns),
                residual: SimTime::ZERO,
                seed: case.seed ^ s as u64,
            }),
        );
        sim.install_link(
            relay,
            port,
            gate,
            equalizer::IN,
            Box::new(IdealLink::new(SimTime::from_ns(case.vm_prop_ns))),
        );
        let sink = sim.add_node(format!("sink{s}"), Sink::default());
        sim.install_link(
            gate,
            equalizer::OUT,
            sink,
            PortId(0),
            Box::new(IdealLink::new(SimTime::ZERO)),
        );
        sinks.push(sink);
    }
    sim.schedule_timer(SimTime::from_ns(10), src, EMIT);
    sim.run();
    sinks
        .iter()
        .map(|&s| sim.node::<Sink>(s).expect("sink").seen.clone())
        .collect()
}

/// One drawn sequencer workload: sorted arrival instants and a hold.
#[derive(Debug, Clone)]
struct SequencerCase {
    arrivals_ns: Vec<u64>,
    hold_ns: u64,
    seed: u64,
}

fn arb_sequencer() -> impl Strategy<Value = SequencerCase> {
    (
        proptest::collection::vec(10u64..100_000, 1..40),
        0u64..10_000,
        any::<u64>(),
    )
        .prop_map(|(mut arrivals_ns, hold_ns, seed)| {
            arrivals_ns.sort_unstable();
            SequencerCase {
                arrivals_ns,
                hold_ns,
                seed,
            }
        })
}

/// Run one sequencer workload; returns
/// `(sink tags, sink arrival ps, reordered)`.
fn run_sequencer(case: &SequencerCase) -> (Vec<u64>, Vec<u64>, u64) {
    let mut sim = Simulator::new(case.seed);
    let seqr = sim.add_node(
        "seq",
        HoldReleaseSequencer::new(SequencerConfig {
            hold: SimTime::from_ns(case.hold_ns),
            clock_error: SimTime::ZERO,
            seed: case.seed,
        }),
    );
    let sink = sim.add_node("sink", Sink::default());
    sim.install_link(
        seqr,
        sequencer::OUT,
        sink,
        PortId(0),
        Box::new(IdealLink::new(SimTime::ZERO)),
    );
    for (i, &at) in case.arrivals_ns.iter().enumerate() {
        let f = sim.frame().zeroed(64).tag(i as u64).build();
        sim.inject_frame(SimTime::from_ns(at), seqr, sequencer::IN, f);
    }
    sim.run();
    let reordered = sim
        .node::<HoldReleaseSequencer>(seqr)
        .expect("sequencer")
        .stats()
        .reordered;
    let snk = sim.node::<Sink>(sink).expect("sink");
    let ats = snk.seen.iter().map(|&(_, at)| at).collect();
    (snk.tags.clone(), ats, reordered)
}

proptest! {
    /// Zero jitter + zero residual + covering ceiling ⇒ the delivery
    /// spread of every event across every subscriber is exactly zero.
    #[test]
    fn zero_jitter_equalizer_has_exactly_zero_spread(case in arb_overlay()) {
        let deliveries = run_overlay(&case);
        // Every subscriber saw every event exactly once…
        for per_sink in &deliveries {
            prop_assert_eq!(per_sink.len(), case.events as usize, "wrong delivery count");
        }
        // …and for each event (grouped by frame id, preserved across
        // relay clones) all release instants are identical.
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for per_sink in &deliveries {
            for &(id, at) in per_sink {
                groups.entry(id).or_default().push(at);
            }
        }
        prop_assert_eq!(groups.len(), case.events as usize);
        for (id, ats) in groups {
            let spread = ats.iter().max().unwrap() - ats.iter().min().unwrap();
            prop_assert_eq!(spread, 0, "event {} spread {} ps across {:?}", id, spread, ats);
        }
    }

    /// Perfect clock sync ⇒ release order equals arrival order exactly,
    /// each release exactly `hold` after its arrival, zero reordered —
    /// for any hold, any arrival pattern.
    #[test]
    fn perfect_clocks_release_in_arrival_order(case in arb_sequencer()) {
        let want_tags: Vec<u64> = (0..case.arrivals_ns.len() as u64).collect();
        let want_ats: Vec<u64> = case
            .arrivals_ns
            .iter()
            .map(|&ns| SimTime::from_ns(ns + case.hold_ns).as_ps())
            .collect();
        let (tags, ats, reordered) = run_sequencer(&case);
        prop_assert_eq!(&tags, &want_tags, "release order");
        prop_assert_eq!(&ats, &want_ats, "release times");
        prop_assert_eq!(reordered, 0, "spurious reorder count");
    }
}
