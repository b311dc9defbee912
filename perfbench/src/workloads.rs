//! The three benchmark workloads, built only from the crates' public API.
//!
//! Simulated time is part of each workload's definition: the windows
//! below are fixed, so a run's event count depends on the seed alone.

use tn_core::{
    DesignReport, LayerOneSwitches, ScenarioConfig, TradingNetworkDesign, TraditionalSwitches,
};
use tn_sim::{Context, Frame, IdealLink, Node, ObsConfig, PortId, SimTime, Simulator, TimerToken};

/// Simulated window of `d1-leafspine` (after the scenario's 2 ms warm-up).
pub const D1_WINDOW: SimTime = SimTime::from_ms(30);
/// Simulated window of `d3-l1-fanout` (after the 2 ms warm-up).
pub const D3_WINDOW: SimTime = SimTime::from_ms(6);
/// Simulated horizon of `metro-swarm`.
pub const SWARM_HORIZON: SimTime = SimTime::from_us(500);
/// Metros in the swarm.
pub const SWARM_METROS: usize = 8;
/// Timer-driven agents per metro.
pub const SWARM_AGENTS_PER_METRO: usize = 12_500;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Design 1: commodity leaf-spine at paper scale.
    D1LeafSpine,
    /// Design 3: Layer-1 fan-out at paper scale.
    D3L1Fanout,
    /// 8 metros × 12,500 timer-driven agents on the bare kernel.
    MetroSwarm,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::D1LeafSpine,
        Workload::D3L1Fanout,
        Workload::MetroSwarm,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::D1LeafSpine => "d1-leafspine",
            Workload::D3L1Fanout => "d3-l1-fanout",
            Workload::MetroSwarm => "metro-swarm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one workload run produced, for the correctness checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Trace digest of the finished kernel.
    pub digest: u64,
    /// Simulated events dispatched.
    pub events: u64,
    /// Frames dropped by links.
    pub frames_dropped: u64,
    /// Orders the strategies sent (0 on the swarm).
    pub orders_sent: u64,
    /// Order acknowledgements the strategies received (0 on the swarm).
    pub acks: u64,
    /// Native feed messages the exchange published (0 on the swarm).
    pub feed_messages: u64,
    /// Feed records the normalizers lost to gaps (0 on the swarm).
    pub records_lost: u64,
}

impl Outcome {
    /// The outcome of a design run.
    pub fn from_report(r: &DesignReport) -> Outcome {
        Outcome {
            digest: r.trace_digest,
            events: r.events_recorded,
            frames_dropped: r.frames_dropped,
            orders_sent: r.orders_sent,
            acks: r.acks,
            feed_messages: r.feed_messages,
            records_lost: r.recovery.records_lost,
        }
    }

    /// The outcome of a bare-kernel run.
    pub fn from_sim(sim: &Simulator) -> Outcome {
        Outcome {
            digest: sim.trace.digest(),
            events: sim.trace.recorded(),
            frames_dropped: sim.stats().frames_dropped,
            ..Outcome::default()
        }
    }
}

/// The paper-scale scenario of both design workloads, with the given
/// warm-up and measured window. Momentum threshold 600 keeps the order
/// rate within the matching engine's capacity, as in E18.
pub fn paper_scenario(
    seed: u64,
    warmup: SimTime,
    window: SimTime,
    obs: ObsConfig,
) -> ScenarioConfig {
    ScenarioConfig::paper_scale(seed)
        .to_builder()
        .warmup(warmup)
        .duration(window)
        .momentum_threshold(600)
        .obs(obs)
        .build()
        .expect("the paper-scale scenario is valid")
}

/// The full-length scenario of a design workload.
pub fn design_scenario(w: Workload, seed: u64, obs: ObsConfig) -> ScenarioConfig {
    let window = match w {
        Workload::D1LeafSpine => D1_WINDOW,
        Workload::D3L1Fanout => D3_WINDOW,
        Workload::MetroSwarm => unreachable!("metro-swarm has no design scenario"),
    };
    paper_scenario(seed, SimTime::from_ms(2), window, obs)
}

/// Build, run and report a design scenario.
pub fn run_design(w: Workload, sc: &ScenarioConfig) -> DesignReport {
    match w {
        Workload::D1LeafSpine => TraditionalSwitches::default().run(sc),
        Workload::D3L1Fanout => LayerOneSwitches::default().run(sc),
        Workload::MetroSwarm => unreachable!("metro-swarm is not a design"),
    }
}

/// One full workload run with all observation off.
pub fn run(w: Workload, seed: u64) -> Outcome {
    match w {
        Workload::MetroSwarm => {
            let mut sim = build_swarm(seed, false);
            sim.run_until(SWARM_HORIZON);
            Outcome::from_sim(&sim)
        }
        _ => Outcome::from_report(&run_design(w, &design_scenario(w, seed, ObsConfig::off()))),
    }
}

/// The set-up run: the same topology, built and reported with a
/// near-zero simulated window (1 µs warm-up, 2 µs window).
pub fn setup(w: Workload, seed: u64) -> u64 {
    match w {
        Workload::MetroSwarm => {
            let mut sim = build_swarm(seed, false);
            sim.run_until(SimTime::from_us(3));
            sim.trace.digest()
        }
        _ => {
            let sc = paper_scenario(
                seed,
                SimTime::from_us(1),
                SimTime::from_us(2),
                ObsConfig::off(),
            );
            run_design(w, &sc).trace_digest
        }
    }
}

const EVAL: TimerToken = TimerToken(1);

/// A swarm agent: re-evaluates on its own periodic timer and sends an
/// order to its metro exchange every `order_every`-th evaluation.
struct Agent {
    period: SimTime,
    order_every: u32,
    evals: u32,
}

impl Node for Agent {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerToken) {
        self.evals += 1;
        if self.evals.is_multiple_of(self.order_every) {
            let order = ctx.frame().zeroed(64).tag(u64::from(self.evals)).build();
            ctx.send(PortId(0), order);
        }
        ctx.set_timer(self.period, EVAL);
    }
}

/// A metro exchange: absorbs orders, forwarding every 100th one over the
/// inter-metro circuit on port 0.
struct MetroExchange {
    orders: u64,
}

impl Node for MetroExchange {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        self.orders += 1;
        if self.orders.is_multiple_of(100) {
            ctx.send(PortId(0), frame);
        } else {
            ctx.recycle(frame);
        }
    }
}

/// SplitMix64: the seed-to-phase mixer of the swarm.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Build the multi-metro swarm: per metro one exchange and 12,500 agents
/// whose evaluation periods, start phases and order cadence derive from
/// `seed`, the
/// exchanges ringed with ~300 µs circuits. `profile` turns on the kernel
/// profiler and metrics registry.
pub fn build_swarm(seed: u64, profile: bool) -> Simulator {
    let mut sim = Simulator::new(seed);
    if profile {
        sim.set_profile(true);
        sim.set_metrics(tn_sim::Metrics::enabled());
    }
    let mut exchanges = Vec::with_capacity(SWARM_METROS);
    for m in 0..SWARM_METROS {
        let ex = sim.add_node(format!("exch{m}"), MetroExchange { orders: 0 });
        exchanges.push(ex);
        for a in 0..SWARM_AGENTS_PER_METRO {
            let index = (m * SWARM_AGENTS_PER_METRO + a) as u64;
            let h = splitmix64(seed ^ (index << 8));
            let agent = sim.add_node(
                format!("agent{m}.{a}"),
                Agent {
                    period: SimTime::from_ns(80_000 + 7_000 * (h % 4)),
                    order_every: 10,
                    // A seeded head start spreads the agents' orders over
                    // the horizon instead of bunching them at the 10th
                    // evaluation.
                    evals: ((h >> 40) % 10) as u32,
                },
            );
            sim.install_link(
                agent,
                PortId(0),
                ex,
                PortId((a + 1) as u16),
                Box::new(IdealLink::new(SimTime::from_ns(500))),
            );
            sim.schedule_timer(SimTime::from_ns((h >> 8) % 80_000), agent, EVAL);
        }
    }
    for m in 0..SWARM_METROS {
        sim.install_link(
            exchanges[m],
            PortId(0),
            exchanges[(m + 1) % SWARM_METROS],
            PortId(0),
            Box::new(IdealLink::new(SimTime::from_us(300))),
        );
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("lab-sweep"), None);
    }

    #[test]
    fn swarm_inputs_come_from_the_seed() {
        let digest = |seed| {
            let mut sim = build_swarm(seed, false);
            sim.run_until(SimTime::from_us(20));
            (sim.trace.digest(), sim.trace.recorded())
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7).0, digest(8).0);
    }
}
