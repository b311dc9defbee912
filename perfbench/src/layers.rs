//! The traced run: per-layer costs timed from outside each crate.
//!
//! Every number here comes from the benchmark's own calls into a crate's
//! public functions, wrapped in a span. Counts come from the kernel
//! profiler and metrics registry of a traced workload run, both of which
//! are digest-neutral, so the traced run must reproduce the untraced
//! trace digest exactly.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use tn_core::{DesignReport, LatencyStats, Telemetry};
use tn_feed::normalize::{HashRepartition, NormalizerCore};
use tn_market::{
    FeedPublisher, FlowMix, MatchingEngine, OrderBook, OrderFlowGenerator, PartitionScheme,
    SymbolDirectory,
};
use tn_sim::{
    Context, Frame, IdealLink, KernelProfile, Node, NodeId, ObsConfig, PortId, Rng, SeedableRng,
    SimTime, Simulator, SmallRng, TimerToken,
};
use tn_switch::{commodity, CommoditySwitch, L1Config, L1Switch, SwitchConfig};
use tn_topo::{L1FabricConfig, L1TradingFabric, LeafSpine, LeafSpineConfig};
use tn_wire::{eth, igmp, ipv4, norm, pitch, stack};

use crate::workloads::{self, Outcome, Workload};

/// Timed batches per micro-measurement; the median batch is reported.
const BATCHES: usize = 5;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans nest: a span opened while another is
/// open names it as parent.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`; returns its result and the
    /// span's length in host nanoseconds.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Median per-operation cost over [`BATCHES`] timed batches of `ops`
    /// operations each, every batch in its own span.
    fn per_op(&mut self, name: &'static str, ops: u64, mut batch: impl FnMut()) -> f64 {
        let mut costs: Vec<f64> = (0..BATCHES)
            .map(|_| self.span(name, |_| batch()).1 as f64 / ops as f64)
            .collect();
        median(&mut costs)
    }

    /// Write the spans as JSON lines.
    fn write(&self, path: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\",\"seed\":{seed}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The result of a traced run: named per-layer values, plus what the
/// correctness checks need.
pub struct Traced {
    /// `(metric name, value)` in reporting order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Outcome of the first untraced run.
    pub untraced: Outcome,
    /// Outcome of every traced run.
    pub traced: Vec<Outcome>,
    /// Correctness checks of the micro-measurements and span output.
    pub checks: Checks,
}

/// Correctness checks: how many ran, and what each failed one found.
#[derive(Default)]
pub struct Checks {
    /// Checks run.
    pub attempted: u64,
    /// One message per failed check.
    pub failed: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed.push(what());
        }
    }
}

/// What one traced workload run yields beyond its outcome.
struct Counts {
    profile: KernelProfile,
    telemetry: Option<Telemetry>,
    report: Option<DesignReport>,
}

/// One untraced workload run; returns the outcome, its report (design
/// workloads only) and its host seconds.
fn untraced_run(w: Workload, seed: u64) -> (Outcome, Option<DesignReport>, f64) {
    let t0 = Instant::now();
    let (outcome, report) = match w {
        Workload::MetroSwarm => (workloads::run(w, seed), None),
        _ => {
            let sc = workloads::design_scenario(w, seed, ObsConfig::off());
            let report = workloads::run_design(w, &sc);
            (Outcome::from_report(&report), Some(report))
        }
    };
    (outcome, report, t0.elapsed().as_secs_f64())
}

/// One traced workload run: profiler and registry on, spans around the
/// benchmark's calls into `core` (or `sim` for the swarm).
fn traced_run(tr: &mut Tracer, w: Workload, seed: u64) -> (Outcome, Counts, f64) {
    let ((outcome, counts), ns) = tr.span("workload", |tr| match w {
        Workload::MetroSwarm => {
            let (mut sim, _) = tr.span("topo.build", |_| workloads::build_swarm(seed, true));
            tr.span("sim.run_until", |_| sim.run_until(workloads::SWARM_HORIZON));
            let telemetry = sim
                .metrics()
                .snapshot(workloads::SWARM_HORIZON.as_ps())
                .map(|snap| Telemetry::from_snapshot(&snap));
            let counts = Counts {
                profile: sim.profile().expect("profiler on"),
                telemetry,
                report: None,
            };
            (Outcome::from_sim(&sim), counts)
        }
        _ => {
            let obs = ObsConfig {
                registry: true,
                profile: true,
                ..ObsConfig::off()
            };
            let sc = workloads::design_scenario(w, seed, obs);
            let (report, _) = tr.span("core.run", |_| workloads::run_design(w, &sc));
            let outcome = Outcome::from_report(&report);
            let counts = Counts {
                profile: report.profile.clone().expect("profiler on"),
                telemetry: report.telemetry.clone(),
                report: Some(report),
            };
            (outcome, counts)
        }
    });
    (outcome, counts, ns as f64 / 1e9)
}

/// The traced run of `w`: alternating untraced and traced workload runs
/// for at least `seconds` (two pairs minimum), then every layer's
/// micro-measurement. Spans are written to `spans_path`.
pub fn trace(w: Workload, seed: u64, seconds: f64, spans_path: &str) -> Traced {
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut overheads = Vec::new();
    let mut traced = Vec::new();
    let mut first: Option<(Outcome, Option<DesignReport>, Counts)> = None;
    while overheads.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let (untraced, report, plain_s) = untraced_run(w, seed);
        let (outcome, counts, traced_s) = traced_run(&mut tr, w, seed);
        overheads.push(traced_s / plain_s);
        traced.push(outcome);
        if first.is_none() {
            first = Some((untraced, report, counts));
        }
    }
    let (untraced, report, counts) = first.expect("at least one pair ran");

    let mut checks = Checks::default();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let p = &counts.profile;
    m.push(("sim.events", p.dispatches() as f64));
    m.push(("sim.frames", p.frames as f64));
    m.push(("sim.timers", p.timers as f64));
    m.push(("sim.schedules", p.schedules as f64));
    m.push(("sim.max_queue_depth", p.max_queue_depth as f64));
    m.push((
        "sim.arena_reuse_ratio",
        p.arena_reuse_ratio().unwrap_or(0.0),
    ));
    for (name, depth) in [
        ("sim.timer_step_ns.q1k", 1_000),
        ("sim.timer_step_ns.q16k", 16_000),
        ("sim.timer_step_ns.q100k", 100_000),
    ] {
        m.push((name, timer_step_ns(&mut tr, name, seed, depth)));
    }
    m.push(("sim.frame_hop_ns", frame_hop_ns(&mut tr, &mut checks)));
    m.push(("switch.l1s.copy_ns", l1s_copy_ns(&mut tr, &mut checks)));
    m.push((
        "switch.commodity.copy_ns",
        commodity_copy_ns(&mut tr, &mut checks),
    ));
    let counter = |name: &str| {
        counts
            .telemetry
            .as_ref()
            .map_or(0, |t| t.counter_total("switch", name)) as f64
    };
    m.push(("switch.commodity.frames", counter("frames")));
    m.push(("switch.commodity.mcast_fwd", counter("mcast_fwd")));
    m.push(("switch.commodity.mcast_drop", counter("mcast_drop")));

    let flow = market_flow(&mut tr, seed);
    m.push((
        "wire.pitch.parse_ns",
        flow.pitch_parse_ns(&mut tr, &mut checks),
    ));
    m.push(("wire.pitch.emit_ns", flow.pitch_emit_ns(&mut tr)));
    let (normalize_ns, records) = flow.normalize(&mut tr, &mut checks);
    m.push((
        "wire.norm.parse_ns",
        norm_parse_ns(&mut tr, &records, &mut checks),
    ));
    m.push(("market.engine.event_ns", flow.engine_event_ns));
    m.push((
        "market.book.submit_cancel_ns",
        book_submit_cancel_ns(&mut tr, &mut checks),
    ));
    let r = counts.report.as_ref();
    let field = |f: fn(&DesignReport) -> u64| r.map_or(0, f) as f64;
    m.push(("market.feed_messages", field(|r| r.feed_messages)));
    m.push(("market.orders_sent", field(|r| r.orders_sent)));
    m.push(("market.fills", field(|r| r.fills)));
    m.push(("feed.normalize_ns", normalize_ns));
    m.push(("feed.records_lost", field(|r| r.recovery.records_lost)));
    let evaluated = field(|r| r.records_evaluated);
    let discarded = field(|r| r.records_discarded);
    m.push(("trading.records_evaluated", evaluated));
    m.push(("trading.records_discarded", discarded));
    let attempts = evaluated + discarded;
    m.push((
        "trading.useful_ratio",
        if attempts > 0.0 {
            evaluated / attempts
        } else {
            0.0
        },
    ));
    m.push(("topo.build_s", topo_build_s(&mut tr, w, seed)));
    m.push((
        "core.report_json_s",
        report_json_s(&mut tr, report.as_ref()),
    ));
    m.push(("stats.summary_ns", summary_ns(&mut tr, seed)));
    m.push(("obs.trace_overhead", median(&mut overheads)));

    let written = tr.write(spans_path, w.name(), seed);
    checks.expect(written.is_ok(), || {
        format!("writing spans to {spans_path}: {written:?}")
    });
    Traced {
        metrics: m,
        untraced,
        traced,
        checks,
    }
}

/// A node that ignores everything it receives.
struct Idle;

impl Node for Idle {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
    }
}

/// Host ns per `schedule_timer` + `step` with `depth` timers resident:
/// the classic hold model, each new timer landing uniformly within the
/// resident span so the queue depth stays constant.
fn timer_step_ns(tr: &mut Tracer, name: &'static str, seed: u64, depth: u64) -> f64 {
    const OPS: u64 = 100_000;
    let mut rng = SmallRng::seed_from_u64(seed ^ depth);
    let span_ps = depth * 1_000;
    let mut sim = Simulator::new(seed);
    let node = sim.add_node("idle", Idle);
    for _ in 0..depth {
        let at = SimTime::from_ps(rng.gen_range(0..span_ps));
        sim.schedule_timer(at, node, TimerToken(0));
    }
    let hold = |sim: &mut Simulator, rng: &mut SmallRng| {
        for _ in 0..OPS {
            let at = sim.now() + SimTime::from_ps(rng.gen_range(1..span_ps));
            sim.schedule_timer(at, node, TimerToken(0));
            sim.step();
        }
    };
    hold(&mut sim, &mut rng);
    let ns = tr.per_op(name, OPS, || hold(&mut sim, &mut rng));
    black_box(sim.trace.digest());
    ns
}

/// A node that answers every frame with a fresh one: recycle, build, send.
struct Pong;

impl Node for Pong {
    fn on_frame(&mut self, ctx: &mut Context<'_>, _port: PortId, frame: Frame) {
        ctx.recycle(frame);
        let reply = ctx.frame().zeroed(64).build();
        ctx.send(PortId(0), reply);
    }
}

/// Host ns per frame hop: build, send over an [`IdealLink`], deliver,
/// recycle — one frame bouncing between two nodes.
fn frame_hop_ns(tr: &mut Tracer, checks: &mut Checks) -> f64 {
    const OPS: u64 = 200_000;
    let mut sim = Simulator::new(1);
    let a = sim.add_node("ping", Pong);
    let b = sim.add_node("pong", Pong);
    let link = || Box::new(IdealLink::new(SimTime::from_ns(100)));
    sim.install_link(a, PortId(0), b, PortId(0), link());
    sim.install_link(b, PortId(0), a, PortId(0), link());
    let kick = sim.frame().zeroed(64).build();
    sim.inject_frame(SimTime::ZERO, a, PortId(0), kick);
    let steps = |sim: &mut Simulator| {
        for _ in 0..OPS {
            sim.step();
        }
    };
    steps(&mut sim);
    let ns = tr.per_op("sim.frame_hop", OPS, || steps(&mut sim));
    let delivered = sim.stats().frames_delivered;
    checks.expect(delivered == OPS * (BATCHES as u64 + 1), || {
        format!("frame hop: {delivered} frames delivered")
    });
    ns
}

/// A UDP multicast frame of a normalized-feed packet's size.
fn feed_frame(group: u32) -> Vec<u8> {
    stack::build_udp(
        eth::MacAddr::host(1),
        None,
        ipv4::Addr::host(1),
        ipv4::Addr::multicast_group(group),
        30_001,
        30_001,
        &[0u8; 72],
    )
}

/// Inject `frames` copies of `bytes` into `node`'s `port`, 1 µs apart,
/// after the kernel's current time; run to quiescence and return the
/// host ns the run took.
fn drive(sim: &mut Simulator, node: NodeId, port: PortId, bytes: &[u8], frames: u64) -> u64 {
    let t0 = sim.now();
    for k in 0..frames {
        let f = sim.frame().copy_from(bytes).build();
        sim.inject_frame(t0 + SimTime::from_us(k + 1), node, port, f);
    }
    let start = Instant::now();
    sim.run();
    start.elapsed().as_nanos() as u64
}

/// Host ns per delivered copy through an [`L1Switch`] fanning one input
/// out to 930 outputs — Design 3's strategy fan-out.
fn l1s_copy_ns(tr: &mut Tracer, checks: &mut Checks) -> f64 {
    const OUTPUTS: u16 = 930;
    const FRAMES: u64 = 200;
    let mut sim = Simulator::new(1);
    let mut l1 = L1Switch::new(L1Config::default());
    l1.provision_fanout(PortId(0), (1..=OUTPUTS).map(PortId).collect());
    let sw = sim.add_node("l1s", l1);
    let sink = sim.add_node("sink", Idle);
    for p in 1..=OUTPUTS {
        let link = Box::new(IdealLink::new(SimTime::from_ns(25)));
        sim.install_link(sw, PortId(p), sink, PortId(p), link);
    }
    let bytes = feed_frame(20_000);
    let copies = FRAMES * u64::from(OUTPUTS);
    drive(&mut sim, sw, PortId(0), &bytes, FRAMES);
    let ns = tr.per_op("switch.l1s", copies, || {
        drive(&mut sim, sw, PortId(0), &bytes, FRAMES);
    });
    let fanned = sim.node::<L1Switch>(sw).expect("l1s").stats().fanned_out;
    checks.expect(fanned == copies * (BATCHES as u64 + 1), || {
        format!("l1s: {fanned} copies fanned out")
    });
    ns
}

/// Host ns per delivered copy through a [`CommoditySwitch`] multicast
/// route: 31 IGMP-joined host ports on one leaf, as in Design 1's racks.
fn commodity_copy_ns(tr: &mut Tracer, checks: &mut Checks) -> f64 {
    const MEMBERS: u16 = 31;
    const FRAMES: u64 = 2_000;
    let mut sim = Simulator::new(1);
    let sw = sim.add_node("leaf", CommoditySwitch::new(SwitchConfig::default()));
    let sink = sim.add_node("sink", Idle);
    let group = ipv4::Addr::multicast_group(20_000);
    for p in 1..=MEMBERS {
        let link = Box::new(IdealLink::new(SimTime::from_ns(25)));
        sim.install_link(sw, PortId(p), sink, PortId(p), link);
        let join = commodity::igmp_frame(
            igmp::MessageType::Report,
            eth::MacAddr::host(u32::from(p) + 10),
            ipv4::Addr::host(u32::from(p) + 10),
            group,
        );
        let f = sim.frame().copy_from(&join).build();
        sim.inject_frame(SimTime::ZERO, sw, PortId(p), f);
    }
    sim.run();
    let bytes = feed_frame(20_000);
    let copies = FRAMES * u64::from(MEMBERS);
    drive(&mut sim, sw, PortId(0), &bytes, FRAMES);
    let ns = tr.per_op("switch.commodity", copies, || {
        drive(&mut sim, sw, PortId(0), &bytes, FRAMES);
    });
    let fwd = sim
        .node::<CommoditySwitch>(sw)
        .expect("leaf")
        .stats()
        .mcast_forwarded;
    checks.expect(fwd == copies * (BATCHES as u64 + 1), || {
        format!("commodity: {fwd} copies forwarded")
    });
    ns
}

/// Background order flow from [`OrderFlowGenerator`] over the paper-scale
/// symbol universe, with what it took to produce.
struct MarketFlow {
    dir: SymbolDirectory,
    /// Feed messages of the timed batches, in order.
    msgs: Vec<pitch::Message>,
    /// Message count of each generator step, in order.
    batch_sizes: Vec<usize>,
    /// Host ns per `OrderFlowGenerator::step` into the engine.
    engine_event_ns: f64,
}

/// Generate seeded order flow, timing each generator step.
fn market_flow(tr: &mut Tracer, seed: u64) -> MarketFlow {
    const STEPS: u64 = 20_000;
    let dir = SymbolDirectory::synthetic(2_000);
    let mut engine = MatchingEngine::new(dir.instruments().iter().map(|i| i.symbol));
    let mut flow = OrderFlowGenerator::new(&dir, FlowMix::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    // Build resting liquidity first, untimed.
    for k in 0..STEPS {
        black_box(flow.step(&dir, &mut engine, &mut rng, k as u32));
    }
    let mut msgs = Vec::new();
    let mut batch_sizes = Vec::new();
    let engine_event_ns = tr.per_op("market.engine", STEPS, || {
        for k in 0..STEPS {
            let out = flow.step(&dir, &mut engine, &mut rng, k as u32);
            batch_sizes.push(out.len());
            msgs.extend(out);
        }
    });
    MarketFlow {
        dir,
        msgs,
        batch_sizes,
        engine_event_ns,
    }
}

impl MarketFlow {
    fn emit_all(&self, buf: &mut Vec<u8>) {
        buf.clear();
        for msg in &self.msgs {
            msg.emit(buf);
        }
    }

    /// Host ns per PITCH message emitted into a reused buffer.
    fn pitch_emit_ns(&self, tr: &mut Tracer) -> f64 {
        let mut buf = Vec::new();
        self.emit_all(&mut buf);
        let ns = tr.per_op("wire.pitch.emit", self.msgs.len() as u64, || {
            self.emit_all(&mut buf)
        });
        black_box(&buf);
        ns
    }

    /// Host ns per PITCH message parsed back from its wire bytes; the
    /// round trip must reproduce every message.
    fn pitch_parse_ns(&self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let mut buf = Vec::new();
        self.emit_all(&mut buf);
        let parse_all = |buf: &[u8], out: &mut Vec<pitch::Message>| {
            out.clear();
            let mut off = 0;
            while off < buf.len() {
                let Ok((msg, used)) = pitch::Message::parse(&buf[off..]) else {
                    return;
                };
                out.push(msg);
                off += used;
            }
        };
        let mut parsed = Vec::with_capacity(self.msgs.len());
        parse_all(&buf, &mut parsed);
        checks.expect(parsed == self.msgs, || {
            "pitch: round trip changed the messages".into()
        });
        tr.per_op("wire.pitch.parse", self.msgs.len() as u64, || {
            parse_all(&buf, &mut parsed)
        })
    }

    /// Publish the flow as sequenced PITCH packets over 24 units and time
    /// [`NormalizerCore::on_packet`] per native message (a fresh core per
    /// batch, so no packet is a duplicate). Returns the cost and the
    /// normalized records of one pass.
    fn normalize(&self, tr: &mut Tracer, checks: &mut Checks) -> (f64, Vec<norm::Record>) {
        let mut publisher = FeedPublisher::new(PartitionScheme::ByHash { units: 24 }, 1_400, 0);
        let mut packets = Vec::new();
        let mut at = 0;
        for (k, &n) in self.batch_sizes.iter().enumerate() {
            let time_ns = 34_200_000_000_000 + k as u64 * 5_000;
            for p in publisher.publish(&self.dir, time_ns, &self.msgs[at..at + n]) {
                packets.push(p.bytes);
            }
            at += n;
        }
        let fresh = || {
            let mut core = NormalizerCore::new(1, HashRepartition { partitions: 128 });
            core.preload_symbols(self.dir.instruments().iter().map(|i| i.symbol));
            core
        };
        let run = |core: &mut NormalizerCore<HashRepartition>, out: &mut Vec<norm::Record>| {
            out.clear();
            for (i, pkt) in packets.iter().enumerate() {
                if let Ok(recs) = core.on_packet(pkt, i as u64) {
                    out.extend(recs.iter().map(|r| r.record));
                }
            }
        };
        let mut records = Vec::new();
        let mut core = fresh();
        run(&mut core, &mut records);
        // The publisher adds its own time messages, so every flow message
        // must arrive, none may be lost and every record must survive.
        let messages = core.stats().messages_in;
        let arb = core.arbiter().stats();
        let ok = messages >= self.msgs.len() as u64 && arb.gap_messages == 0 && arb.duplicates == 0;
        checks.expect(ok, || {
            format!(
                "normalizer: {messages} messages in for {} sent, {} lost, {} duplicated",
                self.msgs.len(),
                arb.gap_messages,
                arb.duplicates
            )
        });
        let mut cores: Vec<_> = (0..BATCHES).map(|_| fresh()).collect();
        let mut scratch = Vec::new();
        let mut next = cores.iter_mut();
        let ns = tr.per_op("feed.normalize", messages, || {
            let core = next.next().expect("one fresh core per batch");
            run(core, &mut scratch);
        });
        (ns, records)
    }
}

/// Host ns per normalized record parsed from its 32-byte wire form.
fn norm_parse_ns(tr: &mut Tracer, records: &[norm::Record], checks: &mut Checks) -> f64 {
    let mut buf = Vec::with_capacity(records.len() * norm::RECORD_LEN);
    for r in records {
        r.emit(&mut buf);
    }
    let parse_all = |out: &mut Vec<norm::Record>| {
        out.clear();
        out.extend(
            buf.chunks_exact(norm::RECORD_LEN)
                .filter_map(|c| norm::Record::parse(c).ok()),
        );
    };
    let mut parsed = Vec::with_capacity(records.len());
    parse_all(&mut parsed);
    checks.expect(parsed == records && !records.is_empty(), || {
        format!(
            "norm: {} of {} records parsed back",
            parsed.len(),
            records.len()
        )
    });
    tr.per_op("wire.norm.parse", records.len().max(1) as u64, || {
        parse_all(&mut parsed)
    })
}

/// Host ns per passive submit + cancel pair on an [`OrderBook`] holding
/// 2,000 resting orders.
fn book_submit_cancel_ns(tr: &mut Tracer, checks: &mut Checks) -> f64 {
    const OPS: u64 = 100_000;
    const MID: u64 = 100_0000;
    let mut book = OrderBook::new();
    for k in 0..1_000u64 {
        book.submit(
            2 * k + 1,
            pitch::Side::Buy,
            MID - 100 - (k % 50) * 100,
            100,
            false,
        );
        book.submit(
            2 * k + 2,
            pitch::Side::Sell,
            MID + 100 + (k % 50) * 100,
            100,
            false,
        );
    }
    let mut next_id = 10_000;
    let mut cancelled = 0u64;
    let mut pairs = |book: &mut OrderBook| {
        for k in 0..OPS {
            let (side, price) = if k % 2 == 0 {
                (pitch::Side::Buy, MID - 100 - (k % 40) * 100)
            } else {
                (pitch::Side::Sell, MID + 100 + (k % 40) * 100)
            };
            book.submit(next_id, side, price, 100, false);
            cancelled += u64::from(book.cancel(next_id).is_some());
            next_id += 1;
        }
    };
    pairs(&mut book);
    let ns = tr.per_op("market.book", OPS, || pairs(&mut book));
    let open = book.open_orders();
    checks.expect(
        cancelled == OPS * (BATCHES as u64 + 1) && open == 2_000,
        || format!("book: {cancelled} cancels, {open} open"),
    );
    ns
}

/// Host seconds to build the workload's topology alone: the Design 1
/// leaf-spine sized as `TraditionalSwitches` sizes it, the Design 3 L1
/// fabric, or the swarm.
fn topo_build_s(tr: &mut Tracer, w: Workload, seed: u64) -> f64 {
    let sc = workloads::design_scenario(Workload::D1LeafSpine, seed, ObsConfig::off());
    let mut secs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let ns = tr.span("topo.build", |_| match w {
                Workload::D1LeafSpine => {
                    let mut cfg = LeafSpineConfig::default();
                    let racks = |hosts: usize| (2 * hosts).div_ceil(cfg.hosts_per_rack);
                    cfg.racks = racks(sc.normalizers) + racks(sc.strategies) + racks(sc.gateways);
                    let mut sim = Simulator::new(seed);
                    black_box(LeafSpine::build(&mut sim, cfg).leaves.len());
                }
                Workload::D3L1Fanout => {
                    let cfg = L1FabricConfig {
                        normalizers: sc.normalizers,
                        strategies: sc.strategies,
                        gateways: sc.gateways,
                        subscription_cap: sc.normalizers,
                        ..L1FabricConfig::default()
                    };
                    let mut sim = Simulator::new(seed);
                    black_box(L1TradingFabric::build(&mut sim, &cfg).dist_merge_node());
                }
                Workload::MetroSwarm => {
                    black_box(workloads::build_swarm(seed, false).node_count());
                }
            });
            ns.1 as f64 / 1e9
        })
        .collect();
    median(&mut secs)
}

/// Host seconds for `DesignReport::to_json` on the untraced report (0 on
/// the swarm, which has no report).
fn report_json_s(tr: &mut Tracer, report: Option<&DesignReport>) -> f64 {
    let Some(report) = report else {
        return 0.0;
    };
    let mut secs: Vec<f64> = (0..BATCHES)
        .map(|_| {
            tr.span("core.report_json", |_| black_box(report.to_json()))
                .1 as f64
                / 1e9
        })
        .collect();
    median(&mut secs)
}

/// Host ns per sample of `LatencyStats::from_samples` over 2^17 seeded
/// log-uniform latencies (1 ns to ~1 ms).
fn summary_ns(tr: &mut Tracer, seed: u64) -> f64 {
    const SAMPLES: usize = 1 << 17;
    let mut rng = SmallRng::seed_from_u64(seed);
    let samples: Vec<u64> = (0..SAMPLES)
        .map(|_| 1_000u64 << rng.gen_range(0..20u32) | rng.gen_range(0..1_000u64))
        .collect();
    tr.per_op("stats.summary", SAMPLES as u64, || {
        black_box(LatencyStats::from_samples(black_box(&samples)));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spans_nest_and_checks_count() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let mut checks = Checks::default();
        checks.expect(true, || unreachable!());
        checks.expect(false, || "broken".into());
        assert_eq!((checks.attempted, checks.failed.len()), (2, 1));
    }
}
