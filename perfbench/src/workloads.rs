//! The three workloads, built only from the simulator's public API
//! (`flextoe_topo` scenarios and hand-wired pairs, `flextoe_apps` apps,
//! `Sim`), plus the harvest that turns a finished run into simulated
//! metrics, per-layer counters and correctness checks.

use flextoe_apps::{
    ClientConfig, FramedServerConfig, LoadMode, OpenLoopConfig, RpcClientApp, RpcServerApp,
    ServerConfig, SizeDist, StackApi,
};
use flextoe_core::PoolGauges;
use flextoe_netsim::{Faults, GeParams};
use flextoe_sim::{Duration, Histogram, NodeId, Sim, Tick, Time};
use flextoe_topo::{
    build_fabric, build_pair, BuiltFabric, DynFramedServer, DynOpenLoopClient, Endpoint, Fabric,
    HostSpec, PairOpts, Role, Scenario, Stack,
};

type EchoClient = RpcClientApp<Box<dyn StackApi>>;
type EchoServer = RpcServerApp<Box<dyn StackApi>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    Echo,
    FatTree,
    Lossy,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "echo" => Some(Workload::Echo),
            "fattree" => Some(Workload::FatTree),
            "lossy" => Some(Workload::Lossy),
            _ => None,
        }
    }
}

// ---- echo: closed-loop FlexTOE pair, smallest packets --------------------

const ECHO_CONNS: u32 = 16;
const ECHO_PIPELINE: u32 = 4;
const ECHO_MSG: u32 = 64;
const ECHO_DEADLINE: Time = Time::from_ms(30);

// ---- fattree: k=8, 64 client hosts × 1564 conns = 100,096 conns ----------

const FT_K: usize = 8;
const FT_CONNS_PER_CLIENT: u32 = 1564;
const FT_RATE_RPS: f64 = 40_000.0;
const FT_DEADLINE: Time = Time::from_ms(3);
const FT_WARMUP: Time = Time::from_ms(2);

// ---- lossy: 4×2 leaf-spine, bursty loss + jitter on the fabric links -----

const LS_LEAVES: usize = 4;
const LS_SPINES: usize = 2;
const LS_HOSTS_PER_LEAF: usize = 2;
const LS_CONNS_PER_CLIENT: u32 = 128;
const LS_RATE_RPS: f64 = 100_000.0;
const LS_DEADLINE: Time = Time::from_ms(50);
const LS_WARMUP: Time = Time::from_ms(2);

/// A workload instantiated in a `Sim`, ready for `run_until(deadline)`.
pub struct Built {
    pub sim: Sim,
    pub deadline: Time,
    shape: Shape,
}

// one value per run: the size difference between variants costs nothing
#[allow(clippy::large_enum_variant)]
enum Shape {
    Pair {
        client: NodeId,
        server: NodeId,
        eps: [Endpoint; 2],
    },
    Fabric(BuiltFabric),
}

pub fn build(w: Workload, seed: u64) -> Built {
    match w {
        Workload::Echo => build_echo(seed),
        Workload::FatTree => build_scenario(fattree_scenario(seed), FT_DEADLINE),
        Workload::Lossy => build_scenario(lossy_scenario(seed), LS_DEADLINE),
    }
}

fn build_echo(seed: u64) -> Built {
    let mut sim = Sim::new(seed);
    let (ea, eb) = build_pair(
        &mut sim,
        Stack::FlexToe,
        Stack::FlexToe,
        &PairOpts::default(),
    );
    let server = sim.add_node(EchoServer::new(
        ServerConfig {
            msg_size: ECHO_MSG,
            resp_size: ECHO_MSG,
            app_cycles: 0,
            ..Default::default()
        },
        eb.stack_init(Stack::FlexToe, 1),
    ));
    let client = sim.add_node(EchoClient::new(
        ClientConfig {
            server_ip: eb.ip,
            n_conns: ECHO_CONNS,
            msg_size: ECHO_MSG,
            resp_size: ECHO_MSG,
            mode: LoadMode::Closed {
                pipeline: ECHO_PIPELINE,
            },
            warmup: Time::from_ms(2),
            connect_spacing: echo_connect_spacing(seed),
            ..Default::default()
        },
        ea.stack_init(Stack::FlexToe, 1),
    ));
    sim.schedule(Time::ZERO, server, Tick);
    sim.schedule(Time::from_us(20), client, Tick);
    Built {
        sim,
        deadline: ECHO_DEADLINE,
        shape: Shape::Pair {
            client,
            server,
            eps: [ea, eb],
        },
    }
}

/// The closed loop itself draws nothing random, so the seed picks the
/// connection-setup stagger (2.0–4.0 µs): it sets the phase of the 16
/// loops against each other and with it the simulated latencies.
fn echo_connect_spacing(seed: u64) -> Duration {
    let mut rng = flextoe_sim::Rng::new(seed);
    Duration::from_ns(rng.range(2_000, 4_000))
}

fn build_scenario(sc: Scenario, deadline: Time) -> Built {
    let mut sim = Sim::new(sc.seed);
    let fab = build_fabric(&mut sim, &sc);
    Built {
        sim,
        deadline,
        shape: Shape::Fabric(fab),
    }
}

/// Every even host opens `FT_CONNS_PER_CLIENT` connections to the odd
/// host at the same offset in the next pod, so all traffic crosses the
/// core tier.
fn fattree_scenario(seed: u64) -> Scenario {
    let fabric = Fabric::FatTree { k: FT_K };
    let per_pod = FT_K * FT_K / 4;
    let mut opts = PairOpts::default();
    // 100k sockets × 2 sides: small per-socket buffers keep the
    // footprint in the low gigabytes
    opts.cfg.rx_buf_size = 4 * 1024;
    opts.cfg.tx_buf_size = 4 * 1024;
    let hosts = (0..fabric.n_hosts())
        .map(|i| {
            let role = if i % 2 == 0 {
                let target = ((i / per_pod + 1) % FT_K) * per_pod + (i % per_pod) + 1;
                Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: FT_CONNS_PER_CLIENT,
                        rate_rps: FT_RATE_RPS,
                        req_size: SizeDist::Fixed(64),
                        resp_size: SizeDist::Fixed(512),
                        warmup: FT_WARMUP,
                        connect_spacing: Duration::from_ns(400),
                        ..Default::default()
                    },
                    target,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec {
                stack: Stack::FlexToe,
                role,
            }
        })
        .collect();
    Scenario {
        hosts,
        opts,
        ..Scenario::idle(seed, fabric, Stack::FlexToe)
    }
}

/// Even hosts are clients; a client on leaf L targets the server on leaf
/// L+1, so every request and response crosses the lossy spine links.
fn lossy_scenario(seed: u64) -> Scenario {
    let fabric = Fabric::LeafSpine {
        leaves: LS_LEAVES,
        spines: LS_SPINES,
        hosts_per_leaf: LS_HOSTS_PER_LEAF,
    };
    let hosts = (0..fabric.n_hosts())
        .map(|i| {
            let role = if i % 2 == 0 {
                let leaf = i / LS_HOSTS_PER_LEAF;
                let target = ((leaf + 1) % LS_LEAVES) * LS_HOSTS_PER_LEAF + 1;
                Role::OpenLoop {
                    cfg: OpenLoopConfig {
                        n_conns: LS_CONNS_PER_CLIENT,
                        rate_rps: LS_RATE_RPS,
                        req_size: SizeDist::Fixed(64),
                        resp_size: SizeDist::Pareto {
                            alpha: 1.15,
                            min: 64,
                            max: 64 * 1024,
                        },
                        warmup: LS_WARMUP,
                        connect_spacing: Duration::from_ns(400),
                        ..Default::default()
                    },
                    target,
                }
            } else {
                Role::FramedServer(FramedServerConfig::default())
            };
            HostSpec {
                stack: Stack::FlexToe,
                role,
            }
        })
        .collect();
    let mut sc = Scenario {
        hosts,
        ..Scenario::idle(seed, fabric, Stack::FlexToe)
    };
    sc.links.fabric.faults = Faults {
        jitter: Duration::from_ns(1_500),
        ge: Some(GeParams {
            p_enter: 0.0013,
            p_exit: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        }),
        ..Default::default()
    };
    sc
}

// ---- harvest ---------------------------------------------------------------

/// Everything a finished run reports. Deterministic per seed: two runs
/// of one seed — traced or not — must produce identical outcomes.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub events: u64,
    pub rps: f64,
    pub goodput_gbps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub issued: u64,
    /// Dead requests + aborted connections + connect failures.
    pub failed: u64,
    /// Per-layer counters, in output order.
    pub counters: Vec<(&'static str, f64)>,
}

/// Client-side tallies summed over every client app.
#[derive(Default)]
struct Apps {
    latency: Histogram,
    issued: u64,
    completed: u64,
    dead: u64,
    in_flight: u64,
    aborted: u64,
    connect_failed: u64,
    samples: u64,
    resp_bytes: u64,
    first: Option<Time>,
    last: Time,
}

impl Apps {
    fn window(&mut self, first: Time, last: Time, measured: u64) {
        if measured > 0 {
            self.first = Some(self.first.map_or(first, |f| f.min(first)));
            self.last = self.last.max(last);
        }
    }
}

/// Harvest a finished run and check its outputs. `Err` names the first
/// failed check.
pub fn harvest(w: Workload, b: &Built) -> Result<Outcome, String> {
    let sim = &b.sim;
    let mut apps = Apps::default();
    let mut gauges = PoolGauges::default();
    match &b.shape {
        Shape::Pair {
            client,
            server,
            eps,
        } => {
            let c = sim.node_ref::<EchoClient>(*client);
            let s = sim.node_ref::<EchoServer>(*server);
            check(c.connected == ECHO_CONNS && c.failed == 0, || {
                format!(
                    "echo: {} of {ECHO_CONNS} connected, {} failed",
                    c.connected, c.failed
                )
            })?;
            // closed loop: every completion issues the next request, so
            // each connection always has `pipeline` requests outstanding
            let in_flight = (c.connected * ECHO_PIPELINE) as u64;
            check(
                s.requests >= c.completed && s.requests <= c.completed + in_flight,
                || {
                    format!(
                    "echo: server saw {} requests, client completed {} with {in_flight} in flight",
                    s.requests, c.completed
                )
                },
            )?;
            check(c.bytes_in >= c.completed * ECHO_MSG as u64, || {
                format!(
                    "echo: {} response bytes for {} completions",
                    c.bytes_in, c.completed
                )
            })?;
            apps.latency = c.latency.clone();
            apps.issued = c.completed + in_flight;
            apps.completed = c.completed;
            apps.in_flight = in_flight;
            apps.samples = c.measured;
            apps.resp_bytes = c.measured * ECHO_MSG as u64;
            apps.window(c.first_measured_at, c.last_measured_at, c.measured);
            for ep in eps {
                if let Some((nic, _)) = &ep.flextoe {
                    gauges.merge(&nic.pool_gauges(sim));
                }
            }
        }
        Shape::Fabric(fab) => {
            for h in &fab.hosts {
                if let Some((nic, _)) = &h.ep.flextoe {
                    gauges.merge(&nic.pool_gauges(sim));
                }
                let Some(app) = h.app else { continue };
                if let Some(node) = h.client() {
                    let c = sim.node_ref::<DynOpenLoopClient>(node);
                    let in_flight = c.in_flight() as u64;
                    check(
                        c.issued == c.completed + c.dead_requests + in_flight,
                        || {
                            format!(
                            "{w:?}: host {} issued {} != completed {} + dead {} + in flight {in_flight}",
                            h.ep.ip, c.issued, c.completed, c.dead_requests
                        )
                        },
                    )?;
                    apps.latency.merge(&c.latency);
                    apps.issued += c.issued;
                    apps.completed += c.completed;
                    apps.dead += c.dead_requests;
                    apps.in_flight += in_flight;
                    apps.aborted += c.aborted_conns;
                    apps.connect_failed += c.failed as u64;
                    apps.samples += c.measured;
                    apps.resp_bytes += c.measured_resp_bytes();
                    apps.window(c.first_measured_at, c.last_measured_at, c.measured);
                    let want = match w {
                        Workload::FatTree => FT_CONNS_PER_CLIENT,
                        _ => LS_CONNS_PER_CLIENT,
                    };
                    check(c.connected == want && c.failed == 0, || {
                        format!(
                            "{w:?}: host {} connected {} of {want}, {} failed",
                            h.ep.ip, c.connected, c.failed
                        )
                    })?;
                } else {
                    let s = sim.node_ref::<DynFramedServer>(app);
                    check(s.bad_frames == 0, || {
                        format!("{w:?}: server {} saw {} bad frames", h.ep.ip, s.bad_frames)
                    })?;
                }
            }
        }
    }
    check(apps.samples >= 2, || {
        format!("{w:?}: {} requests completed after warmup", apps.samples)
    })?;
    let span = apps
        .last
        .saturating_since(apps.first.unwrap_or(apps.last))
        .as_secs_f64();
    check(span > 0.0, || format!("{w:?}: empty measurement window"))?;

    let st = |name: &str| sim.stats.get_named(name) as f64;
    let reports = st("ccp.reports");
    let batches = st("ccp.batches");
    let counters = vec![
        ("core.work_hwm", gauges.work_high_water as f64),
        ("core.pktbuf_hwm", gauges.seg_high_water as f64),
        ("core.conn_cache_hwm", gauges.cache_high_water as f64),
        ("core.conn_cache_sram_hits", gauges.cache_sram_hits as f64),
        ("core.pool_exhausted", st("nic.pool_exhausted")),
        ("core.proto.ooo", st("proto.ooo")),
        ("core.proto.fast_retx", st("proto.fast_retx")),
        ("core.proto.rto_retx", st("proto.rto_retx")),
        ("nfp.mac.tx_drops", st("mac.tx_drops")),
        ("control.rto_fired", st("ctrl.rto_fired")),
        ("control.abort", st("ctrl.abort")),
        ("control.teardown", st("ctrl.teardown")),
        ("control.admission_refused", st("ctrl.admission_refused")),
        ("ccp.reports", reports),
        ("ccp.batches", batches),
        (
            "ccp.reports_per_batch",
            if batches > 0.0 {
                reports / batches
            } else {
                0.0
            },
        ),
        ("netsim.switch.routed", st("switch.routed")),
        ("netsim.link.drops", st("link.drops")),
        ("netsim.link.ge_drops", st("link.ge_drops")),
        ("apps.issued", apps.issued as f64),
        ("apps.completed", apps.completed as f64),
        ("apps.backlog", apps.in_flight as f64),
        ("apps.samples", apps.samples as f64),
    ];
    let lat = &apps.latency;
    Ok(Outcome {
        events: sim.events_processed(),
        rps: (apps.samples - 1) as f64 / span,
        goodput_gbps: apps.resp_bytes as f64 * 8.0 / span / 1e9,
        p50_us: interpolated_quantile(lat, 0.50) / 1e3,
        p99_us: interpolated_quantile(lat, 0.99) / 1e3,
        p999_us: interpolated_quantile(lat, 0.999) / 1e3,
        issued: apps.issued,
        failed: apps.dead + apps.aborted + apps.connect_failed,
        counters,
    })
}

/// `Histogram::quantile` answers with its bucket's midpoint, so a
/// percentile moves only when it crosses a bucket (~1.5% wide). This
/// spreads the samples of that bucket evenly across it instead: the
/// bucket is the run of ranks that `quantile` maps to the same value,
/// found by binary search, and its width follows the histogram's layout
/// (64 linear sub-buckets per power of two).
fn interpolated_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64);
    let rank = ((q * n as f64).floor() as u64 + 1).min(n);
    let v = at(rank);
    // the ranks answering `v` are one bucket's samples
    let first = partition(1, rank, |r| at(r) >= v);
    let last = partition(rank, n + 1, |r| at(r) > v) - 1;
    let width = if v < 64 {
        1
    } else {
        1u64 << (63 - v.leading_zeros() - 6)
    };
    let bottom = v.saturating_sub(width / 2) as f64;
    let within = (rank - first) as f64 + 0.5;
    let est = bottom + width as f64 * within / (last - first + 1) as f64;
    est.clamp(h.min() as f64, h.max() as f64)
}

/// Smallest `r` in `lo..hi` for which the monotone `pred` holds, or `hi`.
fn partition(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid
        } else {
            lo = mid + 1
        }
    }
    lo
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_quantile_tracks_exact_ranks() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.5, 50_001.0), (0.99, 99_001.0), (0.999, 99_901.0)] {
            let est = interpolated_quantile(&h, q);
            assert!(
                (est - exact).abs() / exact < 1e-3,
                "q {q}: {est} vs {exact} (bucketed {})",
                h.quantile(q)
            );
        }
        let mut one = Histogram::new();
        one.record(25_000);
        assert_eq!(interpolated_quantile(&one, 0.5), 25_000.0);
    }
}
