//! The repo benchmark. Builds one workload from the simulator's public
//! API, times each layer call from outside (scenario build, `run_until`,
//! harvest), checks the outputs, and prints one JSON result line.
//!
//! ```sh
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload echo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` adds a
//! profiled run and reports the per-layer breakdown. See `README.md`.

mod alloc;
mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workloads::{Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// The first untraced run is a warm-up: it is checked, and its
/// allocation counts are compared with the later runs', but its time is
/// left out of `run_s` — it alone pays for first-touch page faults on
/// the heap (about 2 s of the fat-tree's 9 s).
const WARMUP_RUNS: usize = 1;
/// Timed untraced runs per invocation, at least.
const MIN_TIMED_RUNS: usize = 2;
/// Scenario builds timed per invocation for the `setup_s` median: at
/// least the minimum, and more while their total stays under the budget
/// (a pair builds in ~0.1 ms, the fat-tree in ~10 ms).
const SETUP_MIN_SAMPLES: usize = 15;
const SETUP_MAX_SAMPLES: usize = 2_000;
const SETUP_BUDGET_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&val)
                        .ok_or(format!("unknown workload `{val}` (echo, fattree, lossy)"))?,
                )
            }
            "--seed" => seed = val.parse().map_err(|_| bad)?,
            "--seconds" => seconds = val.parse().map_err(|_| bad)?,
            "--trace" => trace = val.parse::<u8>().map_err(|_| bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One build → run → harvest of the workload.
struct Run {
    setup_s: f64,
    run_s: f64,
    harvest_s: f64,
    setup_allocs: u64,
    run_allocs: u64,
    peak_heap_bytes: usize,
    outcome: Outcome,
    /// Profiler tables (traced runs only).
    prof: Option<Profile>,
}

/// `Sim::prof_dump` (node name, ns, events) and `Sim::prof_kind_dump`.
type Profile = (Vec<(String, u64, u64)>, Vec<(&'static str, u64)>);

fn run_once(w: Workload, seed: u64, traced: bool) -> Result<Run, String> {
    let live0 = alloc::live_bytes();
    alloc::reset_peak();
    let a0 = alloc::allocs();
    let t0 = Instant::now();
    let mut b = workloads::build(w, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let a1 = alloc::allocs();
    b.sim.set_prof(traced);
    let t1 = Instant::now();
    b.sim.run_until(b.deadline);
    let run_s = t1.elapsed().as_secs_f64();
    let a2 = alloc::allocs();
    let peak_heap_bytes = alloc::peak_bytes() - live0;
    let t2 = Instant::now();
    let outcome = workloads::harvest(w, &b)?;
    let harvest_s = t2.elapsed().as_secs_f64();
    let prof = traced.then(|| (b.sim.prof_dump(), b.sim.prof_kind_dump()));
    Ok(Run {
        setup_s,
        run_s,
        harvest_s,
        setup_allocs: a1 - a0,
        run_allocs: a2 - a1,
        peak_heap_bytes,
        outcome,
        prof,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kb: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: RUSAGE_SELF (0) fills the caller-owned struct, whose
    // layout matches the 64-bit Linux `struct rusage`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    u.maxrss_kb as f64 / 1024.0
}

/// Allocation counts and simulated results must repeat across runs of
/// one seed. Setup allocations must match exactly. Run allocations may
/// differ by at most this share: `flextoe_nfp::cam::LruCache` indexes a
/// std `HashMap`, whose hasher is seeded per process, and whether a full
/// table rehashes in place or grows depends on where its tombstones
/// fell — one allocation in about 366k on `lossy`. With a fixed hasher
/// in that map the counts repeat exactly; `sim.run_alloc_spread` keeps
/// the difference visible until then.
const RUN_ALLOC_SLACK: f64 = 1e-5;

fn same_work(a: &Run, b: &Run) -> Result<(), String> {
    if a.setup_allocs != b.setup_allocs {
        return Err(format!(
            "setup allocations differ between runs of one seed: {} vs {}",
            a.setup_allocs, b.setup_allocs
        ));
    }
    let slack = (a.run_allocs as f64 * RUN_ALLOC_SLACK).max(1.0);
    if a.run_allocs.abs_diff(b.run_allocs) as f64 > slack {
        return Err(format!(
            "run allocations differ between runs of one seed: {} vs {}",
            a.run_allocs, b.run_allocs
        ));
    }
    same_outcome(&a.outcome, &b.outcome, "two untraced runs")
}

fn same_outcome(a: &Outcome, b: &Outcome, between: &str) -> Result<(), String> {
    if a != b {
        return Err(format!(
            "simulated results differ between {between}:\n  {a:?}\n  {b:?}"
        ));
    }
    Ok(())
}

/// Median `run_until` time of the untraced runs after the warm-up.
fn timed_run_s(runs: &[Run]) -> f64 {
    median(runs[WARMUP_RUNS..].iter().map(|r| r.run_s).collect())
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(runs: &[Run], setups: Vec<f64>) -> Metrics {
    let o = &runs[0].outcome;
    vec![
        ("run_s".into(), timed_run_s(runs), "s"),
        ("setup_s".into(), median(setups), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ("sim_rps".into(), o.rps, "1/s"),
        ("sim_goodput_gbps".into(), o.goodput_gbps, "Gbit/s"),
        ("sim_p50_us".into(), o.p50_us, "us"),
        ("sim_p99_us".into(), o.p99_us, "us"),
        ("sim_p999_us".into(), o.p999_us, "us"),
    ]
}

fn per_layer(runs: &[Run], traced: &Run) -> Result<Metrics, String> {
    let (dump, kinds) = traced.prof.as_ref().expect("traced run has a profile");
    let attr = layers::attribute(dump)?;
    let mut m: Metrics = Vec::new();
    let mut put = |name: String, v: f64, unit| m.push((name, v, unit));

    let wall_s = traced.run_s;
    let mut rollup_ns = vec![0u64; layers::ROLLUPS.len()];
    let mut rollup_ev = vec![0u64; layers::ROLLUPS.len()];
    for (i, (layer, _)) in layers::LAYERS.iter().enumerate() {
        let (ns, ev) = (attr.busy_ns[i], attr.events[i]);
        let r = layers::ROLLUPS
            .iter()
            .position(|&r| r == layers::rollup_of(layer))
            .expect("every layer has a rollup");
        rollup_ns[r] += ns;
        rollup_ev[r] += ev;
        put(format!("{layer}.busy_s"), ns as f64 / 1e9, "s");
        put(format!("{layer}.events"), ev as f64, "count");
        let per = if ev > 0 { ns as f64 / ev as f64 } else { 0.0 };
        put(format!("{layer}.ns_per_event"), per, "ns");
    }
    for (r, name) in layers::ROLLUPS.iter().enumerate() {
        if *name != "control" {
            put(format!("{name}.busy_s"), rollup_ns[r] as f64 / 1e9, "s");
            put(format!("{name}.events"), rollup_ev[r] as f64, "count");
        }
        put(
            format!("{name}.share"),
            rollup_ns[r] as f64 / 1e9 / wall_s,
            "fraction",
        );
    }
    let busy_s = rollup_ns.iter().sum::<u64>() as f64 / 1e9;
    let overhead_s = wall_s - busy_s;
    put("sim.overhead_share".into(), overhead_s / wall_s, "fraction");

    for (name, v) in &traced.outcome.counters {
        put(name.to_string(), *v, "count");
    }

    let o = &runs[0].outcome;
    let untraced_s = timed_run_s(runs);
    put("sim.events".into(), o.events as f64, "count");
    put(
        "sim.events_per_s".into(),
        o.events as f64 / untraced_s,
        "1/s",
    );
    put("sim.traced_run_s".into(), wall_s, "s");
    put("sim.cold_run_s".into(), runs[0].run_s, "s");
    put("sim.overhead_s".into(), overhead_s, "s");
    put(
        "sim.harvest_s".into(),
        median(runs.iter().map(|r| r.harvest_s).collect()),
        "s",
    );
    put(
        "sim.allocs_per_event".into(),
        runs[0].run_allocs as f64 / o.events as f64,
        "count",
    );
    put(
        "sim.setup_allocs".into(),
        runs[0].setup_allocs as f64,
        "count",
    );
    let run_allocs = runs.iter().map(|r| r.run_allocs);
    let spread = run_allocs.clone().max().unwrap() - run_allocs.min().unwrap();
    put("sim.run_alloc_spread".into(), spread as f64, "count");
    put(
        "sim.peak_heap_mb".into(),
        runs[0].peak_heap_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    for kind in flextoe_sim::engine::MSG_KIND_NAMES {
        let n = kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, n)| n);
        put(format!("sim.kind.{kind}"), n as f64, "count");
    }
    put(
        "trace.overhead_frac".into(),
        wall_s / untraced_s - 1.0,
        "fraction",
    );
    Ok(m)
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

fn print_result(correct: bool, o: Option<&Outcome>, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.map_or(1, |o| o.issued.max(1)),
        o.map_or(0, |o| o.failed),
        body.join(", ")
    );
}

fn bench(args: &Args) -> Result<(Outcome, Metrics), String> {
    let w = args.workload;
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    // Untraced runs fill the time budget: whole runs only, none that
    // would end past the budget, and at least two, since the determinism
    // checks compare runs of one seed.
    loop {
        let r = run_once(w, args.seed, false)?;
        if let Some(first) = runs.first() {
            same_work(first, &r)?;
        }
        let last_s = r.setup_s + r.run_s + r.harvest_s;
        runs.push(r);
        // a traced invocation times the profiled run, not these
        let min_runs = if args.trace {
            2
        } else {
            WARMUP_RUNS + MIN_TIMED_RUNS
        };
        let done = runs.len() >= min_runs
            && (args.trace || start.elapsed().as_secs_f64() + last_s > args.seconds);
        if done {
            break;
        }
    }
    let outcome = runs[0].outcome.clone();
    let metrics = if args.trace {
        let traced = run_once(w, args.seed, true)?;
        same_outcome(&outcome, &traced.outcome, "the traced and untraced runs")?;
        per_layer(&runs, &traced)?
    } else {
        let mut setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
        let mut spent: f64 = setups.iter().sum();
        while setups.len() < SETUP_MIN_SAMPLES
            || (setups.len() < SETUP_MAX_SAMPLES && spent < SETUP_BUDGET_S)
        {
            let t0 = Instant::now();
            let b = workloads::build(w, args.seed);
            let s = t0.elapsed().as_secs_f64();
            drop(b);
            setups.push(s);
            spent += s;
        }
        end_to_end(&runs, setups)
    };
    eprintln!(
        "{w:?} seed {}: {} runs, {} events, run_s {:?}",
        args.seed,
        runs.len(),
        outcome.events,
        runs.iter().map(|r| r.run_s).collect::<Vec<_>>()
    );
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok((outcome, metrics)) => {
            print_result(true, Some(&outcome), &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            print_result(false, None, &Vec::new());
            ExitCode::FAILURE
        }
    }
}
