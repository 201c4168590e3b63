//! FlexTOE reproduction experiment harness: one subcommand per table and
//! figure of the paper's evaluation, plus the congested-fabric (`cc`) and
//! connection-scalability (`scale`) scenarios and the `bench-pipeline`
//! perf snapshot.
//!
//! ```text
//! cargo run -p flextoe-bench --release -- all
//! cargo run -p flextoe-bench --release -- table3 fig15
//! cargo run -p flextoe-bench --release -- scale --smoke --seed 17 --out target
//! ```

use flextoe_bench::cli::RunOpts;
use flextoe_bench::{cc, exp, faults, scale, telemetry};

/// An experiment entry point: the paper reproductions are parameterless;
/// the scenario experiments take the shared `--seed/--out/--smoke` opts.
enum Runner {
    Plain(fn()),
    WithOpts(fn(&RunOpts)),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, names) = RunOpts::parse(&args);
    let run_all = names.is_empty() || names.iter().any(|a| a == "all");
    // the perf snapshot and the scale sweep only run on explicit request,
    // not under `all`; `cc` stays in `all` (it reproduces the §D
    // congestion-control evaluation)
    let explicit_only = ["bench-pipeline", "scale", "faults", "telemetry"];
    let want = |name: &str| {
        if explicit_only.contains(&name) {
            return names.iter().any(|a| a == name);
        }
        run_all || names.iter().any(|a| a == name)
    };

    use Runner::*;
    let experiments: &[(&str, Runner)] = &[
        ("table1", Plain(exp::table1)),
        ("table2", Plain(exp::table2)),
        ("table3", Plain(exp::table3)),
        ("table4", Plain(exp::table4)),
        ("table5", Plain(exp::table5)),
        ("table6", Plain(exp::table6)),
        ("fig8", Plain(exp::fig8)),
        ("fig9", Plain(exp::fig9)),
        ("fig10", Plain(exp::fig10)),
        ("fig11", Plain(exp::fig11)),
        ("fig12", Plain(exp::fig12)),
        ("fig13", Plain(exp::fig13)),
        ("fig14", Plain(exp::fig14)),
        ("fig15", Plain(exp::fig15)),
        ("fig16", Plain(exp::fig16)),
        ("ablate-reorder", Plain(exp::ablate_reorder)),
        ("cc", WithOpts(cc::cc)),
        ("scale", WithOpts(scale::scale)),
        ("faults", WithOpts(faults::faults)),
        ("telemetry", WithOpts(telemetry::telemetry)),
        ("bench-pipeline", WithOpts(exp::bench_pipeline)),
    ];

    let mut ran = 0;
    for (name, f) in experiments {
        if want(name) {
            let t0 = std::time::Instant::now();
            match f {
                Plain(f) => f(),
                WithOpts(f) => f(&opts),
            }
            eprintln!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment; available:");
        for (name, _) in experiments {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
}
