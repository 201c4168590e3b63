//! Node-name → layer attribution for the profiler's per-node table.
//! Layers are named after the crates that own the nodes. A node with
//! events but no layer is an error, so host time is never silently
//! misattributed.

/// Leaf layers, in output order: (layer, node names it owns). Indexed
/// node names (`proto-stage[0]`) match on the part before `[`.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("core.pre", &["pre-stage"]),
    ("core.seqr", &["seqr"]),
    ("core.proto", &["proto-stage"]),
    ("core.post", &["post-stage"]),
    ("core.dma", &["dma-stage"]),
    ("core.ctxq", &["ctxq-stage"]),
    ("core.sched", &["sched"]),
    ("nfp.dma", &["dma-engine"]),
    ("nfp.mac", &["mac-port"]),
    ("control", &["control-plane"]),
    ("netsim.switch", &["switch"]),
    ("netsim.link", &["link"]),
    ("apps.client", &["rpc-client", "openloop-client"]),
    ("apps.server", &["rpc-server", "framed-server"]),
];

/// Crate-level rollups: every leaf layer belongs to the rollup its name
/// starts with (`control` is its own rollup).
pub const ROLLUPS: &[&str] = &["core", "nfp", "control", "netsim", "apps"];

/// Host time and events per leaf layer, indexed like [`LAYERS`].
pub struct Attribution {
    pub busy_ns: Vec<u64>,
    pub events: Vec<u64>,
}

/// Attribute a profiler dump (`(node name, ns, events)`) to layers.
pub fn attribute(dump: &[(String, u64, u64)]) -> Result<Attribution, String> {
    let mut a = Attribution {
        busy_ns: vec![0; LAYERS.len()],
        events: vec![0; LAYERS.len()],
    };
    for (name, ns, n) in dump {
        let base = name.split('[').next().unwrap_or(name);
        let Some(i) = LAYERS.iter().position(|(_, nodes)| nodes.contains(&base)) else {
            if *n > 0 {
                return Err(format!("node `{name}` has {n} events but no layer"));
            }
            continue;
        };
        a.busy_ns[i] += ns;
        a.events[i] += n;
    }
    Ok(a)
}

/// Rollup a leaf layer belongs to.
pub fn rollup_of(layer: &str) -> &str {
    layer.split('.').next().unwrap_or(layer)
}
