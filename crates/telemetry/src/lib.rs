//! In-fabric sketch telemetry: per-switch fast-path sketches, epoch
//! reports, collector-side merged views, and ground-truth differential
//! metrics.
//!
//! Every telemetry-enabled switch runs one sketch, the LSB-sharing
//! [`LsbSketch`] after arXiv:1905.03113 and arXiv:2503.11777, fed from
//! the frame's precomputed flow key (`flextoe-wire`'s
//! `FrameMeta::flow_basis`) so the forwarding fast path pays no extra
//! parse and no extra allocation. A *single* 64-bit mix of the basis
//! is computed once, and each row indexes an overlapping bit window of
//! that one hash. Rows share low bits (hence the name), which makes
//! the per-update cost one mix regardless of depth and makes row
//! indices of one key *correlated* — the trade the papers study for
//! resilient monitoring. Point queries take the minimum over rows, so
//! an intact sketch never under-estimates a flow. A direct-mapped
//! [`KeyTable`] beside it remembers candidate keys, which is what lets
//! the collector name heavy hitters rather than only count them.
//!
//! Sketches snapshot-and-reset into flat epoch reports
//! ([`SwitchSketch::encode_sweep`]) that travel the simulated fabric
//! as pooled frames; the collector decodes and [`MergedView::absorb`]s
//! them. Accuracy against sim ground truth is scored by
//! [`score_sketch`] (ARE + heavy-hitter recall/precision).

mod metrics;
mod report;
mod sketch;

pub use metrics::{heavy_hitters, score_sketch, SketchScore};
pub use report::{decode_report, EpochReport, MergedView, REPORT_MAGIC};
pub use sketch::{mix64, KeyTable, LsbSketch, SketchCfg, SwitchSketch};
