//! Ground-truth differential scoring: the one experiment a real
//! testbed cannot run. The sim records exact per-flow byte counts next
//! to the sketch; these helpers turn (truth, estimator, candidates)
//! into ARE and heavy-hitter recall/precision.

/// Accuracy of one sketch against exact truth.
#[derive(Clone, Copy, Debug)]
pub struct SketchScore {
    /// Average relative error over all true flows: mean |est-true|/true.
    pub are: f64,
    /// Flows where the sketch reported less than truth. An intact LSB
    /// sketch never under-estimates, so this is 0 unless epochs were
    /// lost (e.g. a killed switch).
    pub underestimates: u64,
    /// True heavy hitters (flows with >= theta * total true bytes).
    pub hh_truth: usize,
    /// Reported heavy hitters among the candidate keys.
    pub hh_est: usize,
    /// |truth ∩ est| / |truth| (1.0 when truth set is empty).
    pub hh_recall: f64,
    /// |truth ∩ est| / |est| (1.0 when est set is empty).
    pub hh_precision: f64,
}

/// Keys whose value meets `theta * total`, from a `(key, value)` slice.
/// Returns keys sorted ascending. `total` is passed explicitly so the
/// estimate side can threshold on the sketch's own observed total.
pub fn heavy_hitters(flows: &[(u64, u64)], total: u64, theta: f64) -> Vec<u64> {
    let thresh = (theta * total as f64).max(1.0) as u64;
    let mut hh: Vec<u64> = flows
        .iter()
        .filter(|&&(_, v)| v >= thresh)
        .map(|&(k, _)| k)
        .collect();
    hh.sort_unstable();
    hh
}

/// Score an estimator against exact truth.
///
/// * `truth` — exact per-flow byte counts, sorted by key (determinism:
///   all accumulation runs in that order).
/// * `est` — point-query closure (sketch estimate for a key).
/// * `est_total` / `candidates` — the sketch's own observed byte total
///   and candidate-key set (what a real collector would threshold on).
/// * `theta` — heavy-hitter threshold as a fraction of total bytes.
pub fn score_sketch(
    truth: &[(u64, u64)],
    est: impl Fn(u64) -> u64,
    candidates: &[u64],
    est_total: u64,
    theta: f64,
) -> SketchScore {
    let mut are_sum = 0.0f64;
    let mut n = 0u64;
    let mut underestimates = 0u64;
    let mut truth_total = 0u64;
    for &(k, t) in truth {
        truth_total += t;
        if t == 0 {
            continue;
        }
        let e = est(k);
        if e < t {
            underestimates += 1;
        }
        are_sum += (e.abs_diff(t)) as f64 / t as f64;
        n += 1;
    }
    let are = if n == 0 { 0.0 } else { are_sum / n as f64 };

    let hh_true = heavy_hitters(truth, truth_total, theta);
    let est_flows: Vec<(u64, u64)> = candidates.iter().map(|&k| (k, est(k))).collect();
    let hh_rep = heavy_hitters(&est_flows, est_total, theta);
    let hit = hh_rep
        .iter()
        .filter(|k| hh_true.binary_search(k).is_ok())
        .count();
    let hh_recall = if hh_true.is_empty() {
        1.0
    } else {
        hit as f64 / hh_true.len() as f64
    };
    let hh_precision = if hh_rep.is_empty() {
        1.0
    } else {
        hit as f64 / hh_rep.len() as f64
    };
    SketchScore {
        are,
        underestimates,
        hh_truth: hh_true.len(),
        hh_est: hh_rep.len(),
        hh_recall,
        hh_precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{LsbSketch, SketchCfg};

    #[test]
    fn perfect_estimator_scores_perfectly() {
        let truth: Vec<(u64, u64)> = (1..=100).map(|k| (k, k * 10)).collect();
        let total: u64 = truth.iter().map(|&(_, v)| v).sum();
        let cands: Vec<u64> = truth.iter().map(|&(k, _)| k).collect();
        let s = score_sketch(&truth, |k| k * 10, &cands, total, 0.01);
        assert_eq!(s.are, 0.0);
        assert_eq!(s.underestimates, 0);
        assert_eq!(s.hh_recall, 1.0);
        assert_eq!(s.hh_precision, 1.0);
        assert!(s.hh_truth > 0);
    }

    #[test]
    fn heavy_hitters_threshold() {
        let flows = vec![(1u64, 500u64), (2, 400), (3, 50), (4, 50)];
        let hh = heavy_hitters(&flows, 1000, 0.1);
        assert_eq!(hh, vec![1, 2]);
    }

    #[test]
    fn sketch_scores_sanely() {
        let cfg = SketchCfg {
            depth: 4,
            width: 1024,
            key_slots: 256,
        };
        let mut lsb = LsbSketch::new(&cfg);
        let truth: Vec<(u64, u64)> = (1..=200u64)
            .map(|k| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), 64 + (k % 7) * 64))
            .collect();
        let mut sorted = truth.clone();
        sorted.sort_unstable();
        for &(k, v) in &sorted {
            lsb.update(k, v);
        }
        let cands: Vec<u64> = sorted.iter().map(|&(k, _)| k).collect();
        let s = score_sketch(&sorted, |k| lsb.estimate(k), &cands, lsb.total(), 0.005);
        // 200 keys into 4x1024 cells: essentially collision-free.
        assert!(s.are < 0.05, "are {}", s.are);
        assert_eq!(s.underestimates, 0);
        assert!(s.hh_recall > 0.9);
    }

    #[test]
    fn empty_sets_convention() {
        let s = score_sketch(&[], |_| 0, &[], 0, 0.01);
        assert_eq!(s.are, 0.0);
        assert_eq!(s.hh_recall, 1.0);
        assert_eq!(s.hh_precision, 1.0);
    }
}
