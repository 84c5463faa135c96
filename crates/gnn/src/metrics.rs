//! Evaluation metrics: classification accuracy (Fig. 3/5a/6a) and the
//! ROC-AUC score for link prediction (Fig. 4/5b/6b; the paper's ref \[44\]).

use lumos_tensor::nn::argmax_rows;
use lumos_tensor::Tensor;

/// Classification accuracy over masked rows: the predicted class is the
/// argmax of each logit row.
///
/// # Panics
/// Panics if lengths disagree or the mask selects nothing.
pub fn accuracy_masked(logits: &Tensor, labels: &[u32], mask: &[bool]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "row/label mismatch");
    assert_eq!(labels.len(), mask.len(), "label/mask mismatch");
    let preds = argmax_rows(logits);
    let mut correct = 0usize;
    let mut total = 0usize;
    for i in 0..labels.len() {
        if mask[i] {
            total += 1;
            if preds[i] == labels[i] {
                correct += 1;
            }
        }
    }
    assert!(total > 0, "mask selects no rows");
    correct as f64 / total as f64
}

/// ROC-AUC via the rank statistic: the probability that a random positive
/// scores above a random negative, with ties counted half (equivalent to
/// the Mann–Whitney U).
///
/// # Panics
/// Panics if either class is empty or scores contain NaN.
pub fn roc_auc(pos_scores: &[f32], neg_scores: &[f32]) -> f64 {
    assert!(!pos_scores.is_empty(), "need positive examples");
    assert!(!neg_scores.is_empty(), "need negative examples");
    let mut all: Vec<(f32, bool)> = pos_scores
        .iter()
        .map(|&s| (s, true))
        .chain(neg_scores.iter().map(|&s| (s, false)))
        .collect();
    assert!(all.iter().all(|(s, _)| !s.is_nan()), "NaN score");
    all.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));

    // Average ranks over tie groups.
    let n = all.len();
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < n {
        let mut j = i;
        while j + 1 < n && all[j + 1].0 == all[i].0 {
            j += 1;
        }
        // 1-based average rank of the tie group [i, j].
        let avg_rank = (i + 1 + j + 1) as f64 / 2.0;
        for item in &all[i..=j] {
            if item.1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let np = pos_scores.len() as f64;
    let nn = neg_scores.len() as f64;
    (rank_sum_pos - np * (np + 1.0) / 2.0) / (np * nn)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_masked_rows_only() {
        let logits = Tensor::from_vec(3, 2, vec![2.0, 1.0, 0.0, 3.0, 5.0, -1.0]);
        let labels = vec![0u32, 1, 1];
        // Row 2 is wrong (pred 0, label 1) but masked out.
        let acc = accuracy_masked(&logits, &labels, &[true, true, false]);
        assert_eq!(acc, 1.0);
        let acc_all = accuracy_masked(&logits, &labels, &[true, true, true]);
        assert!((acc_all - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        assert_eq!(roc_auc(&[2.0, 3.0], &[0.0, 1.0]), 1.0);
        assert_eq!(roc_auc(&[0.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn auc_random_scores_near_half() {
        let mut rng = lumos_common::rng::Xoshiro256pp::seed_from_u64(3);
        let pos: Vec<f32> = (0..4000).map(|_| rng.next_f32()).collect();
        let neg: Vec<f32> = (0..4000).map(|_| rng.next_f32()).collect();
        let auc = roc_auc(&pos, &neg);
        assert!((auc - 0.5).abs() < 0.03, "auc {auc}");
    }

    #[test]
    fn auc_handles_ties_as_half() {
        // All scores identical: AUC must be exactly 0.5.
        assert_eq!(roc_auc(&[1.0, 1.0, 1.0], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn auc_invariant_under_monotone_transform() {
        let pos = [0.1f32, 0.4, 0.35, 0.8];
        let neg = [0.05f32, 0.3, 0.2];
        let auc1 = roc_auc(&pos, &neg);
        let f = |x: f32| (5.0 * x).exp();
        let pos2: Vec<f32> = pos.iter().map(|&x| f(x)).collect();
        let neg2: Vec<f32> = neg.iter().map(|&x| f(x)).collect();
        let auc2 = roc_auc(&pos2, &neg2);
        assert!((auc1 - auc2).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn auc_rejects_empty_class() {
        roc_auc(&[], &[1.0]);
    }
}
