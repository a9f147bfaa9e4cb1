//! The offset-sampling match model (paper Section IV-A) and the pattern
//! edge probability p₂ it induces.
//!
//! Two routers observing the same content with prefix lengths l₁, l₂ get
//! identical fragments in array pair (i, j) when
//! `(l₁ − l₂) ≡ (aᵢ − bⱼ) (mod 536)`; with k offsets per router the k²
//! differences give overall match probability ≈ `1 − e^(−k²/536)`. Given a
//! match, the matched rows share the content's ~g hashed indices *plus*
//! hypergeometric background overlap, which must clear λ for an edge to
//! appear.

use dcs_stats::hypergeom_sf;

/// Probability that at least one offset pair of two routers aligns with
/// the prefix difference — the paper's `1 − e^(−k²/M)` amplification.
///
/// # Panics
/// Panics if `modulus == 0`.
pub fn offset_match_prob(k: usize, modulus: usize) -> f64 {
    assert!(modulus > 0, "modulus must be positive");
    1.0 - (-((k * k) as f64) / modulus as f64).exp()
}

/// Parameters of the analytic edge-probability model for pattern pairs.
#[derive(Debug, Clone, Copy)]
pub struct MatchModel {
    /// Offsets per router (arrays per group), the paper's k = 10.
    pub k: usize,
    /// Offset modulus (targeted payload size), the paper's 536.
    pub modulus: usize,
    /// Row width in bits (1,024).
    pub n_bits: usize,
    /// Content length in packets (g).
    pub content_packets: usize,
    /// Typical row weight (ones per row) at analysis time, ≈ n_bits/2.
    pub row_weight: usize,
}

impl MatchModel {
    /// The paper's configuration for content of `g` packets.
    ///
    /// The row weight comes from the paper's own sizing: 75,000 monitored
    /// packets per link and epoch spread over 128 groups is ~586 packets
    /// per 1,024-bit row, a fill of `1 − e^(−586/1024) ≈ 0.436` — weight
    /// ≈ 446 (the epoch closes on *total* fill, and the weight a matched
    /// pair sees is this typical row weight, not the 50% ceiling).
    pub fn paper_default(content_packets: usize) -> Self {
        MatchModel {
            k: 10,
            modulus: 536,
            n_bits: 1024,
            content_packets,
            row_weight: 446,
        }
    }

    /// Expected number of *distinct* bitmap indices the content sets in a
    /// matched row: `N(1 − (1 − 1/N)^g)` (hash collisions among the g
    /// fragments).
    pub fn content_indices(&self) -> f64 {
        let n = self.n_bits as f64;
        n * (1.0 - (1.0 - 1.0 / n).powi(self.content_packets as i32))
    }

    /// Probability that a *matched* row pair clears the threshold λ:
    /// common ones = c + Hypergeometric(N−c, i−c, j−c) where c is the
    /// content contribution, so exceedance is the shifted hypergeometric
    /// tail.
    ///
    /// Rows lighter than the content contribution clear λ whenever λ < c.
    pub fn matched_exceed_prob(&self, lambda: u32) -> f64 {
        let c = self.content_indices().round() as u64;
        let n = self.n_bits as u64;
        let w = self.row_weight as u64;
        if w <= c {
            // The row is essentially all content.
            return if u64::from(lambda) < w { 1.0 } else { 0.0 };
        }
        let rem_n = n - c;
        let rem_w = w - c;
        let shift = i64::from(lambda) - c as i64;
        hypergeom_sf(shift, rem_n, rem_w, rem_w)
    }

    /// The pattern edge probability p₂: two groups that both saw the
    /// content get an edge if an aligned offset pair exists *and* the
    /// matched rows clear λ, or if background overlap clears λ anyway:
    ///
    /// `p₂ ≈ P[match]·q(λ) + (1 − P[match])·p₁ₙᵤₗₗ`
    ///
    /// where `q` is [`Self::matched_exceed_prob`] and the null term uses
    /// the per-pair level `p_star` over k² pairs.
    pub fn pattern_edge_prob(&self, lambda: u32, p_star: f64) -> f64 {
        let pm = offset_match_prob(self.k, self.modulus);
        let q = self.matched_exceed_prob(lambda);
        let null_edge = 1.0 - (1.0 - p_star).powi((self.k * self.k) as i32);
        pm * q + (1.0 - pm) * null_edge
    }
}

/// Convenience wrapper: p₂ for the paper's configuration with `g` content
/// packets, given the λ the analysis would apply at typical weights and
/// the per-pair null level p\*.
pub fn pattern_edge_prob(g: usize, lambda: u32, p_star: f64) -> f64 {
    MatchModel::paper_default(g).pattern_edge_prob(lambda, p_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::{p_star_for_edge_prob, LambdaTable};

    #[test]
    fn match_prob_paper_anchor() {
        // k = 10, modulus 536: 1 − e^(−100/536) ≈ 0.1703.
        let p = offset_match_prob(10, 536);
        assert!((p - 0.1703).abs() < 1e-3, "match prob {p}");
    }

    #[test]
    fn match_prob_scales_quadratically() {
        // Doubling k roughly quadruples the exponent.
        let p10 = offset_match_prob(10, 536);
        let p20 = offset_match_prob(20, 536);
        assert!(p20 > 3.0 * p10 && p20 < 4.0 * p10);
    }

    #[test]
    fn content_indices_account_for_collisions() {
        let m = MatchModel::paper_default(100);
        let c = m.content_indices();
        assert!((95.0..100.0).contains(&c), "c = {c}, expected ≈95.4");
    }

    #[test]
    fn matched_pairs_usually_clear_detection_lambda() {
        // At the detection-graph level (p1' = 0.8e-4 over 100 pairs) a
        // 100-packet match should clear λ with substantial probability —
        // this is the "signal" of Table I.
        let p_star = p_star_for_edge_prob(0.8e-4, 100);
        let table = LambdaTable::new(1024, p_star);
        let m = MatchModel::paper_default(100);
        let w = m.row_weight as u32;
        let lam = table.lambda(w, w);
        let q = m.matched_exceed_prob(lam);
        // At the typical weight 446 the matched mean (95 + 133 ≈ 228) sits
        // ~1σ below λ ≈ 235, so q ≈ 0.15; times the 17% offset-match
        // probability this gives p2 ≈ 0.027 — dense enough that the
        // paper's n1 ≈ 125 pattern carries an internal mean degree > 3,
        // which is what lets FindCore recover half of it (Table I).
        assert!(
            (0.05..0.35).contains(&q),
            "matched exceedance {q} out of band at λ = {lam}"
        );
    }

    #[test]
    fn stronger_content_raises_exceedance() {
        let p_star = p_star_for_edge_prob(0.65e-5, 100);
        let table = LambdaTable::new(1024, p_star);
        let lam = table.lambda(512, 512);
        let q100 = MatchModel::paper_default(100).matched_exceed_prob(lam);
        let q120 = MatchModel::paper_default(120).matched_exceed_prob(lam);
        let q150 = MatchModel::paper_default(150).matched_exceed_prob(lam);
        assert!(q100 < q120 && q120 < q150, "{q100} {q120} {q150}");
    }

    #[test]
    fn pattern_edge_prob_dominates_null() {
        let p1 = 0.65e-5;
        let p_star = p_star_for_edge_prob(p1, 100);
        let table = LambdaTable::new(1024, p_star);
        let w = MatchModel::paper_default(100).row_weight as u32;
        let lam = table.lambda(w, w);
        let p2 = pattern_edge_prob(100, lam, p_star);
        assert!(
            p2 > 100.0 * p1,
            "p2 = {p2} must dwarf the background p1 = {p1}"
        );
        assert!(p2 < offset_match_prob(10, 536) + 1e-6);
    }

    #[test]
    fn all_content_rows() {
        // Content bigger than the row weight: matched rows are identical
        // in their content part; exceedance is 1 below the weight.
        let m = MatchModel {
            k: 10,
            modulus: 536,
            n_bits: 1024,
            content_packets: 600,
            row_weight: 400,
        };
        assert_eq!(m.matched_exceed_prob(399), 1.0);
        assert_eq!(m.matched_exceed_prob(400), 0.0);
    }
}
