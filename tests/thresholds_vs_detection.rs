//! Cross-crate consistency: the analytic thresholds (dcs-aligned /
//! dcs-unaligned) must predict what the Monte-Carlo detectors (dcs-sim)
//! actually do.

use dcs_aligned::thresholds::{detectable_min_b, non_natural_min_b, DetectableParams};
use dcs_sim::aligned::detection_ratio;
use dcs_sim::unaligned::{er_false_negative, largest_component_samples, p2_for};
use dcs_unaligned::thresholds::cluster_threshold;

/// Shared small-paper-scale parameters for the aligned checks.
const M: usize = 500;
const N: usize = 1_000_000;
const N_PRIME: usize = 1_000;

fn params() -> DetectableParams {
    DetectableParams {
        m: M as u64,
        n: N as u64,
        n_prime: N_PRIME as u64,
        epsilon: dcs_aligned::EPSILON,
    }
}

fn search_cfg() -> dcs_aligned::SearchConfig {
    dcs_aligned::SearchConfig {
        hopefuls: 300,
        max_iterations: 30,
        n_prime: 0,
        gamma: 2,
        termination: Default::default(),
    }
}

#[test]
fn aligned_detection_matches_detectable_threshold() {
    let p = params();
    let a = 60u64;
    let b_star = detectable_min_b(p, a, 0.9, 5_000).expect("threshold exists");
    // Comfortably above the threshold: detection should be near-certain.
    let above = detection_ratio(
        1,
        M,
        N,
        a as usize,
        (b_star as usize) * 2,
        N_PRIME,
        &search_cfg(),
        8,
        1,
    );
    assert!(
        above >= 0.75,
        "ratio {above} at 2x the detectable threshold (b* = {b_star})"
    );
}

#[test]
fn aligned_detection_fails_below_non_natural() {
    // A pattern below even the *non-natural* bound must not be reported
    // (the verdict gate rejects it regardless of what the search finds).
    let p = params();
    let a = 25u64;
    let nn = non_natural_min_b(p.m, p.n, a, p.epsilon, 5_000).expect("bound exists");
    let b = (nn / 2).max(1) as usize;
    let ratio = detection_ratio(2, M, N, a as usize, b, N_PRIME, &search_cfg(), 8, 1);
    assert!(
        ratio <= 0.25,
        "sub-non-natural pattern ({a}x{b}) reported with ratio {ratio}"
    );
}

#[test]
fn unaligned_er_matches_cluster_bound() {
    // The eq.(2)/(3) bound says how many pattern vertices make a cluster
    // statistically meaningful; the ER test should separate cleanly a
    // factor above it and fail a factor below it.
    let n = 20_000usize;
    let p1 = 0.65 / n as f64;
    let p2 = p2_for(100, p1);
    let bound = cluster_threshold(n as u64, p1, p2, 1e-10, 0.95, 2_000)
        .expect("cluster bound exists")
        .m as usize;

    let threshold = 80; // component-size alarm for this n
    let strong = largest_component_samples(3, n, p1, bound * 3, p2, 10);
    let fn_strong = er_false_negative(&strong, threshold);
    assert!(
        fn_strong <= 0.3,
        "FN {fn_strong} at 3x the cluster bound (m = {bound})"
    );

    let weak = largest_component_samples(4, n, p1, (bound / 4).max(2), p2, 10);
    let fn_weak = er_false_negative(&weak, threshold);
    assert!(
        fn_weak >= 0.7,
        "FN {fn_weak} at a quarter of the cluster bound"
    );
}

#[test]
fn detectable_above_non_natural_everywhere() {
    let p = params();
    for a in [30u64, 60, 90, 150] {
        let (Some(nn), Some(det)) = (
            non_natural_min_b(p.m, p.n, a, p.epsilon, 5_000),
            detectable_min_b(p, a, 0.95, 5_000),
        ) else {
            continue;
        };
        assert!(det >= nn, "a={a}: detectable {det} < non-natural {nn}");
    }
}

/// Ablation 1 through the deployed collector: two routers' offset sets
/// A and B match a uniform prefix shift d ∈ ℤ₅₃₆ when d ≡ a − b for some
/// a ∈ A, b ∈ B, so a pair's match probability is its count of distinct
/// residues (a − b) mod 536 over 536. Over 2,048 seeded router-seed
/// pairs of `UnalignedCollector`'s primary offsets (k = 10), the total
/// count must lie inside the two-sided 10⁻⁶ quantiles of
/// Bin(536 · pairs, p) at the paper's p = 1 − e^(−k²/536) ≈ 0.170
/// (`offset_match_prob`). The collector draws offsets in `0..485`, so a
/// pair's residues are not uniform on ℤ₅₃₆, and the test measures what
/// that costs. The binomial treats a pair's 536 shifts as independent
/// trials; a pair's count spreads less than that (the test checks it),
/// so the binomial's quantiles are the looser bound.
#[test]
fn offset_match_probability_holds_through_the_collector() {
    use dcs_collect::unaligned::{UnalignedCollector, UnalignedConfig, PAYLOAD_MODULUS};
    use dcs_stats::binomial::binomial_quantile;
    use dcs_unaligned::matchmodel::offset_match_prob;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    const PAIRS: u64 = 2_048;
    let offsets = |router_seed: u64| {
        let cfg = UnalignedConfig {
            groups: 1,
            router_seed,
            ..UnalignedConfig::default()
        };
        UnalignedCollector::new(cfg).offsets().0.to_vec()
    };
    let mut r = StdRng::seed_from_u64(0x0FF5_E75A);
    let counts: Vec<u64> = (0..PAIRS)
        .map(|_| {
            let (a, b) = (offsets(r.gen()), offsets(r.gen()));
            assert_eq!((a.len(), b.len()), (10, 10), "k = 10 offsets a router");
            let mut hit = [false; PAYLOAD_MODULUS];
            for &x in &a {
                for &y in &b {
                    hit[(x + PAYLOAD_MODULUS - y) % PAYLOAD_MODULUS] = true;
                }
            }
            hit.iter().filter(|&&h| h).count() as u64
        })
        .collect();

    let p = offset_match_prob(10, PAYLOAD_MODULUS);
    assert!(
        (p - 0.170).abs() < 5e-4,
        "the paper's 1 − e^(−100/536) is {p}"
    );
    let trials = PAYLOAD_MODULUS as u64 * PAIRS;
    let total: u64 = counts.iter().sum();
    let (lo, hi) = (
        binomial_quantile(1e-6, trials, p),
        binomial_quantile(1.0 - 1e-6, trials, p),
    );
    let measured = total as f64 / trials as f64;
    eprintln!(
        "offset match: {measured:.5} measured, {p:.5} modelled, bound [{lo}, {hi}] of {trials}"
    );
    assert!(
        (lo..=hi).contains(&total),
        "{total} matching shifts of {trials} ({measured:.5}) outside [{lo}, {hi}] at p = {p:.5}"
    );

    let mean = total as f64 / PAIRS as f64;
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / (PAIRS - 1) as f64;
    let binomial_var = PAYLOAD_MODULUS as f64 * p * (1.0 - p);
    assert!(
        var <= binomial_var,
        "a pair's residue count spreads wider ({var:.1}) than independent shifts ({binomial_var:.1})"
    );
}

/// The two Section V baseline claims `repro_baselines` prints, on its
/// seeded epoch (seed 0xBA5E; 24 routers of 800 × 536 B background, the
/// first 18 also carrying one 30-packet object): a single-vantage
/// prevalence detector is blind to content spread one instance per link
/// (no link alarms, the highest local prevalence is 1), while raw
/// aggregation names every infected router.
#[test]
fn local_prevalence_is_blind_where_raw_aggregation_sees_every_router() {
    use dcs_sim::baseline::{LocalPrevalenceDetector, RawAggregationDetector};
    use dcs_traffic::{gen, BackgroundConfig, ContentObject, Planting, SizeMix};
    use rand::{rngs::StdRng, SeedableRng};
    const ROUTERS: usize = 24;
    const INFECTED: usize = 18;
    const CONTENT_PACKETS: usize = 30;
    let mut rng = StdRng::seed_from_u64(0xBA5E);
    let object = ContentObject::random_with_packets(&mut rng, CONTENT_PACKETS, 536);
    let plant = Planting::aligned(object, 536);
    let bg = BackgroundConfig {
        packets: 800,
        flows: 200,
        zipf_exponent: 1.0,
        size_mix: SizeMix::constant(536),
    };
    let traffic: Vec<_> = (0..ROUTERS)
        .map(|r| {
            let mut t = gen::generate_epoch(&mut rng, &bg);
            if r < INFECTED {
                plant.plant_into(&mut rng, &mut t);
            }
            t
        })
        .collect();

    let mut raw = RawAggregationDetector::new(7);
    for (r, t) in (0..).zip(&traffic) {
        raw.ingest(r, t);
        let mut local = LocalPrevalenceDetector::new(7);
        t.iter().for_each(|p| local.observe(p));
        assert_eq!(local.max_prevalence(), 1, "router {r}");
        assert!(!local.alarm(2), "router {r}");
    }
    let found = raw.detect(INFECTED / 2, CONTENT_PACKETS / 2);
    let infected: Vec<u32> = (0..INFECTED as u32).collect();
    assert_eq!(found.first().map(|c| &c.routers), Some(&infected));
}

/// Section III-A's sizing claim on `repro_sizing`'s quick epoch (seed
/// 0x512E, the OC-48 second scaled down 512-fold to 4,687 packets on an
/// 8,192-bit bitmap): the aligned digest is at least 1,000 times smaller
/// than the traffic it summarises.
#[test]
fn aligned_digest_is_a_thousandth_of_the_traffic() {
    use dcs_collect::{AlignedCollector, AlignedConfig};
    use dcs_traffic::{gen, BackgroundConfig, SizeMix};
    use rand::{rngs::StdRng, SeedableRng};
    const DIV: usize = 512;
    let packets = 2_400_000 / DIV;
    let epoch = gen::generate_epoch(
        &mut StdRng::seed_from_u64(0x512E),
        &BackgroundConfig {
            packets,
            flows: packets / 10,
            zipf_exponent: 1.0,
            size_mix: SizeMix::internet_default(),
        },
    );
    let mut aligned = AlignedCollector::new(AlignedConfig::small(4 * 1024 * 1024 / DIV, 1));
    epoch.iter().for_each(|p| {
        aligned.observe(p);
    });
    let ratio = aligned.finish_epoch().compression_ratio();
    assert!(ratio >= 1_000.0, "the digest is only {ratio:.0}x smaller");
}
