//! The k-member greedy clustering algorithm (Byun et al., DASFAA 2007).
//!
//! The paper's DIVA uses k-member for its `Anonymize` step and as a
//! comparative baseline. The algorithm builds clusters one at a time:
//! it seeds each cluster with the record *furthest* from the previous
//! seed, then greedily grows the cluster to `k` members, at each step
//! adding the record whose inclusion minimizes the increase in
//! information loss. Records left over (fewer than `k`) are absorbed
//! into the clusters whose loss they increase least.

use diva_relation::{Relation, RowId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::common::{Anonymizer, ClusterState, QiMatrix};

/// k-member configuration.
///
/// ```
/// use diva_anonymize::{Anonymizer, KMember};
/// use diva_relation::fixtures::paper_table1;
///
/// let r = paper_table1();
/// let out = KMember::exact(1).anonymize(&r, 3);
/// assert!(diva_relation::is_k_anonymous(&out.relation, 3));
/// ```
///
/// Exact k-member is `O(n²)`; at the paper's largest instance
/// (|R| = 300k) that is intractable even in native code within a
/// benchmarking session, so `candidate_cap` bounds the number of
/// records examined by each furthest-point / best-fit scan. Scans over
/// at most `candidate_cap` records drawn from a seeded random
/// permutation preserve the greedy structure (documented substitution,
/// `DESIGN.md` §2.5); set it to `None` for the exact algorithm.
#[derive(Debug, Clone)]
pub struct KMember {
    /// RNG seed for the initial record choice and candidate sampling.
    pub seed: u64,
    /// Upper bound on candidates per greedy scan (`None` = exact).
    pub candidate_cap: Option<usize>,
}

impl Default for KMember {
    fn default() -> Self {
        Self { seed: 0x5eed, candidate_cap: Some(2048) }
    }
}

impl KMember {
    /// Exact k-member (no candidate sampling).
    pub fn exact(seed: u64) -> Self {
        Self { seed, candidate_cap: None }
    }
}

/// The not-yet-clustered local indices, in a seeded shuffled order,
/// with O(1) removal.
///
/// `codes` is the scan buffer: the QI codes of every pool slot, `n_qi`
/// per slot, in the same order as `items`. A greedy scan over the
/// first `candidate_cap` slots therefore reads one contiguous block
/// instead of gathering rows scattered over the [`QiMatrix`].
struct Pool {
    items: Vec<usize>,
    /// Position of each local index inside `items` (usize::MAX = gone).
    pos: Vec<usize>,
    codes: Vec<u32>,
    n_qi: usize,
}

impl Pool {
    fn new(m: &QiMatrix, rng: &mut StdRng) -> Self {
        let mut items: Vec<usize> = (0..m.len()).collect();
        items.shuffle(rng);
        let mut pos = vec![usize::MAX; m.len()];
        for (p, &i) in items.iter().enumerate() {
            pos[i] = p;
        }
        let codes = items.iter().flat_map(|&i| m.row(i)).copied().collect();
        Self { items, pos, codes, n_qi: m.n_qi() }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    /// Removes local index `i` by `swap_remove`, moving the last slot
    /// (and its codes) into the hole.
    fn remove(&mut self, i: usize) {
        let p = self.pos[i];
        debug_assert!(p != usize::MAX);
        self.items.swap_remove(p);
        let q = self.n_qi;
        let last = self.items.len();
        if let Some(&moved) = self.items.get(p) {
            self.pos[moved] = p;
            self.codes.copy_within(last * q..(last + 1) * q, p * q);
        }
        self.codes.truncate(last * q);
        self.pos[i] = usize::MAX;
    }

    /// Number of slots a scan examines: the whole pool, or its first
    /// `cap` slots. Items are in shuffled order, and `swap_remove`
    /// keeps the order unbiased, so a prefix is a uniform sample.
    fn scan_len(&self, cap: Option<usize>) -> usize {
        cap.map_or(self.len(), |c| c.min(self.len()))
    }

    /// The QI codes of pool slot `p`.
    fn slot(&self, p: usize) -> &[u32] {
        &self.codes[p * self.n_qi..(p + 1) * self.n_qi]
    }

    /// Seed scan: the local index, among the first
    /// [`Pool::scan_len`] slots, that differs from `from` on the most
    /// QI attributes. Ties go to the *last* such slot (the contract of
    /// `max_by_key`), so the scan runs backwards and a slot differing
    /// everywhere ends it. `None` for an empty scan.
    fn furthest(&self, cap: Option<usize>, from: &[u32]) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for p in (0..self.scan_len(cap)).rev() {
            let d = self.slot(p).iter().zip(from).filter(|(a, b)| a != b).count();
            if best.is_none_or(|(_, bd)| d > bd) {
                best = Some((p, d));
                if d == self.n_qi {
                    break;
                }
            }
        }
        best.map(|(p, _)| self.items[p])
    }

    /// Growth scan: the local index, among the first
    /// [`Pool::scan_len`] slots, that breaks the fewest of the
    /// cluster's still-uniform `(column, code)` pairs. A cluster's
    /// loss increase `L + (|C|+1)·new` is strictly increasing in the
    /// newly-lost count `new`, so this is the minimal-increase record. Ties go to the *first* such slot
    /// (the contract of `min_by_key`), so a slot breaking nothing ends
    /// the scan, and a slot stops being counted once it cannot win.
    /// `None` for an empty scan.
    fn closest(&self, cap: Option<usize>, uniform: &[(usize, u32)]) -> Option<usize> {
        let (mut best_p, mut best_new) = (0, usize::MAX);
        for p in 0..self.scan_len(cap) {
            let row = self.slot(p);
            let mut new = 0;
            for &(col, code) in uniform {
                if row[col] != code {
                    new += 1;
                    if new >= best_new {
                        break;
                    }
                }
            }
            if new < best_new {
                (best_p, best_new) = (p, new);
                if new == 0 {
                    break;
                }
            }
        }
        (best_new != usize::MAX).then(|| self.items[best_p])
    }
}

impl Anonymizer for KMember {
    fn name(&self) -> &'static str {
        "k-member"
    }

    fn cluster(&self, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>> {
        // The probe never fires, so the interruptible path cannot
        // return `None`; the fallback keeps this panic-free.
        self.cluster_interruptible(rel, rows, k, &|| false).unwrap_or_default()
    }

    fn cluster_interruptible(
        &self,
        rel: &Relation,
        rows: &[RowId],
        k: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<Vec<RowId>>> {
        assert!(k > 0, "k must be positive");
        if rows.is_empty() {
            return Some(Vec::new());
        }
        let m = QiMatrix::new(rel, rows);
        let n = m.len();
        if n < k {
            return Some(m.to_relation_clusters(&[(0..n).collect()]));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pool = Pool::new(&m, &mut rng);
        let mut clusters: Vec<ClusterState> = Vec::with_capacity(n / k + 1);

        let mut prev_seed = pool.items[rng.gen_range(0..pool.len())];
        while pool.len() >= k {
            // Growing one cluster costs O(candidate_cap × k) distance
            // scans; polling the probe here bounds the stop latency to
            // a single cluster's growth.
            if stop() {
                return None;
            }
            // Seed: record furthest from the previous seed.
            let Some(seed) = pool.furthest(self.candidate_cap, m.row(prev_seed)) else {
                break;
            };
            prev_seed = seed;
            pool.remove(seed);
            let mut c = ClusterState::singleton(&m, seed);
            let mut uniform: Vec<(usize, u32)> = m.row(seed).iter().copied().enumerate().collect();
            while c.len() < k {
                // Greedy: record with minimal information-loss increase.
                let Some(best) = pool.closest(self.candidate_cap, &uniform) else {
                    break;
                };
                pool.remove(best);
                c.push(&m, best);
                let row = m.row(best);
                uniform.retain(|&(col, code)| row[col] == code);
            }
            clusters.push(c);
        }
        // Absorb the leftovers into their cheapest clusters.
        for &i in &pool.items {
            let Some(best) = (0..clusters.len()).min_by_key(|&ci| clusters[ci].il_increase(&m, i))
            else {
                continue;
            };
            clusters[best].push(&m, i);
        }
        let local: Vec<Vec<usize>> = clusters.into_iter().map(ClusterState::into_members).collect();
        Some(m.to_relation_clusters(&local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_valid_clustering;
    use diva_relation::fixtures::paper_table1;
    use diva_relation::{is_k_anonymous, suppress::suppress_clustering};
    use diva_relation::{Attribute, RelationBuilder, Schema};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    /// The k-member scans as written before the scan buffer: every
    /// candidate scored with `QiMatrix::distance` / `il_increase` and
    /// picked by `max_by_key` (last maximum) / `min_by_key` (first
    /// minimum). The differential tests below hold the production
    /// kernel to this oracle.
    fn oracle(km: &KMember, rel: &Relation, rows: &[RowId], k: usize) -> Vec<Vec<RowId>> {
        assert!(k > 0, "k must be positive");
        if rows.is_empty() {
            return Vec::new();
        }
        let m = QiMatrix::new(rel, rows);
        let n = m.len();
        if n < k {
            return m.to_relation_clusters(&[(0..n).collect()]);
        }
        let mut rng = StdRng::seed_from_u64(km.seed);
        let mut pool = Pool::new(&m, &mut rng);
        let mut clusters: Vec<ClusterState> = Vec::with_capacity(n / k + 1);
        let mut prev_seed = pool.items[rng.gen_range(0..pool.len())];
        while pool.len() >= k {
            let Some(&seed) = pool.items[..pool.scan_len(km.candidate_cap)]
                .iter()
                .max_by_key(|&&i| m.distance(prev_seed, i))
            else {
                break;
            };
            prev_seed = seed;
            pool.remove(seed);
            let mut c = ClusterState::singleton(&m, seed);
            while c.len() < k {
                let Some(&best) = pool.items[..pool.scan_len(km.candidate_cap)]
                    .iter()
                    .min_by_key(|&&i| c.il_increase(&m, i))
                else {
                    break;
                };
                pool.remove(best);
                c.push(&m, best);
            }
            clusters.push(c);
        }
        let leftovers: Vec<usize> = pool.items.clone();
        for i in leftovers {
            let Some(best) = (0..clusters.len()).min_by_key(|&ci| clusters[ci].il_increase(&m, i))
            else {
                continue;
            };
            clusters[best].push(&m, i);
        }
        let local: Vec<Vec<usize>> = clusters.into_iter().map(ClusterState::into_members).collect();
        m.to_relation_clusters(&local)
    }

    /// A relation of `n_qi` QI columns drawing from `card` values each
    /// (plus one sensitive column), filled from `seed`.
    fn low_cardinality(n_rows: usize, n_qi: usize, card: u32, seed: u64) -> Relation {
        let mut attrs: Vec<Attribute> =
            (0..n_qi).map(|i| Attribute::quasi(format!("Q{i}"))).collect();
        attrs.push(Attribute::sensitive("S"));
        let mut b = RelationBuilder::new(Arc::new(Schema::new(attrs)));
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n_rows {
            let vals: Vec<String> =
                (0..=n_qi).map(|_| format!("v{}", rng.gen_range(0..card))).collect();
            b.push_row(&vals);
        }
        b.finish()
    }

    /// The differential tables: medical (5 QI), census (wide QI), and
    /// a 3-QI binary table whose 8 profiles make most scans tie.
    fn tables() -> &'static [Relation; 3] {
        static TABLES: OnceLock<[Relation; 3]> = OnceLock::new();
        TABLES.get_or_init(|| {
            [
                diva_datagen::medical(600, 3),
                diva_datagen::census(300, 4),
                low_cardinality(400, 3, 2, 5),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The scan kernel picks exactly the oracle's rows: same seeds,
        /// same growth order, same leftover absorption.
        #[test]
        fn kernel_matches_the_reference_scan(
            table in 0usize..3,
            subset_seed in any::<u64>(),
            keep in 1u32..=4,
            k in 1usize..=10,
            cap_idx in 0usize..4,
            seed in any::<u64>(),
        ) {
            let rel = &tables()[table];
            // A random subset (keep/4 of the rows) in a random order.
            let mut rng = StdRng::seed_from_u64(subset_seed);
            let mut rows: Vec<RowId> =
                (0..rel.n_rows()).filter(|_| rng.gen_range(0..4u32) < keep).collect();
            rows.shuffle(&mut rng);
            let candidate_cap = [Some(1), Some(64), Some(2048), None][cap_idx];
            let km = KMember { seed, candidate_cap };
            prop_assert_eq!(
                km.cluster(rel, &rows, k),
                oracle(&km, rel, &rows, k),
                "table {}, {} rows, k {}, cap {:?}", table, rows.len(), k, candidate_cap
            );
        }
    }

    #[test]
    fn kernel_matches_the_reference_scan_without_qi_columns() {
        // Every distance is 0: the seed scan must still pick the last
        // slot and the growth scan the first.
        let r = low_cardinality(50, 0, 1, 1);
        let rows: Vec<RowId> = (0..r.n_rows()).collect();
        for cap in [Some(1), Some(7), None] {
            let km = KMember { seed: 9, candidate_cap: cap };
            assert_eq!(km.cluster(&r, &rows, 4), oracle(&km, &r, &rows, 4), "cap {cap:?}");
        }
    }

    #[test]
    fn clusters_partition_and_respect_k() {
        let r = paper_table1();
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        for k in [2, 3, 5] {
            let clusters = KMember::exact(1).cluster(&r, &rows, k);
            assert_valid_clustering(&clusters, &rows, k);
        }
    }

    #[test]
    fn output_is_k_anonymous() {
        let r = diva_datagen::medical(500, 7);
        for k in [3, 10] {
            let s = KMember::default().anonymize(&r, k);
            assert!(is_k_anonymous(&s.relation, k), "k = {k}");
            assert_eq!(s.relation.n_rows(), 500);
        }
    }

    #[test]
    fn fewer_rows_than_k_yields_single_cluster() {
        let r = paper_table1();
        let clusters = KMember::exact(1).cluster(&r, &[0, 1, 2], 5);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn empty_rows_yield_empty_clustering() {
        let r = paper_table1();
        assert!(KMember::default().cluster(&r, &[], 3).is_empty());
    }

    #[test]
    fn subset_clustering_only_uses_given_rows() {
        let r = paper_table1();
        let rows = vec![2, 4, 6, 8];
        let clusters = KMember::exact(3).cluster(&r, &rows, 2);
        assert_valid_clustering(&clusters, &rows, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let r = diva_datagen::medical(300, 9);
        let rows: Vec<usize> = (0..r.n_rows()).collect();
        let a = KMember { seed: 5, candidate_cap: Some(64) }.cluster(&r, &rows, 5);
        let b = KMember { seed: 5, candidate_cap: Some(64) }.cluster(&r, &rows, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn greedy_beats_random_grouping() {
        // k-member should suppress fewer cells than an arbitrary
        // contiguous chunking of the rows.
        let r = diva_datagen::medical(400, 11);
        let k = 5;
        let s = KMember::default().anonymize(&r, k);
        let chunked: Vec<Vec<usize>> =
            (0..r.n_rows()).collect::<Vec<_>>().chunks(k).map(<[usize]>::to_vec).collect();
        let chunk_out = suppress_clustering(&r, &chunked);
        assert!(
            s.relation.star_count() < chunk_out.relation.star_count(),
            "k-member {} ★ vs chunked {} ★",
            s.relation.star_count(),
            chunk_out.relation.star_count()
        );
    }

    #[test]
    fn capped_is_close_to_exact_on_small_input() {
        let r = diva_datagen::medical(200, 13);
        let exact = KMember::exact(5).anonymize(&r, 4).relation.star_count();
        let capped =
            KMember { seed: 5, candidate_cap: Some(50) }.anonymize(&r, 4).relation.star_count();
        // The sampled variant may lose some quality but not collapse.
        assert!((capped as f64) < 1.6 * exact as f64, "exact {exact}, capped {capped}");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let r = paper_table1();
        KMember::default().cluster(&r, &[0, 1], 0);
    }
}
