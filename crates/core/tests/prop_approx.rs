//! Property tests pinning the approximate-match kernels to naive
//! oracles: packed masked-Hamming distance ≡ per-digit
//! [`TernaryWord::mismatch_count`] (wildcards never mismatch, including
//! all-wildcard rows and zero-care corpora), threshold search ≡ a
//! `distance ≤ t` filter over the oracle, top-k ≡ the sorted prefix of
//! [`BehavioralTcam::nearest`] with its `(distance, row)` tie-break,
//! the block-scan Hamming kernels ≡ [`approx::row_distance`] across
//! 64- and 512-row block edges, and the sliced range search ≡ a
//! per-cell window comparison ≡ the scalar digit-case check.

use ferrotcam::approx::{self, ApproxHit};
use ferrotcam::{BehavioralTcam, BitSlices, PackedQuery, PackedRows, Ternary, TernaryWord};
use proptest::prelude::*;

fn ternary_digit() -> impl Strategy<Value = Ternary> {
    prop_oneof![
        3 => Just(Ternary::Zero),
        3 => Just(Ternary::One),
        2 => Just(Ternary::X),
    ]
}

/// Widths inside one word, at the boundary, and spanning words.
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(7),
        Just(63),
        Just(64),
        Just(65),
        Just(130)
    ]
}

fn corpus_and_query() -> impl Strategy<Value = (usize, Vec<Vec<Ternary>>, Vec<bool>)> {
    width().prop_flat_map(|w| {
        (
            Just(w),
            proptest::collection::vec(proptest::collection::vec(ternary_digit(), w), 0..40),
            proptest::collection::vec(any::<bool>(), w),
        )
    })
}

/// Range widths: zero, one cell, just under, at and over the word
/// boundary, and three words.
fn range_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(2),
        Just(62),
        Just(64),
        Just(66),
        Just(130)
    ]
}

/// Row counts around the 512-row plane block: small tails, one block
/// short of, at and past the boundary, and a full block plus a tail.
fn block_rows() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..40, Just(511), Just(512), 513usize..1100]
}

/// `n` seeded rows of `width` digits, every seventh one all `X`. The
/// rest follow `base` (random bits where `base` is empty), each digit
/// flipped with `flip_pct`% and wildcarded with `x_pct`% probability.
fn seeded_rows(
    width: usize,
    n: usize,
    x_pct: u64,
    flip_pct: u64,
    base: &[bool],
    seed: u64,
) -> Vec<Vec<Ternary>> {
    let mut state = seed ^ 0xA5A5_5A5A;
    (0..n)
        .map(|r| {
            if r % 7 == 3 {
                return vec![Ternary::X; width];
            }
            (0..width)
                .map(|i| {
                    let roll = rand::split_mix64(&mut state);
                    let bit = base.get(i).map_or((roll >> 40) & 1 == 1, |&b| b);
                    let bit = bit ^ (roll % 100 < flip_pct);
                    if (roll >> 8) % 100 < x_pct {
                        Ternary::X
                    } else if bit {
                        Ternary::One
                    } else {
                        Ternary::Zero
                    }
                })
                .collect()
        })
        .collect()
}

/// Range probes: a random query, a stored row with its wildcards filled
/// at random (in-window by construction), and near misses of that hit:
/// its last digit flipped (the low digit of the last cell, at the word
/// or tail boundary), a random low digit flipped (the step-1 sweep
/// cannot reject those) and a random digit flipped.
fn probe_queries(reference: &BehavioralTcam, width: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut state = seed ^ 0x5EED;
    let mut out = vec![(0..width)
        .map(|_| rand::split_mix64(&mut state) & 1 == 1)
        .collect::<Vec<bool>>()];
    if reference.is_empty() || width == 0 {
        return out;
    }
    let r = (rand::split_mix64(&mut state) % reference.len() as u64) as usize;
    let hit: Vec<bool> = reference.rows()[r]
        .digits()
        .iter()
        .map(|&d| match d {
            Ternary::One => true,
            Ternary::Zero => false,
            Ternary::X => rand::split_mix64(&mut state) & 1 == 1,
        })
        .collect();
    let low = 2 * (rand::split_mix64(&mut state) % (width as u64 / 2).max(1)) as usize + 1;
    let any = (rand::split_mix64(&mut state) % width as u64) as usize;
    for flip in [width - 1, low.min(width - 1), any] {
        let mut near = hit.clone();
        near[flip] = !near[flip];
        out.push(near);
    }
    out.push(hit);
    out
}

fn build(width: usize, rows: &[Vec<Ternary>]) -> (BehavioralTcam, PackedRows) {
    let mut reference = BehavioralTcam::new(width);
    for r in rows {
        reference.store(TernaryWord::new(r.clone()));
    }
    let packed = PackedRows::from_tcam(&reference);
    (reference, packed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn packed_distance_equals_naive_mismatch_count(
        (width, rows, query) in corpus_and_query(),
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        for (r, row) in reference.rows().iter().enumerate() {
            prop_assert_eq!(
                approx::row_distance(&packed, r, &q) as usize,
                row.mismatch_count(&query),
                "row {}", r
            );
        }
    }

    #[test]
    fn threshold_search_is_distance_filter(
        (width, rows, query) in corpus_and_query(),
        t in 0u32..80,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let hits = approx::threshold_search(&packed, &q, t);
        let want: Vec<ApproxHit> = reference
            .rows()
            .iter()
            .enumerate()
            .filter_map(|(r, row)| {
                let d = row.mismatch_count(&query) as u32;
                (d <= t).then_some(ApproxHit { row: r, distance: d })
            })
            .collect();
        prop_assert_eq!(hits, want);
    }

    #[test]
    fn top_k_equals_nearest_prefix(
        (width, rows, query) in corpus_and_query(),
        k in 0usize..12,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let got: Vec<(usize, usize)> = approx::top_k(&packed, &q, k)
            .into_iter()
            .map(|h| (h.row, h.distance as usize))
            .collect();
        let want: Vec<(usize, usize)> =
            reference.nearest(&query).into_iter().take(k).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn top_k_chunked_equals_contiguous_top_k(
        (width, rows, query) in corpus_and_query(),
        k in 0usize..12,
        chunk in 1usize..7,
    ) {
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        // Split the corpus into `chunk`-row pieces, as the serving
        // layer's copy-on-write row blocks do, and check the shared
        // cross-chunk bound changes nothing about the answer — hits,
        // distances, and (distance, row) tie order alike.
        let all = reference.rows();
        let mut chunks: Vec<(usize, PackedRows)> = Vec::new();
        let mut base = 0usize;
        while base < all.len() {
            let end = (base + chunk).min(all.len());
            let mut t = BehavioralTcam::new(width);
            for w in &all[base..end] {
                t.store(w.clone());
            }
            chunks.push((base, PackedRows::from_tcam(&t)));
            base = end;
        }
        let got = approx::top_k_chunked(chunks.iter().map(|(b, p)| (*b, p)), &q, k);
        prop_assert_eq!(got, approx::top_k(&packed, &q, k));
    }

    #[test]
    fn sharded_top_k_merge_is_global(
        (width, rows, query) in corpus_and_query(),
        k in 1usize..8,
        shards in 1usize..5,
    ) {
        // Round-robin the rows over shards (the serve layer's row
        // interleave), take local top-k per shard, merge: must equal
        // the unsharded top-k after mapping local → global row ids.
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let mut locals: Vec<Vec<ApproxHit>> = Vec::new();
        for s in 0..shards {
            let mut shard = PackedRows::new(width);
            let globals: Vec<usize> =
                (0..reference.len()).filter(|r| r % shards == s).collect();
            for &g in &globals {
                shard.push(reference.row(g).expect("row exists"));
            }
            let local = approx::top_k(&shard, &q, k)
                .into_iter()
                .map(|h| ApproxHit { row: globals[h.row], distance: h.distance })
                .collect();
            locals.push(local);
        }
        prop_assert_eq!(approx::merge_top_k(&locals, k), approx::top_k(&packed, &q, k));
    }

    #[test]
    fn forced_tie_sharded_merge_matches_unsharded_top_k(
        width in prop_oneof![Just(8usize), Just(64)],
        pattern_picks in proptest::collection::vec(0usize..3, 4..48),
        k in 1usize..10,
        shards in prop_oneof![Just(2usize), Just(4)],
        seed in any::<u64>(),
    ) {
        // Corpus drawn from a 3-pattern alphabet, so by pigeonhole the
        // distance multiset always collides: the (distance, row)
        // tie-break must act on *global* slot ids after the shard
        // merge, or sharded top-k diverges from the single-table
        // oracle exactly on these ties.
        let mut state = seed;
        let query: Vec<bool> =
            (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let patterns: Vec<Vec<Ternary>> = (0..3).map(|p| {
            (0..width).map(|i| match (i + p) % 3 {
                0 => Ternary::X,
                1 => Ternary::One,
                _ => Ternary::Zero,
            }).collect()
        }).collect();
        let rows: Vec<Vec<Ternary>> =
            pattern_picks.iter().map(|&p| patterns[p].clone()).collect();
        let (reference, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        // The tie premise really holds: some two rows are equidistant.
        let dists: Vec<u32> =
            (0..packed.rows()).map(|r| approx::row_distance(&packed, r, &q)).collect();
        prop_assert!(
            dists.iter().any(|d| dists.iter().filter(|&x| x == d).count() > 1),
            "alphabet corpus must force a distance tie"
        );
        let mut locals: Vec<Vec<ApproxHit>> = Vec::new();
        for s in 0..shards {
            // The serve layer's row interleave: global = local·n + s.
            let mut shard = PackedRows::new(width);
            let globals: Vec<usize> =
                (0..reference.len()).filter(|r| r % shards == s).collect();
            for &g in &globals {
                shard.push(reference.row(g).expect("row exists"));
            }
            locals.push(approx::top_k(&shard, &q, k)
                .into_iter()
                .map(|h| ApproxHit { row: globals[h.row], distance: h.distance })
                .collect());
        }
        prop_assert_eq!(approx::merge_top_k(&locals, k), approx::top_k(&packed, &q, k));
    }

    #[test]
    fn range_search_equals_window_oracles(
        width in range_width(),
        n in block_rows(),
        x_pct in 0u64..70,
        seed in any::<u64>(),
    ) {
        let rows = seeded_rows(width, n, x_pct, 0, &[], seed);
        let (reference, packed) = build(width, &rows);
        let slices = BitSlices::build(packed.clone());
        for (i, query) in probe_queries(&reference, width, seed).iter().enumerate() {
            let q = PackedQuery::from_bits(query);
            let got = slices.range_search(&q);
            // The naive per-cell definition: every query level inside
            // the window its stored digit pair induces.
            let levels = approx::query_levels(&q);
            let naive: Vec<usize> = reference
                .rows()
                .iter()
                .enumerate()
                .filter(|(_, row)| {
                    approx::word_windows(row)
                        .iter()
                        .zip(&levels)
                        .all(|(&(lo, hi), &l)| lo <= l && l <= hi)
                })
                .map(|(r, _)| r)
                .collect();
            prop_assert_eq!(&got, &naive, "query {}", i);
            // The scalar digit-case check (the reference walk's oracle)
            // is a second, independent witness.
            let scalar: Vec<usize> = (0..packed.rows())
                .filter(|&r| approx::row_in_windows(&packed, r, &q))
                .collect();
            prop_assert_eq!(&got, &scalar, "query {}", i);
            // Range match is implied by ternary match: every exact
            // match is inside its own windows.
            for m in reference.search(query).matches {
                prop_assert!(got.binary_search(&m).is_ok(), "exact match {} must be in-window", m);
            }
        }
    }

    #[test]
    fn block_scans_equal_row_distance_at_block_edges(
        width in width(),
        chunk in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(512), Just(513)],
        n_chunks in 1usize..4,
        x_pct in 0u64..50,
        flip_pct in 0u64..30,
        seed in any::<u64>(),
    ) {
        // Rows are noisy copies of the query so distances sit near the
        // small thresholds served traffic uses, with ties.
        let mut state = seed;
        let query: Vec<bool> =
            (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let q = PackedQuery::from_bits(&query);
        let rows = seeded_rows(width, chunk * n_chunks, x_pct, flip_pct, &query, seed);
        let chunks: Vec<(usize, PackedRows)> = rows
            .chunks(chunk)
            .enumerate()
            .map(|(c, part)| (c * chunk, build(width, part).1))
            .collect();
        let mut all: Vec<ApproxHit> = Vec::new();
        for (base, p) in &chunks {
            all.extend((0..p.rows()).map(|r| ApproxHit {
                row: base + r,
                distance: approx::row_distance(p, r, &q),
            }));
        }
        let mid = (rand::split_mix64(&mut state) % (width as u64 + 1)) as u32;
        for t in [0, 1, 2, mid, width as u32, u32::MAX] {
            for (base, p) in &chunks {
                let want: Vec<ApproxHit> = all
                    .iter()
                    .filter(|h| h.row >= *base && h.row < base + p.rows() && h.distance <= t)
                    .map(|h| ApproxHit { row: h.row - base, distance: h.distance })
                    .collect();
                prop_assert_eq!(approx::threshold_search(p, &q, t), want, "t = {}", t);
            }
        }
        all.sort_unstable();
        let n = all.len();
        for k in [0, 1, 8, 64, n, n + 5] {
            let got = approx::top_k_chunked(chunks.iter().map(|(b, p)| (*b, p)), &q, k);
            prop_assert_eq!(&got[..], &all[..k.min(n)], "k = {}", k);
        }
    }

    #[test]
    fn all_wildcard_and_zero_care_rows(
        width in width(),
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        // All-X rows have distance 0 from every query, so they lead
        // every top-k and pass every threshold.
        let rows = vec![vec![Ternary::X; width]; n];
        let mut state = seed;
        let query: Vec<bool> =
            (0..width).map(|_| rand::split_mix64(&mut state) & 1 == 1).collect();
        let (_, packed) = build(width, &rows);
        let q = PackedQuery::from_bits(&query);
        let hits = approx::threshold_search(&packed, &q, 0);
        prop_assert_eq!(hits.len(), n);
        prop_assert!(hits.iter().all(|h| h.distance == 0));
        let top = approx::top_k(&packed, &q, n + 4);
        prop_assert_eq!(top.len(), n);
        prop_assert_eq!(top.iter().map(|h| h.row).collect::<Vec<_>>(),
            (0..n).collect::<Vec<_>>());
    }
}
