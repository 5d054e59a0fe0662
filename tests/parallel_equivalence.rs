//! Parallel kernels must compute the same numbers no matter how wide the pool is.
//!
//! Two properties, proptested over random shapes:
//!
//! 1. **Bit-identity across pool widths.** Running partitioned flash-decode (at a fixed
//!    partition size), paged prefill, and the dense matvec at 1, 2, and 8 threads yields
//!    bit-identical `f32` outputs: the shim's unit grid determines *where* work runs,
//!    never the order of any floating-point reduction. (The decode partition size is
//!    pinned because `paged_decode_attention`'s auto-tuning deliberately varies it with
//!    the pool width, which changes merge order — numerically fine, covered by the
//!    tolerance check below, but not bitwise stable.)
//! 2. **Agreement with the sequential reference.** At every width, the auto-tuned decode
//!    and the prefill kernel match `neo_kernels::reference::dense_attention` within
//!    float tolerance, and the parallel matvec is bit-identical to a hand-rolled serial
//!    dot-product loop (chunking never touches a row's reduction order).

use neo_kernels::decode::{paged_decode_attention, paged_decode_attention_with_partitions};
use neo_kernels::prefill::paged_prefill_attention;
use neo_kernels::reference::dense_attention;
use neo_kernels::AttentionConfig;
use neo_kvcache::{BlockTable, PagedStorage};
use neo_model::linear::Linear;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::{ThreadPool, ThreadPoolBuilder};

/// The widths every kernel is checked at (1 = inline fallback, 2 = minimal parallelism,
/// 8 = oversubscribed on small CI machines, maximal stealing).
const WIDTHS: [usize; 3] = [1, 2, 8];

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(threads).build().expect("shim pool build cannot fail")
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
    }
}

/// Paged KV fixture plus the contiguous copies the dense reference needs.
struct Fixture {
    storage: PagedStorage,
    tables: Vec<BlockTable>,
    dense_k: Vec<Vec<f32>>,
    dense_v: Vec<Vec<f32>>,
    queries: Vec<f32>,
}

fn build_fixture(seq_lens: &[usize], cfg: &AttentionConfig, seed: u64) -> Fixture {
    let block_size = 4;
    let total_blocks: usize = seq_lens.iter().map(|l| l.div_ceil(block_size)).sum::<usize>() + 1;
    let mut storage = PagedStorage::new(total_blocks, block_size, cfg.n_kv_heads, cfg.head_dim);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tables = Vec::new();
    let mut dense_k = Vec::new();
    let mut dense_v = Vec::new();
    let mut next_block = 0;
    for &len in seq_lens {
        let blocks_needed = len.div_ceil(block_size);
        let mut table = BlockTable::new(block_size);
        table.append(len, (next_block..next_block + blocks_needed).collect()).unwrap();
        next_block += blocks_needed;
        let mut k_seq = Vec::new();
        let mut v_seq = Vec::new();
        for i in 0..len {
            let k: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let (b, s) = table.locate(i).unwrap();
            storage.write_token(b, s, &k, &v).unwrap();
            k_seq.extend_from_slice(&k);
            v_seq.extend_from_slice(&v);
        }
        tables.push(table);
        dense_k.push(k_seq);
        dense_v.push(v_seq);
    }
    let queries: Vec<f32> =
        (0..seq_lens.len() * cfg.q_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Fixture { storage, tables, dense_k, dense_v, queries }
}

fn random_cfg(heads_pow: u32, group_pow: u32) -> AttentionConfig {
    let n_kv = 1usize << heads_pow;
    AttentionConfig::new(n_kv << group_pow, n_kv, 8)
}

/// Deterministic companion to the matvec proptest below: the random shapes there sit
/// under `neo-model`'s serial-work cutoff, so this exercises a matrix big enough
/// (512×256 single, plus batches of 8 and 13 — one full 8-lane tile, then a full tile
/// and a tail) to take the parallel chunked paths, at every width.
#[test]
fn large_matvec_parallel_path_is_bit_identical() {
    let (rows, cols) = (512usize, 256usize);
    for batch in [8usize, 13] {
        let mut rng = StdRng::seed_from_u64(99);
        let weight: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let x: Vec<f32> = (0..batch * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let linear = Linear::new(rows, cols, weight.clone());
        let mut expected = vec![0.0f32; batch * rows];
        for (bi, x_row) in x.chunks(cols).enumerate() {
            for r in 0..rows {
                expected[bi * rows + r] =
                    weight[r * cols..(r + 1) * cols].iter().zip(x_row).map(|(w, v)| w * v).sum();
            }
        }
        for threads in WIDTHS {
            let (single, batched) =
                pool(threads).install(|| (linear.forward(&x[..cols]), linear.forward_batch(&x)));
            assert_bits_eq(&single, &expected[..rows], "large matvec single");
            assert_bits_eq(&batched, &expected, "large matvec batch");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flash-decode at a pinned partition size is bit-identical across pool widths, and
    /// the auto-tuned entry point stays within tolerance of the dense reference at every
    /// width.
    #[test]
    fn flash_decode_is_width_invariant(
        lens in proptest::collection::vec(1usize..80, 1..5),
        heads_pow in 0u32..3,
        group_pow in 0u32..2,
        partition_blocks in 1usize..6,
        seed in 0u64..1000,
    ) {
        let cfg = random_cfg(heads_pow, group_pow);
        let fx = build_fixture(&lens, &cfg, seed);
        let tables: Vec<&BlockTable> = fx.tables.iter().collect();
        let mut baseline: Option<Vec<f32>> = None;
        for threads in WIDTHS {
            let mut pinned = vec![0.0f32; lens.len() * cfg.q_stride()];
            let mut auto = vec![0.0f32; lens.len() * cfg.q_stride()];
            pool(threads).install(|| {
                paged_decode_attention_with_partitions(
                    &fx.queries, &fx.storage, &tables, &lens, &cfg, partition_blocks, &mut pinned,
                );
                paged_decode_attention(&fx.queries, &fx.storage, &tables, &lens, &cfg, &mut auto);
            });
            match &baseline {
                None => baseline = Some(pinned),
                Some(first) => assert_bits_eq(first, &pinned, "pinned-partition decode"),
            }
            for (i, &len) in lens.iter().enumerate() {
                let mut expected = vec![0.0f32; cfg.q_stride()];
                dense_attention(
                    &fx.queries[i * cfg.q_stride()..(i + 1) * cfg.q_stride()],
                    &fx.dense_k[i], &fx.dense_v[i], 1, len, &cfg, None, &mut expected,
                );
                for (a, b) in auto[i * cfg.q_stride()..(i + 1) * cfg.q_stride()].iter().zip(&expected) {
                    prop_assert!((a - b).abs() < 1e-3, "threads {}: {} vs {}", threads, a, b);
                }
            }
        }
    }

    /// Paged prefill is bit-identical across pool widths and matches the causal dense
    /// reference at every width.
    #[test]
    fn prefill_is_width_invariant(
        ctx_len in 1usize..64,
        new_frac in 1usize..5,
        heads_pow in 0u32..3,
        group_pow in 0u32..2,
        seed in 0u64..1000,
    ) {
        let cfg = random_cfg(heads_pow, group_pow);
        let n_new = (ctx_len * new_frac).div_ceil(4).max(1).min(ctx_len);
        let fx = build_fixture(&[ctx_len], &cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let q: Vec<f32> = (0..n_new * cfg.q_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut expected = vec![0.0f32; n_new * cfg.q_stride()];
        dense_attention(
            &q, &fx.dense_k[0], &fx.dense_v[0], n_new, ctx_len, &cfg,
            Some(ctx_len - n_new), &mut expected,
        );
        let mut baseline: Option<Vec<f32>> = None;
        for threads in WIDTHS {
            let mut out = vec![0.0f32; n_new * cfg.q_stride()];
            pool(threads).install(|| {
                paged_prefill_attention(
                    &q, &fx.storage, &fx.tables[0], ctx_len, n_new, &cfg, &mut out,
                );
            });
            for (a, b) in out.iter().zip(&expected) {
                prop_assert!((a - b).abs() < 1e-3, "threads {}: {} vs {}", threads, a, b);
            }
            match &baseline {
                None => baseline = Some(out),
                Some(first) => assert_bits_eq(first, &out, "prefill"),
            }
        }
    }

    /// The parallel matvec (single input and batched) is bit-identical across pool
    /// widths *and* to a hand-rolled serial dot-product loop. Batches up to 19 span two
    /// full 8-lane tiles plus a tail; row counts cover the 4-row tile's tails.
    #[test]
    fn matvec_is_width_invariant(
        rows in 1usize..96,
        cols in 1usize..48,
        batch in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x: Vec<f32> = (0..batch * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let linear = Linear::new(rows, cols, weight.clone());
        // Serial reference: same expression, same reduction order, no rayon involved.
        let mut expected = vec![0.0f32; batch * rows];
        for (bi, x_row) in x.chunks(cols).enumerate() {
            for r in 0..rows {
                expected[bi * rows + r] = weight[r * cols..(r + 1) * cols]
                    .iter()
                    .zip(x_row)
                    .map(|(w, v)| w * v)
                    .sum();
            }
        }
        for threads in WIDTHS {
            let (single, batched) = pool(threads).install(|| {
                (linear.forward(&x[..cols]), linear.forward_batch(&x))
            });
            assert_bits_eq(&single, &expected[..rows], "matvec single");
            assert_bits_eq(&batched, &expected, "matvec batch");
        }
    }
}
