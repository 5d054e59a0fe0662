//! Thread-scaling sweep for the CPU hot paths: partitioned flash-decode attention and the
//! dense matvec.
//!
//! Sweeps the rayon pool width over 1/2/4/8 via `ThreadPool::install` (no re-exec, no
//! `RAYON_NUM_THREADS` juggling) and reports one estimate per width, so the
//! serial-vs-partitioned curves NEO's offloading bet depends on are measurable directly:
//! on an N-core machine the `flash_decode/<t>` ids should show throughput rising with `t`
//! up to N (the paper's core-group scaling), while a sequential executor shows a flat
//! line. The decode side uses the auto-tuned partition size, so each width also exercises
//! `auto_partition_blocks` at that width; `flash_decode/serial` is the non-partitioned
//! baseline for reference.
//!
//! This target is deliberately *not* part of the `bench_baseline` regression gate: its
//! numbers exist to be compared across widths on one machine, not across machines.

#![allow(missing_docs)] // criterion_group! generates an undocumented accessor

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use neo_kernels::decode::{paged_decode_attention, paged_decode_attention_serial};
use neo_kernels::AttentionConfig;
use neo_kvcache::{BlockTable, PagedStorage};
use neo_model::linear::Linear;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;

/// Pool widths swept by every group.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

struct Fixture {
    storage: PagedStorage,
    tables: Vec<BlockTable>,
    seq_lens: Vec<usize>,
    queries: Vec<f32>,
    cfg: AttentionConfig,
}

fn build(n_seqs: usize, ctx: usize, cfg: AttentionConfig) -> Fixture {
    let block_size = 16;
    let blocks_per_seq = ctx.div_ceil(block_size);
    let mut storage =
        PagedStorage::new(n_seqs * blocks_per_seq, block_size, cfg.n_kv_heads, cfg.head_dim);
    let mut rng = StdRng::seed_from_u64(7);
    let mut tables = Vec::new();
    for s in 0..n_seqs {
        let mut t = BlockTable::new(block_size);
        t.append(ctx, (s * blocks_per_seq..(s + 1) * blocks_per_seq).collect()).unwrap();
        for i in 0..ctx {
            let (b, slot) = t.locate(i).unwrap();
            let k: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let v: Vec<f32> = (0..cfg.kv_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            storage.write_token(b, slot, &k, &v).unwrap();
        }
        tables.push(t);
    }
    let queries: Vec<f32> =
        (0..n_seqs * cfg.q_stride()).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Fixture { storage, tables, seq_lens: vec![ctx; n_seqs], queries, cfg }
}

fn kv_bytes(fx: &Fixture) -> u64 {
    (fx.seq_lens.iter().sum::<usize>() * fx.cfg.kv_stride() * 2 * 4) as u64
}

fn bench_flash_decode_threads(c: &mut Criterion) {
    let cfg = AttentionConfig::new(32, 8, 128); // LLaMa-3.1-8B head geometry
    let fx = build(4, 2048, cfg);
    let tables: Vec<&BlockTable> = fx.tables.iter().collect();
    let mut group = c.benchmark_group("threads_scaling/flash_decode");
    group.sample_size(15);
    group.throughput(Throughput::Bytes(kv_bytes(&fx)));
    group.bench_function("serial", |b| {
        let mut out = vec![0.0f32; fx.queries.len()];
        b.iter(|| {
            paged_decode_attention_serial(
                &fx.queries,
                &fx.storage,
                &tables,
                &fx.seq_lens,
                &fx.cfg,
                &mut out,
            )
        });
    });
    for &threads in &WIDTHS {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            let mut out = vec![0.0f32; fx.queries.len()];
            pool.install(|| {
                b.iter(|| {
                    paged_decode_attention(
                        &fx.queries,
                        &fx.storage,
                        &tables,
                        &fx.seq_lens,
                        &fx.cfg,
                        &mut out,
                    )
                })
            });
        });
    }
    group.finish();
}

fn bench_matvec_threads(c: &mut Criterion) {
    // 4096x4096 is the paper's 8B-class projection size: 64 MiB of weights, firmly
    // memory-bound — the regime where core scaling is supposed to pay.
    let (rows, cols) = (4096usize, 4096usize);
    let mut rng = StdRng::seed_from_u64(11);
    let weight: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-0.02..0.02)).collect();
    let linear = Linear::new(rows, cols, weight);
    let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut group = c.benchmark_group("threads_scaling/matvec");
    group.sample_size(15);
    group.throughput(Throughput::Bytes((rows * cols * 4) as u64));
    for &threads in &WIDTHS {
        let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            pool.install(|| b.iter(|| linear.forward(&x)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_flash_decode_threads, bench_matvec_threads);
criterion_main!(benches);
