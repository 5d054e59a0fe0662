//! Functional integration tests: the real (tiny) transformer over the paged KV cache must
//! produce bit-for-bit-comparable outputs no matter where its KV cache lives — the
//! accuracy-preservation property that separates NEO from quantization/sparsification
//! approaches (§7 of the paper).

use neo_kvcache::Device;
use neo_model::{argmax, Model, PagedKvCache};
use neo_sim::ModelDesc;

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
}

fn greedy_generate(
    model: &Model,
    cache: &mut PagedKvCache,
    seq: u64,
    prompt: &[u32],
    device: Device,
    steps: usize,
) -> Vec<u32> {
    let mut logits = model.prefill(seq, prompt, cache, device).unwrap();
    let mut out = Vec::new();
    for _ in 0..steps {
        let t = argmax(&logits);
        out.push(t);
        logits = model.decode(seq, t, cache).unwrap();
    }
    out
}

#[test]
fn gpu_and_cpu_resident_generation_agree() {
    let desc = ModelDesc::small();
    let model = Model::random(&desc, 7);
    let prompt = [3u32, 999, 14, 52, 8, 120, 77];

    let mut gpu_cache = PagedKvCache::new(&desc, 16, 4096, 4096);
    let mut cpu_cache = PagedKvCache::new(&desc, 16, 4096, 4096);
    let on_gpu = greedy_generate(&model, &mut gpu_cache, 1, &prompt, Device::Gpu, 16);
    let on_cpu = greedy_generate(&model, &mut cpu_cache, 1, &prompt, Device::Cpu, 16);
    assert_eq!(on_gpu, on_cpu);
}

#[test]
fn swapping_kv_between_pools_never_changes_logits() {
    let desc = ModelDesc::tiny();
    let model = Model::random(&desc, 8);
    let prompt = [1u32, 2, 3, 4, 5, 6, 7, 8];

    // Reference: stays on the GPU pool the whole time.
    let mut reference = PagedKvCache::new(&desc, 8, 2048, 4096);
    let mut ref_logits = model.prefill(1, &prompt, &mut reference, Device::Gpu).unwrap();

    // Subject: swapped to the other pool before every single decode step.
    let mut subject = PagedKvCache::new(&desc, 8, 2048, 4096);
    let mut sub_logits = model.prefill(1, &prompt, &mut subject, Device::Gpu).unwrap();

    for step in 0..10 {
        assert!(close(&ref_logits, &sub_logits, 1e-4), "logits diverged at step {step}");
        let token = argmax(&ref_logits);
        let target = subject.device_of(1).unwrap().other();
        subject.swap(1, target).unwrap();
        ref_logits = model.decode(1, token, &mut reference).unwrap();
        sub_logits = model.decode(1, token, &mut subject).unwrap();
    }
}

#[test]
fn mixed_device_batch_matches_isolated_requests() {
    // A batch with one GPU-resident and one CPU-resident request (the two sub-batches of
    // an iteration) must produce the same logits as running each request alone.
    let desc = ModelDesc::tiny();
    let model = Model::random(&desc, 9);

    let mut batch_cache = PagedKvCache::new(&desc, 8, 2048, 4096);
    model.prefill(1, &[10, 20, 30, 40], &mut batch_cache, Device::Gpu).unwrap();
    model.prefill(2, &[50, 60, 70], &mut batch_cache, Device::Cpu).unwrap();
    let batched = model.decode_batch(&[(1, 41), (2, 71)], &mut batch_cache).unwrap();

    let mut solo1 = PagedKvCache::new(&desc, 8, 2048, 4096);
    model.prefill(1, &[10, 20, 30, 40], &mut solo1, Device::Gpu).unwrap();
    let alone1 = model.decode(1, 41, &mut solo1).unwrap();

    let mut solo2 = PagedKvCache::new(&desc, 8, 2048, 4096);
    model.prefill(2, &[50, 60, 70], &mut solo2, Device::Cpu).unwrap();
    let alone2 = model.decode(2, 71, &mut solo2).unwrap();

    // Batched and isolated decodes share every reduction order: identical bits.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&batched[0]), bits(&alone1));
    assert_eq!(bits(&batched[1]), bits(&alone2));
}

#[test]
fn long_generation_with_periodic_swaps_stays_deterministic() {
    let desc = ModelDesc::tiny();
    let model = Model::random(&desc, 10);
    let prompt = [42u32, 43, 44];

    let run = |swap_every: Option<usize>| {
        let mut cache = PagedKvCache::new(&desc, 8, 4096, 8192);
        let mut logits = model.prefill(1, &prompt, &mut cache, Device::Gpu).unwrap();
        let mut tokens = Vec::new();
        for step in 0..32 {
            if let Some(k) = swap_every {
                if step % k == k - 1 {
                    let target = cache.device_of(1).unwrap().other();
                    cache.swap(1, target).unwrap();
                }
            }
            let t = argmax(&logits);
            tokens.push(t);
            logits = model.decode(1, t, &mut cache).unwrap();
        }
        tokens
    };

    let never = run(None);
    let sometimes = run(Some(5));
    let often = run(Some(2));
    assert_eq!(never, sometimes);
    assert_eq!(never, often);
}
