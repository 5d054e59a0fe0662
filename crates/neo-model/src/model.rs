//! The functional decoder-only transformer.
//!
//! [`Model`] runs real forward passes over the paged KV cache: prefill of a prompt chunk,
//! single-sequence decode, and batched decode where GPU-resident and CPU-resident
//! sequences are grouped into separate attention-kernel invocations — the functional
//! analogue of NEO's two sub-batches.

use neo_kernels::decode::paged_decode_attention;
use neo_kernels::prefill::paged_prefill_attention;
use neo_kernels::rope::RopeTable;
use neo_kernels::AttentionConfig;
use neo_kvcache::{Device, KvCacheError};
use neo_sim::ModelDesc;

use crate::cache::PagedKvCache;
use crate::linear::{add_inplace, swiglu, RmsNorm};
use crate::weights::{LayerWeights, ModelWeights};

/// Errors returned by model forward passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The KV cache rejected an operation (OOM, unknown sequence, ...).
    Cache(KvCacheError),
    /// A token id was outside the model's vocabulary.
    TokenOutOfRange {
        /// The offending token.
        token: u32,
        /// The vocabulary size.
        vocab: usize,
    },
    /// An empty prompt was submitted for prefill.
    EmptyPrompt,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Cache(e) => write!(f, "kv cache error: {e}"),
            ModelError::TokenOutOfRange { token, vocab } => {
                write!(f, "token {token} outside vocabulary of {vocab}")
            }
            ModelError::EmptyPrompt => write!(f, "prompt must contain at least one token"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Cache(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KvCacheError> for ModelError {
    fn from(e: KvCacheError) -> Self {
        ModelError::Cache(e)
    }
}

/// A functional LLaMa-style model with random weights.
#[derive(Debug, Clone)]
pub struct Model {
    weights: ModelWeights,
    rope: RopeTable,
    attn_cfg: AttentionConfig,
}

impl Model {
    /// Builds a model with randomly initialised weights for `desc`.
    pub fn random(desc: &ModelDesc, seed: u64) -> Self {
        Self::from_weights(ModelWeights::random(desc, seed))
    }

    /// Builds a model from existing weights.
    pub fn from_weights(weights: ModelWeights) -> Self {
        let desc = &weights.desc;
        let rope = RopeTable::new(desc.head_dim, 10000.0);
        let attn_cfg = AttentionConfig::new(desc.n_heads, desc.n_kv_heads, desc.head_dim);
        Self { weights, rope, attn_cfg }
    }

    /// Architecture descriptor of this model.
    pub fn desc(&self) -> &ModelDesc {
        &self.weights.desc
    }

    fn check_tokens(&self, tokens: &[u32]) -> Result<(), ModelError> {
        for &t in tokens {
            if (t as usize) >= self.desc().vocab {
                return Err(ModelError::TokenOutOfRange { token: t, vocab: self.desc().vocab });
            }
        }
        Ok(())
    }

    /// Prefills a new sequence `seq_id` with `tokens`, placing its KV cache on `device`,
    /// and returns the logits predicting the token after the prompt.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyPrompt`] for an empty prompt, [`ModelError::TokenOutOfRange`]
    /// for invalid token ids, or a [`ModelError::Cache`] error (e.g. out of cache memory,
    /// duplicate sequence id).
    pub fn prefill(
        &self,
        seq_id: u64,
        tokens: &[u32],
        cache: &mut PagedKvCache,
        device: Device,
    ) -> Result<Vec<f32>, ModelError> {
        if tokens.is_empty() {
            return Err(ModelError::EmptyPrompt);
        }
        self.check_tokens(tokens)?;
        cache.allocate(seq_id, tokens.len(), device)?;
        let hidden = self.forward_chunk(seq_id, tokens, 0, cache)?;
        Ok(self.logits(&hidden))
    }

    /// Appends one `token` to an existing sequence and returns the logits for the next
    /// token. The sequence's KV cache stays on whichever device it currently occupies.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] or a [`ModelError::Cache`] error (unknown
    /// sequence, out of cache memory).
    pub fn decode(
        &self,
        seq_id: u64,
        token: u32,
        cache: &mut PagedKvCache,
    ) -> Result<Vec<f32>, ModelError> {
        self.check_tokens(&[token])?;
        let start = cache.num_tokens(seq_id)?;
        cache.append(seq_id, 1)?;
        let hidden = self.forward_chunk(seq_id, &[token], start, cache)?;
        Ok(self.logits(&hidden))
    }

    /// Decodes one token for every `(seq_id, token)` pair, grouping the attention of
    /// GPU-resident and CPU-resident sequences into separate kernel invocations (the
    /// functional analogue of NEO's batch-0 / batch-1 split). Returns one logit vector per
    /// input pair, in order.
    ///
    /// The linear stage is batched: each projection (and the LM head) is one
    /// [`Linear::forward_batch`](crate::linear::Linear::forward_batch) over the stacked
    /// rows of all sequences, so every weight matrix is read once per step rather than
    /// once per sequence. RMSNorm, RoPE, KV writes and attention stay per sequence, and
    /// each sequence's logits are bit-identical to decoding it alone with
    /// [`Model::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] or [`ModelError::Cache`] for an unknown
    /// sequence; both are checked for the whole batch before any KV slot is reserved, so
    /// such an error leaves the cache untouched. A cache that runs out of memory while the
    /// slots are reserved returns [`ModelError::Cache`] with the sequences before the
    /// failing one still holding their reserved, unwritten slot.
    pub fn decode_batch(
        &self,
        items: &[(u64, u32)],
        cache: &mut PagedKvCache,
    ) -> Result<Vec<Vec<f32>>, ModelError> {
        let desc = self.desc();
        let q_dim = desc.n_heads * desc.head_dim;

        // Validate the whole batch, then reserve the new slot for every sequence.
        for &(seq_id, token) in items {
            self.check_tokens(&[token])?;
            cache.num_tokens(seq_id)?;
        }
        let mut rows = Vec::with_capacity(items.len());
        for &(seq_id, _) in items {
            rows.push((seq_id, cache.num_tokens(seq_id)?));
            cache.append(seq_id, 1)?;
        }

        // Residual streams, one row per sequence.
        let mut xs = self.embed(items.iter().map(|&(_, token)| token));

        for (layer_idx, layer) in self.weights.layers.iter().enumerate() {
            let queries = self.qkv_stage(layer_idx, layer, &xs, &rows, cache)?;

            // Attention stage: one kernel invocation per device group.
            let mut attn_out = vec![0.0f32; items.len() * q_dim];
            for device in [Device::Gpu, Device::Cpu] {
                let group: Vec<usize> = (0..items.len())
                    .filter(|&i| cache.device_of(items[i].0).map(|d| d == device).unwrap_or(false))
                    .collect();
                if group.is_empty() {
                    continue;
                }
                let mut q_flat = Vec::with_capacity(group.len() * q_dim);
                let mut seq_lens = Vec::with_capacity(group.len());
                let mut tables = Vec::with_capacity(group.len());
                for &i in &group {
                    q_flat.extend_from_slice(&queries[i * q_dim..(i + 1) * q_dim]);
                    seq_lens.push(rows[i].1 + 1);
                    tables.push(cache.block_table(items[i].0)?);
                }
                let mut out_flat = vec![0.0f32; group.len() * q_dim];
                paged_decode_attention(
                    &q_flat,
                    cache.storage(layer_idx, device),
                    &tables,
                    &seq_lens,
                    &self.attn_cfg,
                    &mut out_flat,
                );
                for (gi, &i) in group.iter().enumerate() {
                    attn_out[i * q_dim..(i + 1) * q_dim]
                        .copy_from_slice(&out_flat[gi * q_dim..(gi + 1) * q_dim]);
                }
            }

            Self::ffn_stage(layer, &mut xs, &attn_out);
        }

        Ok(self.logits(&xs).chunks_exact(desc.vocab).map(<[f32]>::to_vec).collect())
    }

    /// Runs the transformer over a chunk of `tokens` of `seq_id` starting at position
    /// `start_pos` (their KV slots must already be allocated) and returns the final hidden
    /// state of the last token. Each projection is one batched product over the chunk.
    fn forward_chunk(
        &self,
        seq_id: u64,
        tokens: &[u32],
        start_pos: usize,
        cache: &mut PagedKvCache,
    ) -> Result<Vec<f32>, ModelError> {
        let n = tokens.len();
        let hidden = self.desc().hidden;
        let q_dim = self.desc().n_heads * self.desc().head_dim;
        let device = cache.device_of(seq_id)?;
        let rows: Vec<(u64, usize)> = (start_pos..start_pos + n).map(|p| (seq_id, p)).collect();

        // Residual stream for every token in the chunk.
        let mut xs = self.embed(tokens.iter().copied());

        for (layer_idx, layer) in self.weights.layers.iter().enumerate() {
            let q_flat = self.qkv_stage(layer_idx, layer, &xs, &rows, cache)?;

            // Attention stage over the paged cache.
            let ctx_len = start_pos + n;
            let mut attn_flat = vec![0.0f32; n * q_dim];
            let table = cache.block_table(seq_id)?;
            if n == 1 {
                paged_decode_attention(
                    &q_flat,
                    cache.storage(layer_idx, device),
                    &[table],
                    &[ctx_len],
                    &self.attn_cfg,
                    &mut attn_flat,
                );
            } else {
                paged_prefill_attention(
                    &q_flat,
                    cache.storage(layer_idx, device),
                    table,
                    ctx_len,
                    n,
                    &self.attn_cfg,
                    &mut attn_flat,
                );
            }

            Self::ffn_stage(layer, &mut xs, &attn_flat);
        }

        Ok(xs.split_off((n - 1) * hidden))
    }

    /// Stacked embedding rows of `tokens`, `[n, hidden]`.
    fn embed(&self, tokens: impl Iterator<Item = u32>) -> Vec<f32> {
        tokens.flat_map(|t| self.weights.embedding(t).iter().copied()).collect()
    }

    /// Linear stage before attention for the stacked residual rows `xs`: RMSNorm per row,
    /// one batched product per Q/K/V projection, then RoPE and the KV write of row `i`
    /// at `rows[i] = (seq_id, position)`. Returns the stacked queries.
    fn qkv_stage(
        &self,
        layer_idx: usize,
        layer: &LayerWeights,
        xs: &[f32],
        rows: &[(u64, usize)],
        cache: &mut PagedKvCache,
    ) -> Result<Vec<f32>, ModelError> {
        let h = norm_rows(&layer.input_norm, xs);
        let mut q = layer.wq.forward_batch(&h);
        let mut k = layer.wk.forward_batch(&h);
        let v = layer.wv.forward_batch(&h);
        let (q_dim, kv_dim) = (layer.wq.rows(), layer.wk.rows());
        for (i, &(seq_id, pos)) in rows.iter().enumerate() {
            let q_row = &mut q[i * q_dim..(i + 1) * q_dim];
            let k_row = &mut k[i * kv_dim..(i + 1) * kv_dim];
            self.rope.apply_row(q_row, pos);
            self.rope.apply_row(k_row, pos);
            cache.write_kv(layer_idx, seq_id, pos, k_row, &v[i * kv_dim..(i + 1) * kv_dim])?;
        }
        Ok(q)
    }

    /// Output projection and SwiGLU FFN for the stacked rows, each a batched product,
    /// added into the residual stream `xs` along with the attention output `attn`.
    fn ffn_stage(layer: &LayerWeights, xs: &mut [f32], attn: &[f32]) {
        add_inplace(xs, &layer.wo.forward_batch(attn));
        let h2 = norm_rows(&layer.post_norm, xs);
        let gate = layer.w_gate.forward_batch(&h2);
        let up = layer.w_up.forward_batch(&h2);
        add_inplace(xs, &layer.w_down.forward_batch(&swiglu(&gate, &up)));
    }

    /// Logits of the stacked hidden rows, `[n, vocab]`: one LM-head product.
    fn logits(&self, hidden: &[f32]) -> Vec<f32> {
        self.weights.lm_head.forward_batch(&norm_rows(&self.weights.final_norm, hidden))
    }
}

/// Applies `norm` to every row of the stacked buffer `xs`.
fn norm_rows(norm: &RmsNorm, xs: &[f32]) -> Vec<f32> {
    xs.chunks_exact(norm.dim()).flat_map(|x| norm.forward(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::argmax;

    fn setup() -> (Model, PagedKvCache) {
        let desc = ModelDesc::tiny();
        let model = Model::random(&desc, 123);
        let cache = PagedKvCache::new(&desc, 4, 2048, 4096);
        (model, cache)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn prefill_returns_finite_vocab_sized_logits() {
        let (model, mut cache) = setup();
        let logits = model.prefill(1, &[1, 2, 3, 4, 5], &mut cache, Device::Gpu).unwrap();
        assert_eq!(logits.len(), model.desc().vocab);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn prefill_then_decode_matches_longer_prefill() {
        // Running prefill([a, b, c]) must produce the same next-token logits as
        // prefill([a, b]) followed by decode(c): incremental decoding is exact.
        let (model, mut cache_a) = setup();
        let full = model.prefill(1, &[7, 8, 9], &mut cache_a, Device::Gpu).unwrap();

        let (_, mut cache_b) = setup();
        let model_b = Model::random(&ModelDesc::tiny(), 123);
        model_b.prefill(1, &[7, 8], &mut cache_b, Device::Gpu).unwrap();
        let incremental = model_b.decode(1, 9, &mut cache_b).unwrap();

        assert_close(&full, &incremental, 1e-3);
    }

    #[test]
    fn cpu_resident_sequence_produces_identical_logits() {
        // The accuracy-preservation claim: running attention from the CPU-cache gives the
        // same result as from the GPU-cache.
        let (model, mut gpu_cache) = setup();
        let (_, mut cpu_cache) = setup();
        let a = model.prefill(1, &[3, 1, 4, 1, 5], &mut gpu_cache, Device::Gpu).unwrap();
        let b = model.prefill(1, &[3, 1, 4, 1, 5], &mut cpu_cache, Device::Cpu).unwrap();
        assert_close(&a, &b, 1e-4);
        let da = model.decode(1, 9, &mut gpu_cache).unwrap();
        let db = model.decode(1, 9, &mut cpu_cache).unwrap();
        assert_close(&da, &db, 1e-4);
    }

    #[test]
    fn swapping_mid_generation_does_not_change_output() {
        let (model, mut cache) = setup();
        let (_, mut reference_cache) = setup();

        model.prefill(1, &[10, 20, 30], &mut cache, Device::Gpu).unwrap();
        model.prefill(1, &[10, 20, 30], &mut reference_cache, Device::Gpu).unwrap();

        // Swap the sequence to the CPU-cache (and back) before decoding.
        cache.swap(1, Device::Cpu).unwrap();
        let swapped = model.decode(1, 40, &mut cache).unwrap();
        let stayed = model.decode(1, 40, &mut reference_cache).unwrap();
        assert_close(&swapped, &stayed, 1e-4);
    }

    #[test]
    fn decode_batch_matches_individual_decodes_across_devices() {
        let desc = ModelDesc::tiny();
        let model = Model::random(&desc, 9);

        // Batched path: seq 1 on GPU, seq 2 on CPU.
        let mut batch_cache = PagedKvCache::new(&desc, 4, 2048, 4096);
        model.prefill(1, &[5, 6, 7], &mut batch_cache, Device::Gpu).unwrap();
        model.prefill(2, &[11, 12], &mut batch_cache, Device::Cpu).unwrap();
        let batched = model.decode_batch(&[(1, 8), (2, 13)], &mut batch_cache).unwrap();

        // Individual path.
        let mut solo_cache = PagedKvCache::new(&desc, 4, 2048, 4096);
        model.prefill(1, &[5, 6, 7], &mut solo_cache, Device::Gpu).unwrap();
        model.prefill(2, &[11, 12], &mut solo_cache, Device::Cpu).unwrap();
        let solo1 = model.decode(1, 8, &mut solo_cache).unwrap();
        let solo2 = model.decode(2, 13, &mut solo_cache).unwrap();

        // Same per-output reduction order and same per-sequence attention partitioning:
        // batching changes no bit.
        for (b, s) in [(&batched[0], &solo1), (&batched[1], &solo2)] {
            assert_eq!(b.len(), s.len());
            assert!(b.iter().zip(s).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }

    #[test]
    fn failed_decode_batch_reserves_no_slot() {
        // A bad token or unknown sequence late in the batch must not leave the earlier
        // sequences with a reserved but never-written KV slot.
        let (model, mut cache) = setup();
        model.prefill(1, &[1, 2, 3], &mut cache, Device::Gpu).unwrap();
        model.prefill(2, &[4, 5], &mut cache, Device::Cpu).unwrap();
        let vocab = model.desc().vocab as u32;

        let err = model.decode_batch(&[(1, 5), (2, vocab)], &mut cache).unwrap_err();
        assert!(matches!(err, ModelError::TokenOutOfRange { .. }));
        assert_eq!(cache.num_tokens(1).unwrap(), 3);
        assert_eq!(cache.num_tokens(2).unwrap(), 2);

        let err = model.decode_batch(&[(1, 5), (99, 6)], &mut cache).unwrap_err();
        assert!(matches!(err, ModelError::Cache(KvCacheError::UnknownSequence(99))));
        assert_eq!(cache.num_tokens(1).unwrap(), 3);
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let (model, mut cache_a) = setup();
        let (_, mut cache_b) = setup();
        let gen = |cache: &mut PagedKvCache| {
            let mut logits = model.prefill(1, &[42, 43], cache, Device::Gpu).unwrap();
            let mut out = Vec::new();
            for _ in 0..5 {
                let t = argmax(&logits);
                out.push(t);
                logits = model.decode(1, t, cache).unwrap();
            }
            out
        };
        assert_eq!(gen(&mut cache_a), gen(&mut cache_b));
    }

    #[test]
    fn empty_prompt_is_rejected() {
        let (model, mut cache) = setup();
        assert_eq!(model.prefill(1, &[], &mut cache, Device::Gpu), Err(ModelError::EmptyPrompt));
    }

    #[test]
    fn out_of_vocab_token_is_rejected() {
        let (model, mut cache) = setup();
        let vocab = model.desc().vocab as u32;
        let err = model.prefill(1, &[vocab], &mut cache, Device::Gpu).unwrap_err();
        assert!(matches!(err, ModelError::TokenOutOfRange { .. }));
        assert!(err.to_string().contains("vocabulary"));
    }

    #[test]
    fn cache_oom_surfaces_as_model_error() {
        let desc = ModelDesc::tiny();
        let model = Model::random(&desc, 1);
        let mut tiny_cache = PagedKvCache::new(&desc, 4, 8, 8);
        let err = model.prefill(1, &[1; 32], &mut tiny_cache, Device::Gpu).unwrap_err();
        assert!(matches!(err, ModelError::Cache(KvCacheError::OutOfMemory { .. })));
    }
}
