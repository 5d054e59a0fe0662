//! Dense linear algebra primitives for the functional model.
//!
//! Only what a LLaMa block needs: a row-major dense matrix–vector/matrix product
//! (the "linear stage" of the paper), RMSNorm, and the SiLU activation used by SwiGLU.
//!
//! [`Linear`] has one kernel, a token-lane tile: 4 output rows against up to 8 inputs,
//! the inputs transposed into a small `[cols][lanes]` buffer so each weight element is
//! loaded once and multiplied into every input of the tile. A batch therefore reads each
//! weight matrix once, however many tokens it carries — the amortisation NEO's batched
//! linear stage relies on. A single vector runs the same tile one lane wide, where the
//! row tile still gives the adder independent chains to overlap. There is no
//! batch-level versus matvec-level choice: every product is the same tile.
//!
//! Every output is still one dot product summed in column order from `-0.0`, exactly as
//! `Iterator::sum` does for `f32`, so results are bit-identical to
//! `row.iter().zip(x).map(|(w, v)| w * v).sum()` whatever the batch size, tile position,
//! pool width or chunking.
//!
//! Products of at least 64k multiply-adds fan out over output-row chunks sized from the
//! rayon pool width ([`rayon::current_num_threads`]); each chunk runs the tile over all
//! inputs. Smaller products stay serial outright — small models' per-token projections
//! must never pay a thread spawn.

use rayon::prelude::*;

/// Output rows per tile: each tile row is an independent accumulator chain.
const TILE_ROWS: usize = 4;

/// Inputs per tile of a batched product; a single vector runs a one-lane tile.
const TILE_LANES: usize = 8;

/// Minimum output rows per parallel chunk; below this the dot products are too cheap to
/// amortize a steal-unit claim (let alone a spawn). A multiple of [`TILE_ROWS`].
const MIN_ROWS_PER_CHUNK: usize = 16;

/// Minimum multiply-adds before a product fans out at all. Spawning scoped workers
/// costs tens of microseconds; at roughly one multiply-add per nanosecond serially,
/// anything under ~64k elements finishes serially before the spawn would pay off —
/// and `forward` sits on the per-token hot path of every layer, where paying a spawn
/// per tiny projection would make the "parallel" path slower than the old sequential
/// shim.
const MIN_PARALLEL_ELEMS: usize = 64 * 1024;

/// Steal-units targeted per pool worker, matching the pool's own unit granularity.
const CHUNKS_PER_THREAD: usize = 4;

/// Output-row chunk size for a parallel product over `rows` output rows: whole tiles
/// only, so only the last chunk can hold a partial tile.
fn chunk_rows(rows: usize) -> usize {
    rows.div_ceil(rayon::current_num_threads() * CHUNKS_PER_THREAD)
        .max(MIN_ROWS_PER_CHUNK)
        .next_multiple_of(TILE_ROWS)
}

/// Regroups the `n` inputs of `x` (`[n, cols]`) into tiles of `L` lanes: tile `g` is
/// `cols` entries, entry `c` holding column `c` of inputs `g*L .. g*L + L`. Lanes past
/// the last input stay zero; their outputs are never read.
fn pack_lanes<const L: usize>(x: &[f32], cols: usize) -> Vec<[f32; L]> {
    let n = x.len() / cols;
    let mut packed = vec![[0.0f32; L]; n.div_ceil(L) * cols];
    for (i, input) in x.chunks_exact(cols).enumerate() {
        let tile = &mut packed[(i / L) * cols..(i / L + 1) * cols];
        for (lanes, &v) in tile.iter_mut().zip(input) {
            lanes[i % L] = v;
        }
    }
    packed
}

/// A dense, row-major weight matrix computing `y = W x` (`W` is `[rows, cols]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    rows: usize,
    cols: usize,
    weight: Vec<f32>,
}

impl Linear {
    /// Creates a linear layer from a row-major weight buffer.
    ///
    /// # Panics
    ///
    /// Panics if `weight.len() != rows * cols` or either dimension is zero.
    pub fn new(rows: usize, cols: usize, weight: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "dimensions must be positive");
        assert_eq!(weight.len(), rows * cols, "weight buffer has wrong length");
        Self { rows, cols, weight }
    }

    /// Output dimension.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Computes `y = W x` for a single input vector: [`Linear::forward_batch`] with one
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "input vector has wrong length");
        self.forward_batch(x)
    }

    /// Computes `Y = X Wᵀ` for a batch of `n` row vectors laid out `[n, cols]`, returning
    /// `[n, rows]`.
    ///
    /// One weight pass serves the whole batch: the token-lane tile reads each weight
    /// element once for up to 8 inputs, so a decode step that stacks every sequence's
    /// row reads each projection once per step, not once per sequence. Above 64k
    /// multiply-adds the output rows are split into chunks across the pool, each chunk
    /// running the tile over all inputs. Every output is bit-identical to a serial
    /// column-order dot product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `cols`.
    pub fn forward_batch(&self, x: &[f32]) -> Vec<f32> {
        assert!(x.len() % self.cols == 0, "batch buffer must contain whole rows");
        match x.len() / self.cols {
            0 => Vec::new(),
            1 => self.rows_major::<1>(x, 1),
            n => {
                // The tile fills output rows for all inputs; transpose to `[n, rows]`.
                let by_row = self.rows_major::<TILE_LANES>(x, n);
                let mut y = vec![0.0f32; n * self.rows];
                for (r, outs) in by_row.chunks_exact(n).enumerate() {
                    for (i, &v) in outs.iter().enumerate() {
                        y[i * self.rows + r] = v;
                    }
                }
                y
            }
        }
    }

    /// `W x` for the `n` inputs of `x`, laid out output-row major (`[rows, n]`), tiled
    /// `L` inputs at a time.
    fn rows_major<const L: usize>(&self, x: &[f32], n: usize) -> Vec<f32> {
        let packed = pack_lanes::<L>(x, self.cols);
        let mut out = vec![0.0f32; self.rows * n];
        if n * self.rows * self.cols < MIN_PARALLEL_ELEMS {
            self.rows_into(&packed, n, 0, &mut out);
        } else {
            let chunk = chunk_rows(self.rows);
            out.par_chunks_mut(chunk * n).enumerate().for_each(|(c, out_chunk)| {
                self.rows_into(&packed, n, c * chunk, out_chunk);
            });
        }
        out
    }

    /// Fills `out` (`[k, n]`, output-row major) with output rows
    /// `first_row .. first_row + k` for all `n` packed inputs, one row tile at a time so
    /// the tile's weights stay in L1 while every lane tile streams past them.
    fn rows_into<const L: usize>(
        &self,
        packed: &[[f32; L]],
        n: usize,
        first_row: usize,
        out: &mut [f32],
    ) {
        for (t, tile_out) in out.chunks_mut(TILE_ROWS * n).enumerate() {
            let row = first_row + t * TILE_ROWS;
            let tile_rows = tile_out.len() / n;
            for (g, lanes) in packed.chunks_exact(self.cols).enumerate() {
                let live = (n - g * L).min(L);
                let mut store = |k: usize, acc: &[f32; L]| {
                    tile_out[k * n + g * L..][..live].copy_from_slice(&acc[..live]);
                };
                if tile_rows == TILE_ROWS {
                    for (k, acc) in self.tile::<TILE_ROWS, L>(row, lanes).iter().enumerate() {
                        store(k, acc);
                    }
                } else {
                    for k in 0..tile_rows {
                        store(k, &self.tile::<1, L>(row + k, lanes)[0]);
                    }
                }
            }
        }
    }

    /// The kernel: dot products of output rows `row .. row + R` with the `L` inputs
    /// packed in `lanes` (`[cols][L]`). Each weight element is loaded once and used for
    /// every lane; each of the `R × L` accumulators starts at `-0.0` and adds its
    /// products in column order, as `Iterator::sum` does.
    fn tile<const R: usize, const L: usize>(
        &self,
        row: usize,
        lanes: &[[f32; L]],
    ) -> [[f32; L]; R] {
        let cols = self.cols;
        let w: [&[f32]; R] = std::array::from_fn(|k| &self.weight[(row + k) * cols..][..cols]);
        let mut acc = [[-0.0f32; L]; R];
        for (c, x) in lanes[..cols].iter().enumerate() {
            for (acc_row, w_row) in acc.iter_mut().zip(&w) {
                let wc = w_row[c];
                for (a, v) in acc_row.iter_mut().zip(x) {
                    *a += wc * v;
                }
            }
        }
        acc
    }
}

/// Root-mean-square layer normalisation: `x * rsqrt(mean(x^2) + eps) * gain`.
#[derive(Debug, Clone, PartialEq)]
pub struct RmsNorm {
    gain: Vec<f32>,
    eps: f32,
}

impl RmsNorm {
    /// Creates an RMSNorm with the given gain vector and epsilon.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is empty.
    pub fn new(gain: Vec<f32>, eps: f32) -> Self {
        assert!(!gain.is_empty(), "gain must not be empty");
        Self { gain, eps }
    }

    /// Normalised size.
    pub fn dim(&self) -> usize {
        self.gain.len()
    }

    /// Applies the normalisation, returning a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != dim()`.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.gain.len(), "input has wrong length");
        let mean_sq = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
        let scale = 1.0 / (mean_sq + self.eps).sqrt();
        x.iter().zip(&self.gain).map(|(v, g)| v * scale * g).collect()
    }
}

/// SiLU (swish) activation, `x * sigmoid(x)`, applied element-wise.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Element-wise SwiGLU combine: `silu(gate) * up`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn swiglu(gate: &[f32], up: &[f32]) -> Vec<f32> {
    assert_eq!(gate.len(), up.len(), "gate and up must have the same length");
    gate.iter().zip(up).map(|(&g, &u)| silu(g) * u).collect()
}

/// Adds `rhs` into `lhs` element-wise (residual connection).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn add_inplace(lhs: &mut [f32], rhs: &[f32]) {
    assert_eq!(lhs.len(), rhs.len(), "residual add requires equal lengths");
    for (a, b) in lhs.iter_mut().zip(rhs) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_matches_hand_computation() {
        // W = [[1, 2], [3, 4], [5, 6]], x = [1, -1] => y = [-1, -1, -1].
        let w = Linear::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(w.forward(&[1.0, -1.0]), vec![-1.0, -1.0, -1.0]);
    }

    #[test]
    fn linear_batch_matches_single() {
        let w = Linear::new(4, 3, (0..12).map(|i| i as f32 * 0.1).collect());
        let x1 = [1.0, 2.0, 3.0];
        let x2 = [-1.0, 0.5, 0.0];
        let batch: Vec<f32> = x1.iter().chain(x2.iter()).copied().collect();
        let out = w.forward_batch(&batch);
        assert_eq!(&out[0..4], &w.forward(&x1)[..]);
        assert_eq!(&out[4..8], &w.forward(&x2)[..]);
    }

    #[test]
    fn identity_linear_is_identity() {
        let mut weight = vec![0.0f32; 9];
        for i in 0..3 {
            weight[i * 3 + i] = 1.0;
        }
        let w = Linear::new(3, 3, weight);
        assert_eq!(w.forward(&[7.0, -2.0, 0.5]), vec![7.0, -2.0, 0.5]);
    }

    #[test]
    fn rmsnorm_produces_unit_rms_with_unit_gain() {
        let n = RmsNorm::new(vec![1.0; 4], 1e-6);
        let y = n.forward(&[2.0, -2.0, 2.0, -2.0]);
        let rms = (y.iter().map(|v| v * v).sum::<f32>() / 4.0).sqrt();
        assert!((rms - 1.0).abs() < 1e-3);
    }

    #[test]
    fn rmsnorm_is_scale_invariant_up_to_gain() {
        let n = RmsNorm::new(vec![1.0; 3], 1e-6);
        let a = n.forward(&[1.0, 2.0, 3.0]);
        let b = n.forward(&[10.0, 20.0, 30.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn silu_and_swiglu_behave() {
        assert_eq!(silu(0.0), 0.0);
        assert!(silu(5.0) > 4.9);
        assert!(silu(-5.0) > -0.1 && silu(-5.0) < 0.0);
        let out = swiglu(&[0.0, 10.0], &[3.0, 2.0]);
        assert_eq!(out[0], 0.0);
        assert!((out[1] - 2.0 * silu(10.0)).abs() < 1e-5);
    }

    #[test]
    fn residual_add_accumulates() {
        let mut a = vec![1.0, 2.0];
        add_inplace(&mut a, &[0.5, -2.0]);
        assert_eq!(a, vec![1.5, 0.0]);
    }

    #[test]
    fn matvec_is_bit_identical_across_pool_widths() {
        // 67 x 33 exercises partial chunks; pseudo-random but deterministic weights.
        let weight: Vec<f32> =
            (0u64..67 * 33).map(|i| ((i * 2_654_435_761) % 1000) as f32 * 1e-3).collect();
        let w = Linear::new(67, 33, weight);
        let x: Vec<f32> = (0..33).map(|i| (i as f32 * 0.37).sin()).collect();
        let batch: Vec<f32> = x.iter().chain(x.iter()).copied().collect();
        let at = |n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
                .install(|| (w.forward(&x), w.forward_batch(&batch)))
        };
        let (y1, b1) = at(1);
        for width in [2, 8] {
            let (y, b) = at(width);
            // Bit-identical: chunking never reorders a row's dot product.
            assert!(y1.iter().zip(&y).all(|(a, c)| a.to_bits() == c.to_bits()));
            assert!(b1.iter().zip(&b).all(|(a, c)| a.to_bits() == c.to_bits()));
        }
    }

    #[test]
    fn tile_edges_match_serial_sum() {
        // Row counts around the 4-row tile (tails of 1-3 rows), batches spanning two full
        // 8-lane tiles plus a tail, and an all-zero input whose products are all `-0.0`
        // for negative weights: every output must equal the serial `.sum()` bit for bit.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        for (rows, cols) in [(1, 1), (3, 5), (4, 7), (9, 16), (13, 33)] {
            let weight: Vec<f32> =
                (0..rows * cols).map(|i| ((i as f32 * 0.61).sin() - 0.3) * 0.5).collect();
            let w = Linear::new(rows, cols, weight.clone());
            for batch in [1usize, 2, 7, 8, 9, 13, 16, 19] {
                let mut x: Vec<f32> = (0..batch * cols).map(|i| (i as f32 * 0.37).cos()).collect();
                x[..cols].iter_mut().for_each(|v| *v = 0.0);
                let expected: Vec<f32> = x
                    .chunks(cols)
                    .flat_map(|x_row| {
                        weight
                            .chunks(cols)
                            .map(move |row| row.iter().zip(x_row).map(|(w, v)| w * v).sum::<f32>())
                    })
                    .collect();
                let got = pool.install(|| w.forward_batch(&x));
                assert!(
                    got.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{rows}x{cols} batch {batch}"
                );
                assert_eq!(got.len(), expected.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn linear_wrong_input_panics() {
        Linear::new(2, 2, vec![0.0; 4]).forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn linear_bad_weight_len_panics() {
        let _ = Linear::new(2, 3, vec![0.0; 5]);
    }
}
