//! Layer workload extraction: geometry + measured data statistics.
//!
//! A [`LayerWorkload`] is everything an accelerator cycle/energy model needs
//! to know about one conv/FC layer: shapes and MAC counts, plus the measured
//! distributions the paper's mechanisms key on — per-chunk non-zero
//! activation counts (zero skipping, Fig 18/19), weight-chunk outlier
//! multiplicity (the outlier-MAC mechanism, Fig 17), and outlier activation
//! ratios (the outlier PE group, Fig 16).
//!
//! Extraction is a layer-parallel, single-pass scan: each layer's
//! calibration population, chunk non-zero counts and zero-quad counts come
//! out of **one** chunk-major sweep over borrowed lane views
//! ([`ola_tensor::scan::scan_chunks`]), and layers run concurrently under
//! the worker budget set by [`set_extract_jobs`]. The result is
//! byte-identical at any worker count (see [`oracle`] for the retained
//! multi-pass reference implementation the property tests compare against).

use crate::policy::{OutlierSelect, QuantPolicy};
use ola_nn::network::WeightStore;
use ola_nn::{Network, Op, Params};
use ola_quant::calibrate::{calibrate_from_scan, LayerCalibration};
use ola_quant::outlier::OutlierQuantizer;
use ola_tensor::par::ordered_map;
use ola_tensor::scan::{scan_chunks, scan_values, split_ranges};
use ola_tensor::stats::{kth_largest_magnitude, ValueScan};
use ola_tensor::{ChunkView, ChunkViews, Shape4, Tensor, CHUNK_LANES};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default worker count for workload extraction, set once by
/// the experiment engine from its `--jobs` split (mirrors
/// `ola_nn::kernels::set_forward_jobs`).
static EXTRACT_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default extraction worker count.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn set_extract_jobs(jobs: usize) {
    assert!(jobs > 0, "extraction worker count must be positive");
    EXTRACT_JOBS.store(jobs, Ordering::Relaxed);
}

/// Current process-wide default extraction worker count.
pub fn extract_jobs() -> usize {
    EXTRACT_JOBS.load(Ordering::Relaxed)
}

/// Whether a layer is convolutional or fully connected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// Fully connected (treated as a 1x1 convolution over a 1x1 input).
    Fc,
}

/// Everything the accelerator models need to know about one layer.
#[derive(Clone, Debug)]
pub struct LayerWorkload {
    /// Layer name from the network graph.
    pub name: String,
    /// Index among compute layers (0 = first conv).
    pub index: usize,
    /// Conv or FC.
    pub kind: LayerKind,
    /// Input activation shape.
    pub in_shape: Shape4Ser,
    /// Output activation shape.
    pub out_shape: Shape4Ser,
    /// Kernel side length (1 for FC).
    pub kernel: usize,
    /// Exact multiply-accumulate count (padding-aware).
    pub macs: u64,
    /// Weight count.
    pub weight_count: u64,
    /// Dense weight bits under the policy (4, or 8 for special first layers).
    pub weight_bits: u32,
    /// Dense activation bits entering this layer (4, or 8/16 raw input).
    pub act_bits: u32,
    /// Fraction of zero weights (pruning).
    pub weight_zero_fraction: f64,
    /// Fraction of zero input activations.
    pub act_zero_fraction: f64,
    /// Realized outlier fraction over all weights.
    pub weight_outlier_ratio: f64,
    /// Outlier ratio among non-zero input activations.
    pub act_outlier_nonzero_ratio: f64,
    /// Outlier ratio over all input activations (Fig 16's metric).
    pub act_effective_outlier_ratio: f64,
    /// Measured non-zero count of every 16-lane input activation chunk.
    pub chunk_nnz: Vec<u8>,
    /// Per chunk, how many of its four 4-lane quads are entirely zero —
    /// each costs the zero-skip scanner one overhead cycle (§V, Fig 18).
    pub chunk_zero_quads: Vec<u8>,
    /// Fraction of 16-lane weight chunks with exactly one outlier.
    pub wchunk_single_fraction: f64,
    /// Fraction of 16-lane weight chunks with two or more outliers (these
    /// cost the extra cycle of §III-D).
    pub wchunk_multi_fraction: f64,
    /// Zero fraction of this layer's (post-ReLU, when present) output.
    pub out_zero_fraction: f64,
}

/// A plain-data `Shape4` mirror (kept separate so workload records stay
/// decoupled from `ola-tensor`'s internal shape type).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape4Ser {
    /// Batch.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl From<Shape4> for Shape4Ser {
    fn from(s: Shape4) -> Self {
        Shape4Ser {
            n: s.n,
            c: s.c,
            h: s.h,
            w: s.w,
        }
    }
}

impl Shape4Ser {
    /// Total elements.
    pub fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl LayerWorkload {
    /// Input channel chunks per spatial position.
    pub fn cin_chunks(&self) -> u64 {
        (self.in_shape.c as u64).div_ceil(CHUNK_LANES as u64)
    }

    /// Output-channel groups of 16.
    pub fn oc_groups(&self) -> u64 {
        (self.out_shape.c as u64).div_ceil(CHUNK_LANES as u64)
    }

    /// Number of PE-group work units: one unit = one activation chunk
    /// processed against one 16-output-channel weight column at one kernel
    /// offset. Derived from the exact MAC count so zero-padding at tensor
    /// edges is respected.
    pub fn group_units(&self) -> u64 {
        let per_pair = self.macs as f64 / (self.in_shape.c as f64 * self.out_shape.c as f64);
        (per_pair * self.cin_chunks() as f64 * self.oc_groups() as f64).round() as u64
    }

    /// Total input activations.
    pub fn act_count(&self) -> u64 {
        self.in_shape.len() as u64
    }

    /// Total output activations.
    pub fn out_count(&self) -> u64 {
        self.out_shape.len() as u64
    }

    /// Count of outlier input activations.
    pub fn outlier_act_count(&self) -> u64 {
        (self.act_effective_outlier_ratio * self.act_count() as f64).round() as u64
    }

    /// Mean non-zero lanes per activation chunk.
    pub fn mean_chunk_nnz(&self) -> f64 {
        if self.chunk_nnz.is_empty() {
            return 0.0;
        }
        self.chunk_nnz.iter().map(|&v| v as f64).sum::<f64>() / self.chunk_nnz.len() as f64
    }

    /// Whether this layer runs the high-precision first-layer path.
    pub fn is_first(&self) -> bool {
        self.index == 0
    }

    /// Content fingerprint over every field, floats by exact bit pattern —
    /// the per-layer half of a [`crate::simcache::SimCache`] key. Two
    /// workloads share a fingerprint iff they are [`bitwise_eq`]
    /// (`LayerWorkload::bitwise_eq`) up to FNV collisions, so a memoized
    /// simulation result can never be served for a bit-different layer.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = ola_tensor::memo::Fingerprint::new();
        fp.str(&self.name).usize(self.index).u8(match self.kind {
            LayerKind::Conv => 0,
            LayerKind::Fc => 1,
        });
        for s in [&self.in_shape, &self.out_shape] {
            fp.usize(s.n).usize(s.c).usize(s.h).usize(s.w);
        }
        fp.usize(self.kernel)
            .u64(self.macs)
            .u64(self.weight_count)
            .u32(self.weight_bits)
            .u32(self.act_bits)
            .f64(self.weight_zero_fraction)
            .f64(self.act_zero_fraction)
            .f64(self.weight_outlier_ratio)
            .f64(self.act_outlier_nonzero_ratio)
            .f64(self.act_effective_outlier_ratio)
            .bytes(&self.chunk_nnz)
            .bytes(&self.chunk_zero_quads)
            .f64(self.wchunk_single_fraction)
            .f64(self.wchunk_multi_fraction)
            .f64(self.out_zero_fraction);
        fp.finish()
    }

    /// Field-by-field equality with floats compared by bit pattern — the
    /// determinism contract parallel extraction is held to.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.index == other.index
            && self.kind == other.kind
            && self.in_shape == other.in_shape
            && self.out_shape == other.out_shape
            && self.kernel == other.kernel
            && self.macs == other.macs
            && self.weight_count == other.weight_count
            && self.weight_bits == other.weight_bits
            && self.act_bits == other.act_bits
            && self.weight_zero_fraction.to_bits() == other.weight_zero_fraction.to_bits()
            && self.act_zero_fraction.to_bits() == other.act_zero_fraction.to_bits()
            && self.weight_outlier_ratio.to_bits() == other.weight_outlier_ratio.to_bits()
            && self.act_outlier_nonzero_ratio.to_bits() == other.act_outlier_nonzero_ratio.to_bits()
            && self.act_effective_outlier_ratio.to_bits()
                == other.act_effective_outlier_ratio.to_bits()
            && self.chunk_nnz == other.chunk_nnz
            && self.chunk_zero_quads == other.chunk_zero_quads
            && self.wchunk_single_fraction.to_bits() == other.wchunk_single_fraction.to_bits()
            && self.wchunk_multi_fraction.to_bits() == other.wchunk_multi_fraction.to_bits()
            && self.out_zero_fraction.to_bits() == other.out_zero_fraction.to_bits()
    }
}

/// All compute-layer workloads of one network under one policy.
#[derive(Clone, Debug)]
pub struct WorkloadSet {
    /// Network name.
    pub network: String,
    /// The policy the workloads were extracted under.
    pub policy: QuantPolicy,
    /// Per-layer workloads in forward order.
    pub layers: Vec<LayerWorkload>,
}

impl WorkloadSet {
    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Conv layers only (the subset Figs 18/19 plot).
    pub fn conv_layers(&self) -> impl Iterator<Item = &LayerWorkload> {
        self.layers.iter().filter(|l| l.kind == LayerKind::Conv)
    }

    /// Bit-pattern equality of every field of every layer (see
    /// [`LayerWorkload::bitwise_eq`]).
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.network == other.network
            && self.policy == other.policy
            && self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(&other.layers)
                .all(|(a, b)| a.bitwise_eq(b))
    }
}

/// Extracts workloads by running `input` through the network, calibrating
/// activation outlier thresholds on that same run, and measuring weight /
/// activation statistics per compute layer.
pub fn extract(
    net: &Network,
    params: &Params,
    input: &Tensor,
    policy: &QuantPolicy,
) -> WorkloadSet {
    let outs = net.forward(params, input);
    extract_from_acts(net, params, &outs, policy)
}

/// Like [`extract`], but reuses an existing forward pass — the expensive
/// part — so several policies (16-bit and 8-bit modes, outlier-ratio
/// sweeps) can share it. Runs under the worker budget set by
/// [`set_extract_jobs`].
pub fn extract_from_acts(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
) -> WorkloadSet {
    extract_from_acts_jobs(net, params, outs, policy, extract_jobs())
}

/// [`extract_from_acts`] with an explicit worker budget: up to `jobs`
/// layers extract concurrently, and any leftover budget splits the scans
/// *within* a layer across chunk ranges. Byte-identical output at any
/// `jobs` value.
///
/// # Panics
///
/// Panics if `jobs` is zero.
pub fn extract_from_acts_jobs(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
    jobs: usize,
) -> WorkloadSet {
    assert!(jobs > 0, "extraction needs at least one worker");
    let shapes = net.shapes();
    let compute = net.compute_nodes();
    let outer = jobs.min(compute.len().max(1));
    let inner = (jobs / outer).max(1);
    let layers = ordered_map(&compute, outer, |index, &node| {
        extract_layer(net, params, outs, policy, &shapes, index, node, inner)
    });
    WorkloadSet {
        network: net.name().to_string(),
        policy: *policy,
        layers,
    }
}

/// Extracts one compute layer's workload: a single fused sweep over the
/// input activations (calibration population + chunk non-zero counts +
/// zero quads in one pass), a two-pass fused weight scan, and the output
/// zero fraction.
#[allow(clippy::too_many_arguments)]
fn extract_layer(
    net: &Network,
    params: &Params,
    outs: &[Tensor],
    policy: &QuantPolicy,
    shapes: &[Shape4],
    index: usize,
    node: usize,
    jobs: usize,
) -> LayerWorkload {
    let n = &net.nodes()[node];
    let src = n.inputs[0];
    let act = &outs[src];
    let (kind, kernel, macs, weight_count) = match n.op {
        Op::Conv(spec) => {
            let i = act.shape();
            (
                LayerKind::Conv,
                spec.geometry.kernel,
                spec.macs(i.h, i.w),
                spec.weight_count(),
            )
        }
        Op::Linear(spec) => (LayerKind::Fc, 1, spec.macs(), spec.weight_count()),
        _ => unreachable!("compute_nodes returns only conv/linear"),
    };

    // --- input activation statistics: one fused chunk-major pass ---
    // Every element sits in exactly one chunk, so the sweep's ValueScan is
    // the full calibration population; the calibration quantities are
    // order-independent reductions, so chunk-major order gives the same
    // result as the historical element-order pass.
    let views = ChunkViews::activations(act, CHUNK_LANES);
    let mut chunks = scan_chunks(&views, jobs);
    let cal: LayerCalibration = match policy.select {
        // The magnitude path is the pre-policy pipeline, untouched: the
        // existing goldens are byte-for-byte regression baselines for it.
        OutlierSelect::MagnitudePercentile => {
            calibrate_from_scan(node, &mut chunks.values, policy.outlier_ratio)
        }
        select => calibrate_grid(
            node,
            &views,
            &chunks.values,
            policy.outlier_ratio,
            select,
            jobs,
        ),
    };

    // --- weight statistics ---
    let wstats = weight_chunk_stats(params, node, policy.outlier_ratio, policy.select, jobs);

    // --- output zero fraction: use the post-ReLU view when a ReLU (or
    //     BN+ReLU chain) directly consumes this node ---
    let out_zero_fraction = post_activation_zero_fraction(net, outs, node);

    let in_shape: Shape4 = if kind == LayerKind::Fc {
        // FC consumes a flattened input: model as C = features, 1x1.
        let s = act.shape();
        Shape4::new(s.n, s.c * s.h * s.w, 1, 1)
    } else {
        act.shape()
    };
    let out_shape: Shape4 = shapes[node];

    LayerWorkload {
        name: n.name.clone(),
        index,
        kind,
        in_shape: in_shape.into(),
        out_shape: out_shape.into(),
        kernel,
        macs,
        weight_count: weight_count as u64,
        weight_bits: policy.weight_bits(index),
        act_bits: policy.act_bits(index),
        weight_zero_fraction: wstats.zero_fraction,
        act_zero_fraction: cal.zero_fraction,
        weight_outlier_ratio: wstats.outlier_ratio,
        act_outlier_nonzero_ratio: cal.nonzero_outlier_ratio,
        act_effective_outlier_ratio: cal.effective_outlier_ratio,
        chunk_nnz: chunks.nnz,
        chunk_zero_quads: chunks.zero_quads,
        wchunk_single_fraction: wstats.single_fraction,
        wchunk_multi_fraction: wstats.multi_fraction,
        out_zero_fraction,
    }
}

/// Zero fraction of a node's output after any immediately-following
/// BatchNorm/ReLU chain (what actually gets written back / consumed).
fn post_activation_zero_fraction(net: &Network, outs: &[Tensor], node: usize) -> f64 {
    let mut cur = node;
    loop {
        let next = (cur + 1..net.nodes().len()).find(|&i| {
            net.nodes()[i].inputs.contains(&cur)
                && matches!(net.nodes()[i].op, Op::ReLU | Op::BatchNorm)
        });
        match next {
            Some(i) => {
                cur = i;
                if matches!(net.nodes()[i].op, Op::ReLU) {
                    return outs[i].zero_fraction();
                }
            }
            None => return outs[cur].zero_fraction(),
        }
    }
}

/// Weight-grid statistics one extraction pass measures: zero fraction,
/// realized outlier ratio, and per-16-lane-chunk outlier multiplicity.
/// Public (with the [`grid_chunk_stats`] entry point) so the differential
/// policy tests can drive the production sweep on raw grids at any worker
/// count.
#[derive(Clone, Copy, Debug)]
pub struct WeightChunkStats {
    /// Fraction of exactly-zero weights.
    pub zero_fraction: f64,
    /// Outliers over all weights (zeros included).
    pub outlier_ratio: f64,
    /// Fraction of chunks with exactly one outlier.
    pub single_fraction: f64,
    /// Fraction of chunks with two or more outliers.
    pub multi_fraction: f64,
}

/// Measures weight zero fraction, outlier ratio and per-16-lane-chunk
/// outlier multiplicity. Chunks group 16 *output channels* at a fixed input
/// channel / kernel offset (§III-B).
///
/// Two fused passes: one [`ValueScan`] for the quantizer fit, then one
/// chunk sweep counting zeros, outliers and per-chunk multiplicity
/// together (the historical path walked the weights four times).
fn weight_chunk_stats(
    params: &Params,
    node: usize,
    ratio: f64,
    select: OutlierSelect,
    jobs: usize,
) -> WeightChunkStats {
    match params
        .weights(node)
        .expect("compute node must have weights")
    {
        WeightStore::Dense(w) => {
            let values = w.as_slice();
            let s = w.shape();
            // Conv weights are (Co, Ci, K, K); FC dense weights are
            // (1, 1, rows=Co, cols=Ci). Normalize to (co, inner). Only a
            // genuinely 2-D store is an FC matrix — a single-output-channel
            // conv also has n == 1 but carries its fan-in in c.
            let (co, inner) = if s.n == 1 && s.c == 1 {
                (s.h, s.w)
            } else {
                (s.n, s.c * s.h * s.w)
            };
            grid_chunk_stats(values, co, inner, ratio, select, jobs)
        }
        WeightStore::RowGen(g) => match select {
            // Magnitude keeps its historical split: a 64-row sample fits
            // the quantizer, 32 banded rows feed the chunk sweep.
            OutlierSelect::MagnitudePercentile => {
                let sample = g.sample_values(64);
                let mut scan = scan_values(&sample, jobs);
                let quant = fit_from_scan(&mut scan, ratio);
                let rows = g.rows().min(32);
                let mut values = Vec::with_capacity(rows * g.cols());
                for r in 0..rows {
                    values.extend(g.row(r));
                }
                chunk_stats_fused(&values, rows, g.cols(), quant.as_ref(), jobs)
            }
            // The structured policies calibrate on the banded rows they
            // chunk (windowed needs no calibration at all; sensitivity's
            // window RMS only exists on the grid it scores, so a separate
            // row sample would be meaningless).
            _ => {
                let rows = g.rows().min(32);
                let mut values = Vec::with_capacity(rows * g.cols());
                for r in 0..rows {
                    values.extend(g.row(r));
                }
                grid_chunk_stats(&values, rows, g.cols(), ratio, select, jobs)
            }
        },
    }
}

/// Chunk statistics of a `(co, inner)` weight grid under any
/// outlier-selection policy, split across `jobs` workers. `ratio` is the
/// paper's fraction of *total* weights (zeros included); structured
/// policies rescale it to the non-zero population exactly as the magnitude
/// fit does. Byte-identical at any `jobs` value.
pub fn grid_chunk_stats(
    values: &[f32],
    co: usize,
    inner: usize,
    ratio: f64,
    select: OutlierSelect,
    jobs: usize,
) -> WeightChunkStats {
    match select {
        OutlierSelect::MagnitudePercentile => {
            let mut scan = scan_values(values, jobs);
            let quant = fit_from_scan(&mut scan, ratio);
            chunk_stats_fused(values, co, inner, quant.as_ref(), jobs)
        }
        OutlierSelect::WindowedTopK { window } => {
            let views = ChunkViews::matrix(values, co, inner, CHUNK_LANES);
            let rule = (ratio > 0.0).then_some(GridRule::Windowed { window });
            let counts = grid_rule_counts(&views, rule, jobs);
            counts_to_stats(counts, values.len(), views.len())
        }
        OutlierSelect::SensitivityWeighted { window } => {
            let views = ChunkViews::matrix(values, co, inner, CHUNK_LANES);
            let rule = if ratio > 0.0 {
                let mut scores = sensitivity_scores(&views, window, jobs);
                if scores.is_empty() {
                    None
                } else {
                    let nonzero_ratio =
                        (ratio * values.len() as f64 / scores.len() as f64).min(1.0);
                    let k = ((scores.len() as f64 * nonzero_ratio).ceil() as usize)
                        .clamp(1, scores.len());
                    let threshold = kth_largest_magnitude(&mut scores, k);
                    Some(GridRule::Sensitivity { window, threshold })
                }
            } else {
                None
            };
            let counts = grid_rule_counts(&views, rule, jobs);
            counts_to_stats(counts, values.len(), views.len())
        }
    }
}

/// A grid classification rule resolved to per-chunk form: calibration is
/// done, so classifying a chunk needs no global state beyond the threshold.
#[derive(Clone, Copy)]
enum GridRule {
    /// Top-1 per `window` lanes of each chunk.
    Windowed { window: usize },
    /// `|v| * rms(window)` against a calibrated score threshold.
    Sensitivity { window: usize, threshold: f32 },
}

/// Activation calibration for the structured (non-magnitude) policies over
/// the same chunk views the fused scan walked. Windows tile each chunk's
/// *real* lanes (zero-padded tails never vote), matching the weight grid's
/// chunk-local windows.
fn calibrate_grid(
    node: usize,
    views: &ChunkViews,
    scan: &ValueScan,
    ratio: f64,
    select: OutlierSelect,
    jobs: usize,
) -> LayerCalibration {
    let total = scan.total().max(1);
    let nonzero = scan.nonzero();
    let (threshold, outliers) = match select {
        OutlierSelect::MagnitudePercentile => unreachable!("magnitude uses calibrate_from_scan"),
        OutlierSelect::WindowedTopK { window } => {
            let rule = (ratio > 0.0).then_some(GridRule::Windowed { window });
            let (_, outliers, _, _) = grid_rule_counts(views, rule, jobs);
            // Window-local selection has no scalar threshold.
            (f32::INFINITY, outliers)
        }
        OutlierSelect::SensitivityWeighted { window } => {
            if ratio <= 0.0 || nonzero == 0 {
                (f32::INFINITY, 0)
            } else {
                // Activation ratios are fractions of the non-zero
                // population (the paper's calibration target), so no
                // rescale — unlike the weight grid.
                let mut scores = sensitivity_scores(views, window, jobs);
                let k = ((scores.len() as f64 * ratio).ceil() as usize).clamp(1, scores.len());
                let threshold = kth_largest_magnitude(&mut scores, k);
                let rule = GridRule::Sensitivity { window, threshold };
                let (_, outliers, _, _) = grid_rule_counts(views, Some(rule), jobs);
                (threshold, outliers)
            }
        }
    };
    LayerCalibration {
        node,
        threshold,
        abs_max: if scan.abs_max() > 0.0 {
            scan.abs_max()
        } else {
            1.0
        },
        nonzero_outlier_ratio: if nonzero == 0 {
            0.0
        } else {
            outliers as f64 / nonzero as f64
        },
        effective_outlier_ratio: outliers as f64 / total as f64,
        zero_fraction: scan.zero_fraction(),
    }
}

/// Sensitivity scores (`|v| * rms(window)`) of every non-zero lane, in
/// chunk-major lane order. The RMS accumulates in lane order with a fixed
/// f32 sum, and parts concatenate in range order, so the result is
/// byte-identical at any `jobs` value (and the k-th order statistic taken
/// from it is permutation-independent under `total_cmp` regardless).
fn sensitivity_scores(views: &ChunkViews, window: usize, jobs: usize) -> Vec<f32> {
    assert!(window >= 1, "window must be at least 1");
    let ranges = split_ranges(views.len(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut scores = Vec::new();
        for idx in range.clone() {
            let view = views.get(idx);
            let real = view.real_lanes();
            let mut w0 = 0;
            while w0 < real {
                let end = (w0 + window).min(real);
                let rms = lane_window_rms(&view, w0, end);
                for lane in w0..end {
                    let v = view.lane(lane);
                    if v != 0.0 {
                        scores.push(v.abs() * rms);
                    }
                }
                w0 = end;
            }
        }
        scores
    });
    let mut all = Vec::new();
    for part in parts {
        all.extend(part);
    }
    all
}

/// RMS of a chunk's lanes `[w0, end)`, zeros included, fixed lane-order
/// f32 accumulation.
fn lane_window_rms(view: &ChunkView<'_>, w0: usize, end: usize) -> f32 {
    let mut sum_sq = 0.0_f32;
    for lane in w0..end {
        let v = view.lane(lane);
        sum_sq += v * v;
    }
    (sum_sq / (end - w0) as f32).sqrt()
}

/// One parallel sweep over a chunk grid under a resolved [`GridRule`]:
/// `(zeros, outliers, single-outlier chunks, multi-outlier chunks)`. All
/// four are order-independent count reductions, so any range split is
/// exact. `rule == None` means outliers are disabled (zeros still count).
fn grid_rule_counts(
    views: &ChunkViews,
    rule: Option<GridRule>,
    jobs: usize,
) -> (u64, u64, u64, u64) {
    if let Some(GridRule::Windowed { window } | GridRule::Sensitivity { window, .. }) = rule {
        assert!(window >= 1, "window must be at least 1");
    }
    let ranges = split_ranges(views.len(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut zeros = 0u64;
        let mut outliers = 0u64;
        let mut single = 0u64;
        let mut multi = 0u64;
        for idx in range.clone() {
            let view = views.get(idx);
            let real = view.real_lanes();
            for lane in 0..real {
                if view.lane(lane) == 0.0 {
                    zeros += 1;
                }
            }
            let mut count = 0u32;
            match rule {
                None => {}
                Some(GridRule::Windowed { window }) => {
                    let mut w0 = 0;
                    while w0 < real {
                        let end = (w0 + window).min(real);
                        if (w0..end).any(|lane| view.lane(lane) != 0.0) {
                            count += 1;
                        }
                        w0 = end;
                    }
                }
                Some(GridRule::Sensitivity { window, threshold }) => {
                    let mut w0 = 0;
                    while w0 < real {
                        let end = (w0 + window).min(real);
                        let rms = lane_window_rms(&view, w0, end);
                        for lane in w0..end {
                            let v = view.lane(lane);
                            if v != 0.0 && (v.abs() * rms).total_cmp(&threshold).is_ge() {
                                count += 1;
                            }
                        }
                        w0 = end;
                    }
                }
            }
            outliers += u64::from(count);
            match count {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
        }
        (zeros, outliers, single, multi)
    });
    parts.into_iter().fold((0u64, 0u64, 0u64, 0u64), |a, p| {
        (a.0 + p.0, a.1 + p.1, a.2 + p.2, a.3 + p.3)
    })
}

/// Folds raw grid counts into the fraction form the models consume.
fn counts_to_stats(counts: (u64, u64, u64, u64), total: usize, chunks: usize) -> WeightChunkStats {
    let (zeros, outliers, single, multi) = counts;
    let total = total.max(1);
    let chunks = (chunks as u64).max(1);
    WeightChunkStats {
        zero_fraction: zeros as f64 / total as f64,
        outlier_ratio: outliers as f64 / total as f64,
        single_fraction: single as f64 / chunks as f64,
        multi_fraction: multi as f64 / chunks as f64,
    }
}

/// Fits the weight outlier quantizer from an already-computed statistics
/// scan. The paper's weight outlier ratio is a fraction of *total* weights
/// (zeros included), so the fit over the non-zero population uses
/// `ratio / (1 - zero_fraction)`.
///
/// Decomposes `OutlierQuantizer::fit` over the filtered non-zero slice
/// exactly: the fit's max-fold equals the scan's [`ValueScan::abs_max`]
/// and its threshold selection equals [`ValueScan::threshold`] over the
/// same non-zero magnitudes.
fn fit_from_scan(scan: &mut ValueScan, ratio: f64) -> Option<OutlierQuantizer> {
    if ratio <= 0.0 || scan.nonzero() == 0 {
        return None;
    }
    let nonzero_ratio = (ratio * scan.total() as f64 / scan.nonzero() as f64).min(1.0);
    let threshold = scan.threshold(nonzero_ratio);
    Some(OutlierQuantizer::with_threshold(
        threshold,
        scan.abs_max(),
        nonzero_ratio,
        4,
        8,
    ))
}

/// One fused sweep over the weight chunk grid: zeros, outliers, and
/// per-chunk outlier multiplicity, split across `jobs` workers over
/// contiguous chunk ranges (all four quantities are order-independent
/// count reductions, so any split is exact).
fn chunk_stats_fused(
    values: &[f32],
    co: usize,
    inner: usize,
    quant: Option<&OutlierQuantizer>,
    jobs: usize,
) -> WeightChunkStats {
    let views = ChunkViews::matrix(values, co, inner, CHUNK_LANES);
    let ranges = split_ranges(views.len(), jobs);
    let parts = ordered_map(&ranges, jobs, |_, range| {
        let mut zeros = 0u64;
        let mut outliers = 0u64;
        let mut single = 0u64;
        let mut multi = 0u64;
        for idx in range.clone() {
            let view = views.get(idx);
            let mut count = 0u32;
            for lane in 0..view.real_lanes() {
                let v = view.lane(lane);
                if v == 0.0 {
                    zeros += 1;
                } else if quant.map(|q| q.is_outlier(v)) == Some(true) {
                    count += 1;
                }
            }
            outliers += u64::from(count);
            match count {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
        }
        (zeros, outliers, single, multi)
    });
    let (zeros, outliers, single, multi) =
        parts.into_iter().fold((0u64, 0u64, 0u64, 0u64), |a, p| {
            (a.0 + p.0, a.1 + p.1, a.2 + p.2, a.3 + p.3)
        });
    let total = values.len().max(1);
    let chunks = views.len() as u64;
    WeightChunkStats {
        zero_fraction: zeros as f64 / total as f64,
        outlier_ratio: outliers as f64 / total as f64,
        single_fraction: single as f64 / chunks.max(1) as f64,
        multi_fraction: multi as f64 / chunks.max(1) as f64,
    }
}

/// The pre-fusion multi-pass extraction pipeline, retained verbatim as the
/// oracle the property tests and benchmarks compare the fused path
/// against: serial per-layer loop, owning [`ChannelChunks`] iterator, a
/// full descending sort for every threshold, and separate walks for the
/// zero count, the outlier count and the chunk sweep.
pub mod oracle {
    use super::{
        post_activation_zero_fraction, LayerKind, LayerWorkload, OutlierSelect, QuantPolicy,
        WeightChunkStats, WorkloadSet,
    };
    use ola_nn::network::WeightStore;
    use ola_nn::{Network, Op, Params};
    use ola_quant::calibrate::LayerCalibration;
    use ola_quant::outlier::OutlierQuantizer;
    use ola_tensor::{ChannelChunks, ChunkViews, Shape4, Tensor, CHUNK_LANES};

    /// Full-sort threshold over the top-`ratio` magnitude fraction — the
    /// historical O(n log n) implementation of
    /// `ola_tensor::stats::magnitude_threshold`.
    fn magnitude_threshold_sorted(values: &[f32], ratio: f64) -> f32 {
        assert!((0.0..=1.0).contains(&ratio), "ratio must be in [0,1]");
        if ratio == 0.0 || values.is_empty() {
            return f32::INFINITY;
        }
        let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| b.total_cmp(a));
        let k = ((values.len() as f64 * ratio).ceil() as usize).clamp(1, values.len());
        mags[k - 1]
    }

    /// The historical multi-pass `calibrate_values`: filter, fold, sort,
    /// re-count.
    fn calibrate_values_multi_pass(node: usize, values: &[f32], ratio: f64) -> LayerCalibration {
        let total = values.len().max(1);
        let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
        let zero_fraction = 1.0 - nonzero.len() as f64 / total as f64;
        let abs_max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let threshold = if nonzero.is_empty() {
            f32::INFINITY
        } else {
            magnitude_threshold_sorted(&nonzero, ratio)
        };
        let outliers = nonzero.iter().filter(|&&v| v.abs() >= threshold).count();
        let nonzero_outlier_ratio = if nonzero.is_empty() {
            0.0
        } else {
            outliers as f64 / nonzero.len() as f64
        };
        LayerCalibration {
            node,
            threshold,
            abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
            nonzero_outlier_ratio,
            effective_outlier_ratio: outliers as f64 / total as f64,
            zero_fraction,
        }
    }

    fn fit_or_none(values: &[f32], ratio: f64) -> Option<OutlierQuantizer> {
        if ratio <= 0.0 {
            return None;
        }
        let nonzero: Vec<f32> = values.iter().copied().filter(|&v| v != 0.0).collect();
        if nonzero.is_empty() {
            return None;
        }
        let nonzero_ratio = (ratio * values.len() as f64 / nonzero.len() as f64).min(1.0);
        let max = nonzero.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let threshold = magnitude_threshold_sorted(&nonzero, nonzero_ratio);
        Some(OutlierQuantizer::with_threshold(
            threshold,
            max,
            nonzero_ratio,
            4,
            8,
        ))
    }

    fn weight_chunk_stats(params: &Params, node: usize, ratio: f64) -> WeightChunkStats {
        match params
            .weights(node)
            .expect("compute node must have weights")
        {
            WeightStore::Dense(w) => {
                let values = w.as_slice();
                let quant = fit_or_none(values, ratio);
                let s = w.shape();
                let (co, inner) = if s.n == 1 && s.c == 1 {
                    (s.h, s.w)
                } else {
                    (s.n, s.c * s.h * s.w)
                };
                chunk_stats_from(values, co, inner, quant.as_ref())
            }
            WeightStore::RowGen(g) => {
                let sample = g.sample_values(64);
                let quant = fit_or_none(&sample, ratio);
                let rows = g.rows().min(32);
                let mut values = Vec::with_capacity(rows * g.cols());
                for r in 0..rows {
                    values.extend(g.row(r));
                }
                chunk_stats_from(&values, rows, g.cols(), quant.as_ref())
            }
        }
    }

    fn chunk_stats_from(
        values: &[f32],
        co: usize,
        inner: usize,
        quant: Option<&OutlierQuantizer>,
    ) -> WeightChunkStats {
        let total = values.len().max(1);
        let zeros = values.iter().filter(|&&v| v == 0.0).count();
        let is_outlier =
            |v: f32| -> bool { v != 0.0 && quant.map(|q| q.is_outlier(v)) == Some(true) };
        let outliers = values.iter().filter(|&&v| is_outlier(v)).count();

        let mut chunks = 0u64;
        let mut single = 0u64;
        let mut multi = 0u64;
        for co0 in (0..co).step_by(CHUNK_LANES) {
            let lanes = (co - co0).min(CHUNK_LANES);
            for i in 0..inner {
                let mut count = 0u32;
                for lane in 0..lanes {
                    let v = values[(co0 + lane) * inner + i];
                    if is_outlier(v) {
                        count += 1;
                    }
                }
                chunks += 1;
                match count {
                    0 => {}
                    1 => single += 1,
                    _ => multi += 1,
                }
            }
        }
        WeightChunkStats {
            zero_fraction: zeros as f64 / total as f64,
            outlier_ratio: outliers as f64 / total as f64,
            single_fraction: single as f64 / chunks.max(1) as f64,
            multi_fraction: multi as f64 / chunks.max(1) as f64,
        }
    }

    /// Serial reference classification of one chunk grid under a
    /// structured (non-magnitude) policy, written independently of the
    /// fused sweep: windows are materialized per chunk, sensitivity
    /// thresholds come from a full descending sort, and every count is a
    /// plain serial loop. Returns `(zeros, outliers, single, multi)`.
    ///
    /// `ratio_of_total` selects the weight-grid convention (the target is
    /// a fraction of all values, rescaled to the non-zero population)
    /// versus the activation convention (the target is already a fraction
    /// of non-zeros).
    fn grid_counts_naive(
        views: &ChunkViews<'_>,
        ratio: f64,
        select: OutlierSelect,
        ratio_of_total: bool,
        total: usize,
    ) -> (u64, u64, u64, u64) {
        let windows_of = |idx: usize| -> Vec<Vec<f32>> {
            let window = match select {
                OutlierSelect::WindowedTopK { window }
                | OutlierSelect::SensitivityWeighted { window } => window,
                OutlierSelect::MagnitudePercentile => {
                    unreachable!("magnitude has its own oracle arm")
                }
            };
            let view = views.get(idx);
            let real = view.real_lanes();
            let mut out = Vec::new();
            let mut w0 = 0;
            while w0 < real {
                let end = (w0 + window).min(real);
                out.push((w0..end).map(|lane| view.lane(lane)).collect());
                w0 = end;
            }
            out
        };
        let rms =
            |w: &[f32]| -> f32 { (w.iter().map(|&v| v * v).sum::<f32>() / w.len() as f32).sqrt() };

        // Calibration: a sensitivity threshold needs all scores up front.
        let threshold = if let OutlierSelect::SensitivityWeighted { .. } = select {
            let mut scores = Vec::new();
            for idx in 0..views.len() {
                for w in windows_of(idx) {
                    let r = rms(&w);
                    scores.extend(w.iter().filter(|&&v| v != 0.0).map(|&v| v.abs() * r));
                }
            }
            if ratio <= 0.0 || scores.is_empty() {
                f32::INFINITY
            } else {
                let eff = if ratio_of_total {
                    (ratio * total as f64 / scores.len() as f64).min(1.0)
                } else {
                    ratio
                };
                let k = ((scores.len() as f64 * eff).ceil() as usize).clamp(1, scores.len());
                scores.sort_by(|a, b| b.total_cmp(a));
                scores[k - 1]
            }
        } else {
            f32::INFINITY
        };

        let mut zeros = 0u64;
        let mut outliers = 0u64;
        let mut single = 0u64;
        let mut multi = 0u64;
        for idx in 0..views.len() {
            let view = views.get(idx);
            for lane in 0..view.real_lanes() {
                if view.lane(lane) == 0.0 {
                    zeros += 1;
                }
            }
            let mut count = 0u32;
            for w in windows_of(idx) {
                match select {
                    OutlierSelect::WindowedTopK { .. } => {
                        if ratio > 0.0 && w.iter().any(|&v| v != 0.0) {
                            count += 1;
                        }
                    }
                    OutlierSelect::SensitivityWeighted { .. } => {
                        let r = rms(&w);
                        count += w
                            .iter()
                            .filter(|&&v| v != 0.0 && (v.abs() * r).total_cmp(&threshold).is_ge())
                            .count() as u32;
                    }
                    OutlierSelect::MagnitudePercentile => unreachable!(),
                }
            }
            outliers += u64::from(count);
            match count {
                0 => {}
                1 => single += 1,
                _ => multi += 1,
            }
        }
        (zeros, outliers, single, multi)
    }

    /// Naive serial activation calibration for the structured policies.
    fn calibrate_policy_naive(
        node: usize,
        act: &Tensor,
        ratio: f64,
        select: OutlierSelect,
    ) -> LayerCalibration {
        let values = act.as_slice();
        let total = values.len().max(1);
        let nonzero = values.iter().filter(|&&v| v != 0.0).count();
        let abs_max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
        let views = ChunkViews::activations(act, CHUNK_LANES);
        let (_, outliers, _, _) = grid_counts_naive(&views, ratio, select, false, total);
        LayerCalibration {
            node,
            // Structured policies carry no scalar magnitude threshold; the
            // sensitivity score threshold is internal to the count above.
            threshold: f32::INFINITY,
            abs_max: if abs_max > 0.0 { abs_max } else { 1.0 },
            nonzero_outlier_ratio: if nonzero == 0 {
                0.0
            } else {
                outliers as f64 / nonzero as f64
            },
            effective_outlier_ratio: outliers as f64 / total as f64,
            zero_fraction: 1.0 - nonzero as f64 / total as f64,
        }
    }

    /// Naive serial weight-grid statistics for the structured policies
    /// (same banded-row treatment of generated weights as production).
    fn weight_stats_naive(
        params: &Params,
        node: usize,
        ratio: f64,
        select: OutlierSelect,
    ) -> WeightChunkStats {
        let (values, co, inner): (Vec<f32>, usize, usize) = match params
            .weights(node)
            .expect("compute node must have weights")
        {
            WeightStore::Dense(w) => {
                let s = w.shape();
                let (co, inner) = if s.n == 1 && s.c == 1 {
                    (s.h, s.w)
                } else {
                    (s.n, s.c * s.h * s.w)
                };
                (w.as_slice().to_vec(), co, inner)
            }
            WeightStore::RowGen(g) => {
                let rows = g.rows().min(32);
                let mut values = Vec::with_capacity(rows * g.cols());
                for r in 0..rows {
                    values.extend(g.row(r));
                }
                (values, rows, g.cols())
            }
        };
        let views = ChunkViews::matrix(&values, co, inner, CHUNK_LANES);
        let (zeros, outliers, single, multi) =
            grid_counts_naive(&views, ratio, select, true, values.len());
        let total = values.len().max(1);
        let chunks = (views.len() as u64).max(1);
        WeightChunkStats {
            zero_fraction: zeros as f64 / total as f64,
            outlier_ratio: outliers as f64 / total as f64,
            single_fraction: single as f64 / chunks as f64,
            multi_fraction: multi as f64 / chunks as f64,
        }
    }

    /// The historical serial extraction loop: one layer at a time, each
    /// walking its activations several times.
    pub fn extract_from_acts(
        net: &Network,
        params: &Params,
        outs: &[Tensor],
        policy: &QuantPolicy,
    ) -> WorkloadSet {
        let shapes = net.shapes();
        let compute = net.compute_nodes();
        let mut layers = Vec::with_capacity(compute.len());

        for (index, &node) in compute.iter().enumerate() {
            let n = &net.nodes()[node];
            let src = n.inputs[0];
            let act = &outs[src];
            let (kind, kernel, macs, weight_count) = match n.op {
                Op::Conv(spec) => {
                    let i = act.shape();
                    (
                        LayerKind::Conv,
                        spec.geometry.kernel,
                        spec.macs(i.h, i.w),
                        spec.weight_count(),
                    )
                }
                Op::Linear(spec) => (LayerKind::Fc, 1, spec.macs(), spec.weight_count()),
                _ => unreachable!("compute_nodes returns only conv/linear"),
            };

            let cal = match policy.select {
                OutlierSelect::MagnitudePercentile => {
                    calibrate_values_multi_pass(node, act.as_slice(), policy.outlier_ratio)
                }
                select => calibrate_policy_naive(node, act, policy.outlier_ratio, select),
            };
            let mut chunk_nnz = Vec::new();
            let mut chunk_zero_quads = Vec::new();
            for c in ChannelChunks::new(act, CHUNK_LANES) {
                chunk_nnz.push(c.nonzero_count() as u8);
                let zq = c
                    .values
                    .chunks(4)
                    .filter(|quad| quad.iter().all(|&v| v == 0.0))
                    .count() as u8;
                chunk_zero_quads.push(zq);
            }

            let wstats = match policy.select {
                OutlierSelect::MagnitudePercentile => {
                    weight_chunk_stats(params, node, policy.outlier_ratio)
                }
                select => weight_stats_naive(params, node, policy.outlier_ratio, select),
            };
            let out_zero_fraction = post_activation_zero_fraction(net, outs, node);

            let in_shape: Shape4 = if kind == LayerKind::Fc {
                let s = act.shape();
                Shape4::new(s.n, s.c * s.h * s.w, 1, 1)
            } else {
                act.shape()
            };
            let out_shape: Shape4 = shapes[node];

            layers.push(LayerWorkload {
                name: n.name.clone(),
                index,
                kind,
                in_shape: in_shape.into(),
                out_shape: out_shape.into(),
                kernel,
                macs,
                weight_count: weight_count as u64,
                weight_bits: policy.weight_bits(index),
                act_bits: policy.act_bits(index),
                weight_zero_fraction: wstats.zero_fraction,
                act_zero_fraction: cal.zero_fraction,
                weight_outlier_ratio: wstats.outlier_ratio,
                act_outlier_nonzero_ratio: cal.nonzero_outlier_ratio,
                act_effective_outlier_ratio: cal.effective_outlier_ratio,
                chunk_nnz,
                chunk_zero_quads,
                wchunk_single_fraction: wstats.single_fraction,
                wchunk_multi_fraction: wstats.multi_fraction,
                out_zero_fraction,
            });
        }

        WorkloadSet {
            network: net.name().to_string(),
            policy: *policy,
            layers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_nn::synth::{synthesize_params, SynthConfig};
    use ola_nn::zoo::{self, ZooConfig};
    use ola_tensor::init::uniform_tensor;

    fn alexnet_workloads() -> WorkloadSet {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: true,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 9);
        let policy = QuantPolicy::olaccel16("alexnet");
        extract(&net, &params, &input, &policy)
    }

    #[test]
    fn fused_extraction_matches_oracle_at_any_worker_count() {
        let cfg = ZooConfig {
            spatial_scale: 8,
            include_classifier: true,
            batch: 1,
        };
        let net = zoo::alexnet(&cfg);
        let params = synthesize_params(&net, &SynthConfig::default());
        let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 9);
        let outs = net.forward(&params, &input);
        let policy = QuantPolicy::olaccel16("alexnet");
        let reference = oracle::extract_from_acts(&net, &params, &outs, &policy);
        for jobs in [1, 2, 3, 8] {
            let fused = extract_from_acts_jobs(&net, &params, &outs, &policy, jobs);
            assert!(
                fused.bitwise_eq(&reference),
                "fused extraction diverged from the multi-pass oracle at jobs={jobs}"
            );
        }
    }

    #[test]
    fn extracts_all_compute_layers() {
        let ws = alexnet_workloads();
        // 5 convs + 3 FCs.
        assert_eq!(ws.layers.len(), 8);
        assert_eq!(ws.conv_layers().count(), 5);
        assert_eq!(ws.layers[0].act_bits, 16);
        assert_eq!(ws.layers[1].act_bits, 4);
        assert!(ws.total_macs() > 0);
    }

    #[test]
    fn chunk_nnz_consistent_with_zero_fraction() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            let mean = l.mean_chunk_nnz();
            // mean nnz / lanes should roughly equal 1 - zero_fraction,
            // modulo lane padding at the channel tail.
            let dense = 1.0 - l.act_zero_fraction;
            let padded_lanes = l.cin_chunks() as f64 * 16.0 / l.in_shape.c as f64;
            let expect = dense / padded_lanes;
            assert!(
                (mean / 16.0 - expect).abs() < 0.08,
                "layer {}: mean {mean}, zero {}",
                l.name,
                l.act_zero_fraction
            );
        }
    }

    #[test]
    fn group_units_match_macs() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            // units * 16 lanes * 16 oc ~ macs (exact when C divisible by 16).
            if l.in_shape.c % 16 == 0 && l.out_shape.c % 16 == 0 {
                let reconstructed = l.group_units() * 256;
                assert_eq!(reconstructed, l.macs, "layer {}", l.name);
            }
        }
    }

    #[test]
    fn outlier_ratios_near_policy_target() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert!(
                (l.weight_outlier_ratio - 0.035).abs() < 0.02,
                "layer {} weight ratio {}",
                l.name,
                l.weight_outlier_ratio
            );
            // Effective activation ratio is at most the non-zero ratio.
            assert!(l.act_effective_outlier_ratio <= l.act_outlier_nonzero_ratio + 1e-9);
        }
    }

    #[test]
    fn weight_chunk_fractions_sane() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert!(l.wchunk_single_fraction >= 0.0 && l.wchunk_single_fraction <= 1.0);
            assert!(l.wchunk_multi_fraction >= 0.0 && l.wchunk_multi_fraction <= 1.0);
            // At ~3.5% outliers on 16 lanes, multi-outlier chunks should be
            // a minority but present.
            assert!(l.wchunk_multi_fraction < 0.4, "layer {}", l.name);
        }
        // Binomial sanity on a large conv layer: single ~ n*p*(1-p)^15.
        let l = &ws.layers[2];
        let p = l.weight_outlier_ratio;
        let expect_single = 16.0 * p * (1.0 - p).powi(15);
        assert!(
            (l.wchunk_single_fraction - expect_single).abs() < 0.1,
            "single {} vs binomial {expect_single}",
            l.wchunk_single_fraction
        );
    }

    #[test]
    fn fingerprint_tracks_bitwise_identity() {
        let ws = alexnet_workloads();
        for l in &ws.layers {
            assert_eq!(l.fingerprint(), l.clone().fingerprint());
        }
        // Any single-field change must move the fingerprint.
        let base = &ws.layers[1];
        let mut m = base.clone();
        m.macs += 1;
        assert_ne!(m.fingerprint(), base.fingerprint());
        let mut m = base.clone();
        m.act_zero_fraction = -m.act_zero_fraction;
        assert_ne!(m.fingerprint(), base.fingerprint());
        let mut m = base.clone();
        if let Some(v) = m.chunk_nnz.first_mut() {
            *v ^= 1;
        }
        assert_ne!(m.fingerprint(), base.fingerprint());
        // Distinct layers of one network are distinct keys.
        assert_ne!(ws.layers[0].fingerprint(), ws.layers[1].fingerprint());
    }

    #[test]
    fn fc_layers_modeled_as_1x1() {
        let ws = alexnet_workloads();
        let fc = ws.layers.iter().find(|l| l.kind == LayerKind::Fc).unwrap();
        assert_eq!(fc.kernel, 1);
        assert_eq!(fc.in_shape.h, 1);
        assert_eq!(fc.macs, fc.weight_count);
    }
}
