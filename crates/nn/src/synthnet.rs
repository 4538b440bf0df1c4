//! SynthNet: a small CNN trained from scratch in pure Rust, used to
//! reproduce the paper's accuracy experiments (Fig 2/3) with *measured*
//! accuracy rather than a surrogate.
//!
//! We cannot run ImageNet, so the accuracy-vs-outlier-ratio relationship is
//! demonstrated on a synthetic image-classification task (DESIGN.md §2): the
//! cliff of plain 4-bit linear quantization and the recovery with a small
//! outlier budget are properties of quantizing a *trained* network with a
//! heavy-tailed weight/activation distribution, which training here produces
//! organically (and error accumulation over four conv/fc stages amplifies).
//!
//! The architecture is fixed: conv(3->16) relu pool conv(16->32) relu pool
//! conv(32->32) relu, fc(288->64) relu, fc(64->C) over 12x12x3 inputs.
//!
//! # Seeding contract
//!
//! Dataset samples, weight initialization, and the per-epoch shuffle all
//! draw from counter-based [`Philox`] streams: sample `j` comes from stream
//! `j`, weight element `e` of layer `l` from stream `(l << 32) | e`, epoch
//! `e`'s shuffle from stream `e`. Each draw is a pure function of
//! `(seed, stream)` — independent of generation order or worker count — so
//! dataset synthesis and the per-sample minibatch gradients parallelize
//! bit-stably: [`SynthNet::train`] reduces per-sample gradients in
//! sample order at *every* worker count, making the trained weights
//! byte-identical from `--jobs 1` to `--jobs N`.

use ola_tensor::par::{jobs, ordered_map};
use rand::rngs::Philox;
use rand::Rng;

/// Stream id reserved for dataset-level draws (the common component and the
/// class prototypes); per-sample streams use the sample index, which stays
/// far below this.
const META_STREAM: u64 = 1 << 63;

/// Input side length.
pub const IMG: usize = 12;
/// Input channels.
pub const IMG_C: usize = 3;

/// A labeled synthetic dataset.
#[derive(Clone, Debug)]
pub struct SynthDataset {
    /// Flattened CHW images, each `IMG_C * IMG * IMG` long.
    pub images: Vec<Vec<f32>>,
    /// Class labels in `0..classes`.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl SynthDataset {
    /// Generates `n` samples of a `classes`-way task: each class is a random
    /// spatial prototype; samples are noisy, randomly-scaled copies.
    ///
    /// Sample `j` is a pure function of `(seed, j)` (its own Philox stream),
    /// so the dataset is bit-identical at any generation order or worker
    /// count — and a longer dataset is a strict prefix-extension of a
    /// shorter one with the same seed.
    pub fn generate(n: usize, classes: usize, seed: u64) -> Self {
        let mut meta = Philox::new(seed, META_STREAM);
        let dim = IMG_C * IMG * IMG;
        // Prototypes share a common component so classes are close together
        // and the decision boundary is tight — quantization noise then costs
        // accuracy the way it does on ImageNet-scale tasks.
        let common: Vec<f32> = (0..dim).map(|_| gauss(&mut meta)).collect();
        let prototypes: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                common
                    .iter()
                    .map(|&c| c + gauss(&mut meta) * 0.55)
                    .collect()
            })
            .collect();
        let indices: Vec<usize> = (0..n).collect();
        let samples = ordered_map(&indices, jobs(), |_, &j| {
            let mut rng = Philox::new(seed, j as u64);
            let k = rng.gen_range(0..classes);
            let scale: f32 = rng.gen_range(0.6..1.4);
            let img: Vec<f32> = prototypes[k]
                .iter()
                .map(|&p| p * scale + gauss(&mut rng) * 0.7)
                .collect();
            (img, k)
        });
        let mut images = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for (img, k) in samples {
            images.push(img);
            labels.push(k);
        }
        SynthDataset {
            images,
            labels,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

const C1: usize = 16;
const C2: usize = 32;
const C3: usize = 32;
const H1: usize = IMG; // after conv1 (pad 1)
const H2: usize = IMG / 2; // after pool1
const H3: usize = IMG / 4; // after pool2
const FLAT: usize = C3 * H3 * H3;
const FC1: usize = 64;

/// The trainable network. All weights are plain `Vec<f32>` so quantizers can
/// transform them wholesale via [`SynthNet::map_weights`].
#[derive(Clone, Debug)]
pub struct SynthNet {
    /// conv1 weights, OIHW `(C1, IMG_C, 3, 3)`.
    pub w1: Vec<f32>,
    /// conv1 bias.
    pub b1: Vec<f32>,
    /// conv2 weights `(C2, C1, 3, 3)`.
    pub w2: Vec<f32>,
    /// conv2 bias.
    pub b2: Vec<f32>,
    /// conv3 weights `(C3, C2, 3, 3)`.
    pub w3: Vec<f32>,
    /// conv3 bias.
    pub b3: Vec<f32>,
    /// fc1 weights, row-major `(FC1, FLAT)`.
    pub w4: Vec<f32>,
    /// fc1 bias.
    pub b4: Vec<f32>,
    /// fc2 weights `(classes, FC1)`.
    pub w5: Vec<f32>,
    /// fc2 bias.
    pub b5: Vec<f32>,
    /// Output classes.
    pub classes: usize,
}

/// Identifies a weight matrix within [`SynthNet`] for per-layer transforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerId {
    /// First conv layer (the paper's "first layer needs more bits" case).
    Conv1,
    /// Second conv layer.
    Conv2,
    /// Third conv layer.
    Conv3,
    /// First fully-connected layer.
    Fc1,
    /// Classifier layer.
    Fc2,
}

/// All layer ids, in forward order.
pub const LAYERS: [LayerId; 5] = [
    LayerId::Conv1,
    LayerId::Conv2,
    LayerId::Conv3,
    LayerId::Fc1,
    LayerId::Fc2,
];

impl SynthNet {
    /// Random initialization: He scaling with a heavy-tailed component.
    ///
    /// Large trained networks develop heavy-tailed weight distributions (the
    /// Fig 1 outliers) over long ImageNet training; a five-layer network on
    /// a synthetic task will not get there in a few epochs, so the tails are
    /// seeded at initialization and survive training — giving the quantizers
    /// the same distribution shape the paper's mechanism targets.
    pub fn new(classes: usize, seed: u64) -> Self {
        // Weight element e of layer lid draws from stream (lid << 32) | e —
        // a pure function of (seed, lid, e), so initialization never depends
        // on the sizes of earlier layers or the order elements are filled.
        let init = |lid: u64, n: usize, fan_in: usize| -> Vec<f32> {
            let s = (2.0 / fan_in as f32).sqrt();
            (0..n)
                .map(|e| {
                    let mut rng = Philox::new(seed, (lid << 32) | e as u64);
                    let tail = if rng.gen_range(0.0..1.0) < 0.03 {
                        5.0
                    } else {
                        1.0
                    };
                    gauss(&mut rng) * s * tail
                })
                .collect()
        };
        SynthNet {
            w1: init(1, C1 * IMG_C * 9, IMG_C * 9),
            b1: vec![0.0; C1],
            w2: init(2, C2 * C1 * 9, C1 * 9),
            b2: vec![0.0; C2],
            w3: init(3, C3 * C2 * 9, C2 * 9),
            b3: vec![0.0; C3],
            w4: init(4, FC1 * FLAT, FLAT),
            b4: vec![0.0; FC1],
            w5: init(5, classes * FC1, FC1),
            b5: vec![0.0; classes],
            classes,
        }
    }

    /// Returns a copy with every weight matrix transformed by `f`.
    ///
    /// `f` receives the layer id and the flat weight slice; it must write the
    /// transformed values back in place.
    pub fn map_weights<F: FnMut(LayerId, &mut [f32])>(&self, mut f: F) -> SynthNet {
        let mut out = self.clone();
        f(LayerId::Conv1, &mut out.w1);
        f(LayerId::Conv2, &mut out.w2);
        f(LayerId::Conv3, &mut out.w3);
        f(LayerId::Fc1, &mut out.w4);
        f(LayerId::Fc2, &mut out.w5);
        out
    }

    /// Borrows the weight matrix of one layer.
    pub fn weights(&self, layer: LayerId) -> &[f32] {
        match layer {
            LayerId::Conv1 => &self.w1,
            LayerId::Conv2 => &self.w2,
            LayerId::Conv3 => &self.w3,
            LayerId::Fc1 => &self.w4,
            LayerId::Fc2 => &self.w5,
        }
    }

    /// Forward pass returning class logits. `act` is applied in place to the
    /// post-ReLU activations of each hidden stage — the hook the quantization
    /// experiments use to quantize activations (pass `|_, _| ()` for the
    /// full-precision path).
    pub fn forward_with<F: FnMut(LayerId, &mut [f32])>(&self, x: &[f32], mut act: F) -> Vec<f32> {
        assert_eq!(x.len(), IMG_C * IMG * IMG, "input size mismatch");
        // conv1 + relu
        let mut a1 = conv3x3(x, IMG_C, H1, &self.w1, &self.b1, C1);
        relu(&mut a1);
        act(LayerId::Conv1, &mut a1);
        let (p1, _) = maxpool2(&a1, C1, H1);
        // conv2 + relu
        let mut a2 = conv3x3(&p1, C1, H2, &self.w2, &self.b2, C2);
        relu(&mut a2);
        act(LayerId::Conv2, &mut a2);
        let (p2, _) = maxpool2(&a2, C2, H2);
        // conv3 + relu
        let mut a3 = conv3x3(&p2, C2, H3, &self.w3, &self.b3, C3);
        relu(&mut a3);
        act(LayerId::Conv3, &mut a3);
        // fc1 + relu
        let mut a4 = fc(&a3, &self.w4, &self.b4, FC1);
        relu(&mut a4);
        act(LayerId::Fc1, &mut a4);
        // fc2 (logits)
        fc(&a4, &self.w5, &self.b5, self.classes)
    }

    /// Plain full-precision forward pass.
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_with(x, |_, _| ())
    }

    /// Evaluates one image with a single forward pass, returning
    /// `(top-1 correct, top-k correct)`.
    ///
    /// Top-1 is the NaN-sound [`argmax`] (first index wins). Top-k is a
    /// single-pass NaN-sound rank instead of sorting the full logit vector
    /// (which panicked on NaN via `partial_cmp().unwrap()`): the label is
    /// in the top k iff fewer than k logits outrank it under the
    /// stable-descending order — strictly greater, or equal with a smaller
    /// index (`total_cmp` puts NaN above every finite logit, matching "a
    /// NaN logit beats the label").
    fn eval_image<F: FnMut(LayerId, &mut [f32])>(
        &self,
        img: &[f32],
        label: usize,
        k: usize,
        act: F,
    ) -> (bool, bool) {
        let logits = self.forward_with(img, act);
        let top1 = argmax(&logits) == label;
        let rank = logits
            .iter()
            .enumerate()
            .filter(|&(i, v)| match v.total_cmp(&logits[label]) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => i < label,
                std::cmp::Ordering::Less => false,
            })
            .count();
        (top1, rank < k)
    }

    /// Top-1 and top-k accuracy from **one** forward pass per image, with
    /// an activation transform hook. Returns `(top1, topk)`.
    ///
    /// Top-1 is derivable from the same logits as top-k, so evaluating
    /// both metrics together halves the test-set forwards compared to
    /// two separate passes. Images fan out over the thread's worker budget
    /// via [`ordered_map`], so the hook must be `Fn + Sync` (the
    /// quantizers are immutable once calibrated). Each image's
    /// `(top1, topk)` pair is a pure function of its input and the counts
    /// are summed in image order, so the result is bit-identical at any
    /// budget.
    pub fn eval_with<F>(&self, data: &SynthDataset, k: usize, act: F) -> (f64, f64)
    where
        F: Fn(LayerId, &mut [f32]) + Sync,
    {
        let indices: Vec<usize> = (0..data.len()).collect();
        let per_image = ordered_map(&indices, jobs(), |_, &i| {
            self.eval_image(&data.images[i], data.labels[i], k, &act)
        });
        let mut top1 = 0usize;
        let mut topk = 0usize;
        for (t1, tk) in per_image {
            top1 += t1 as usize;
            topk += tk as usize;
        }
        (
            top1 as f64 / data.len() as f64,
            topk as f64 / data.len() as f64,
        )
    }

    /// Top-1 accuracy, full precision.
    pub fn accuracy(&self, data: &SynthDataset) -> f64 {
        self.eval_with(data, 1, |_, _| ()).0
    }

    /// Trains with SGD + momentum for `epochs` passes over `data`.
    /// Returns the final training accuracy.
    ///
    /// The per-sample minibatch gradients fan out over the thread's worker
    /// budget ([`ola_tensor::par::jobs`]). Each sample's gradient is
    /// computed independently (any worker, any order) and the per-sample
    /// gradients are then summed **in sample order** — the same reduction
    /// shape at every budget — so the trained weights are byte-identical
    /// from 1 worker to N. The per-epoch shuffle draws from the
    /// counter-based stream `(seed, epoch)`.
    pub fn train(&mut self, data: &SynthDataset, epochs: usize, lr: f32, seed: u64) -> f64 {
        let mut vel = Gradients::zeros(self.classes);
        for epoch in 0..epochs {
            let mut rng = Philox::new(seed, epoch as u64);
            let mut order: Vec<usize> = (0..data.len()).collect();
            // Fisher-Yates shuffle.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let lr_e = lr / (1.0 + 0.15 * epoch as f32);
            for batch in order.chunks(16) {
                let per_sample = ordered_map(batch, jobs(), |_, &i| {
                    let mut g = Gradients::zeros(self.classes);
                    self.backward(&data.images[i], data.labels[i], &mut g);
                    g
                });
                let mut grads = Gradients::zeros(self.classes);
                for g in &per_sample {
                    grads.add(g);
                }
                let mut scale = 1.0 / batch.len() as f32;
                // Global-norm gradient clipping: the heavy-tailed
                // initialization can spike early gradients.
                let norm = grads.norm() * scale;
                const CLIP: f32 = 8.0;
                if norm > CLIP {
                    scale *= CLIP / norm;
                }
                vel.blend(&grads, 0.9, scale);
                self.apply(&vel, lr_e);
            }
        }
        self.accuracy(data)
    }

    /// One-sample backprop, accumulating into `g`.
    fn backward(&self, x: &[f32], label: usize, g: &mut Gradients) {
        // ---- forward with caches ----
        let mut a1 = conv3x3(x, IMG_C, H1, &self.w1, &self.b1, C1);
        relu(&mut a1);
        let (p1, i1) = maxpool2(&a1, C1, H1);
        let mut a2 = conv3x3(&p1, C1, H2, &self.w2, &self.b2, C2);
        relu(&mut a2);
        let (p2, i2) = maxpool2(&a2, C2, H2);
        let mut a3 = conv3x3(&p2, C2, H3, &self.w3, &self.b3, C3);
        relu(&mut a3);
        let mut a4 = fc(&a3, &self.w4, &self.b4, FC1);
        relu(&mut a4);
        let logits = fc(&a4, &self.w5, &self.b5, self.classes);

        // ---- softmax cross-entropy gradient ----
        let mut d5 = softmax(&logits);
        d5[label] -= 1.0;

        // ---- fc2 backward ----
        let d4 = fc_backward(&d5, &a4, &self.w5, &mut g.w5, &mut g.b5);
        let mut d4 = d4;
        relu_backward(&mut d4, &a4);

        // ---- fc1 backward ----
        let d3 = fc_backward(&d4, &a3, &self.w4, &mut g.w4, &mut g.b4);
        let mut d3 = d3;
        relu_backward(&mut d3, &a3);

        // ---- conv3 backward ----
        let d_p2 = conv3x3_backward(&d3, &p2, C2, H3, &self.w3, C3, &mut g.w3, &mut g.b3);
        let mut d_a2 = maxpool2_backward(&d_p2, &i2, C2, H2);
        relu_backward(&mut d_a2, &a2);

        // ---- conv2 backward ----
        let d_p1 = conv3x3_backward(&d_a2, &p1, C1, H2, &self.w2, C2, &mut g.w2, &mut g.b2);
        let mut d_a1 = maxpool2_backward(&d_p1, &i1, C1, H1);
        relu_backward(&mut d_a1, &a1);

        // ---- conv1 backward (input gradient discarded) ----
        let _ = conv3x3_backward(&d_a1, x, IMG_C, H1, &self.w1, C1, &mut g.w1, &mut g.b1);
    }

    fn apply(&mut self, g: &Gradients, lr: f32) {
        for (w, d) in [
            (&mut self.w1, &g.w1),
            (&mut self.w2, &g.w2),
            (&mut self.w3, &g.w3),
            (&mut self.w4, &g.w4),
            (&mut self.w5, &g.w5),
        ] {
            for (wi, di) in w.iter_mut().zip(d) {
                *wi -= lr * di;
            }
        }
        for (b, d) in [
            (&mut self.b1, &g.b1),
            (&mut self.b2, &g.b2),
            (&mut self.b3, &g.b3),
            (&mut self.b4, &g.b4),
            (&mut self.b5, &g.b5),
        ] {
            for (bi, di) in b.iter_mut().zip(d) {
                *bi -= lr * di;
            }
        }
    }
}

struct Gradients {
    w1: Vec<f32>,
    b1: Vec<f32>,
    w2: Vec<f32>,
    b2: Vec<f32>,
    w3: Vec<f32>,
    b3: Vec<f32>,
    w4: Vec<f32>,
    b4: Vec<f32>,
    w5: Vec<f32>,
    b5: Vec<f32>,
}

impl Gradients {
    fn zeros(classes: usize) -> Self {
        Gradients {
            w1: vec![0.0; C1 * IMG_C * 9],
            b1: vec![0.0; C1],
            w2: vec![0.0; C2 * C1 * 9],
            b2: vec![0.0; C2],
            w3: vec![0.0; C3 * C2 * 9],
            b3: vec![0.0; C3],
            w4: vec![0.0; FC1 * FLAT],
            b4: vec![0.0; FC1],
            w5: vec![0.0; classes * FC1],
            b5: vec![0.0; classes],
        }
    }

    /// `self += other` field-wise. Summing per-sample gradients with this,
    /// in sample order, is the fixed reduction shape that keeps parallel
    /// training bit-identical at any worker count.
    fn add(&mut self, other: &Gradients) {
        for (a, b) in [
            (&mut self.w1, &other.w1),
            (&mut self.b1, &other.b1),
            (&mut self.w2, &other.w2),
            (&mut self.b2, &other.b2),
            (&mut self.w3, &other.w3),
            (&mut self.b3, &other.b3),
            (&mut self.w4, &other.w4),
            (&mut self.b4, &other.b4),
            (&mut self.w5, &other.w5),
            (&mut self.b5, &other.b5),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
    }

    /// Global L2 norm across all gradient fields.
    fn norm(&self) -> f32 {
        let mut acc = 0.0f64;
        for g in [
            &self.w1, &self.b1, &self.w2, &self.b2, &self.w3, &self.b3, &self.w4, &self.b4,
            &self.w5, &self.b5,
        ] {
            acc += g.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>();
        }
        acc.sqrt() as f32
    }

    /// `self = momentum * self + scale * other` across all fields.
    fn blend(&mut self, other: &Gradients, momentum: f32, scale: f32) {
        for (a, b) in [
            (&mut self.w1, &other.w1),
            (&mut self.b1, &other.b1),
            (&mut self.w2, &other.w2),
            (&mut self.b2, &other.b2),
            (&mut self.w3, &other.w3),
            (&mut self.b3, &other.b3),
            (&mut self.w4, &other.w4),
            (&mut self.b4, &other.b4),
            (&mut self.w5, &other.w5),
            (&mut self.b5, &other.b5),
        ] {
            for (x, y) in a.iter_mut().zip(b) {
                *x = *x * momentum + *y * scale;
            }
        }
    }
}

// ---- primitive ops on flat CHW buffers ----

fn conv3x3(x: &[f32], ci: usize, h: usize, w: &[f32], bias: &[f32], co: usize) -> Vec<f32> {
    let mut out = vec![0.0; co * h * h];
    for oc in 0..co {
        for oy in 0..h {
            for ox in 0..h {
                let mut acc = bias[oc];
                for ic in 0..ci {
                    let wbase = ((oc * ci + ic) * 3) * 3;
                    let xbase = ic * h * h;
                    for ky in 0..3usize {
                        let iy = oy as isize + ky as isize - 1;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..3usize {
                            let ix = ox as isize + kx as isize - 1;
                            if ix < 0 || ix >= h as isize {
                                continue;
                            }
                            acc +=
                                x[xbase + iy as usize * h + ix as usize] * w[wbase + ky * 3 + kx];
                        }
                    }
                }
                out[(oc * h + oy) * h + ox] = acc;
            }
        }
    }
    out
}

/// Backward of conv3x3: accumulates dW, dB; returns dX.
#[allow(clippy::too_many_arguments)]
fn conv3x3_backward(
    dy: &[f32],
    x: &[f32],
    ci: usize,
    h: usize,
    w: &[f32],
    co: usize,
    dw: &mut [f32],
    db: &mut [f32],
) -> Vec<f32> {
    let mut dx = vec![0.0; ci * h * h];
    for oc in 0..co {
        for oy in 0..h {
            for ox in 0..h {
                let g = dy[(oc * h + oy) * h + ox];
                if g == 0.0 {
                    continue;
                }
                db[oc] += g;
                for ic in 0..ci {
                    let wbase = ((oc * ci + ic) * 3) * 3;
                    let xbase = ic * h * h;
                    for ky in 0..3usize {
                        let iy = oy as isize + ky as isize - 1;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..3usize {
                            let ix = ox as isize + kx as isize - 1;
                            if ix < 0 || ix >= h as isize {
                                continue;
                            }
                            let xi = xbase + iy as usize * h + ix as usize;
                            dw[wbase + ky * 3 + kx] += g * x[xi];
                            dx[xi] += g * w[wbase + ky * 3 + kx];
                        }
                    }
                }
            }
        }
    }
    dx
}

fn relu(x: &mut [f32]) {
    for v in x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// dX masked by the *post*-ReLU activation (zero stays zero).
fn relu_backward(dx: &mut [f32], post: &[f32]) {
    for (d, &a) in dx.iter_mut().zip(post) {
        if a <= 0.0 {
            *d = 0.0;
        }
    }
}

/// 2x2 max pool, stride 2. Returns (pooled, argmax flat indices).
fn maxpool2(x: &[f32], c: usize, h: usize) -> (Vec<f32>, Vec<usize>) {
    let oh = h / 2;
    let mut out = vec![0.0; c * oh * oh];
    let mut idx = vec![0usize; c * oh * oh];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..oh {
                let mut best = f32::NEG_INFINITY;
                let mut bi = 0usize;
                for ky in 0..2 {
                    for kx in 0..2 {
                        let i = (ch * h + oy * 2 + ky) * h + ox * 2 + kx;
                        if x[i] > best {
                            best = x[i];
                            bi = i;
                        }
                    }
                }
                let o = (ch * oh + oy) * oh + ox;
                out[o] = best;
                idx[o] = bi;
            }
        }
    }
    (out, idx)
}

fn maxpool2_backward(dy: &[f32], idx: &[usize], c: usize, h: usize) -> Vec<f32> {
    let mut dx = vec![0.0; c * h * h];
    for (o, &i) in idx.iter().enumerate() {
        dx[i] += dy[o];
    }
    dx
}

fn fc(x: &[f32], w: &[f32], bias: &[f32], out: usize) -> Vec<f32> {
    let inf = x.len();
    let mut y = vec![0.0; out];
    for (o, yo) in y.iter_mut().enumerate() {
        let row = &w[o * inf..(o + 1) * inf];
        let mut acc = bias[o];
        for (xi, wi) in x.iter().zip(row) {
            acc += xi * wi;
        }
        *yo = acc;
    }
    y
}

/// Backward of fc: accumulates dW, dB; returns dX.
fn fc_backward(dy: &[f32], x: &[f32], w: &[f32], dw: &mut [f32], db: &mut [f32]) -> Vec<f32> {
    let inf = x.len();
    let mut dx = vec![0.0; inf];
    for (o, &g) in dy.iter().enumerate() {
        db[o] += g;
        let row = &w[o * inf..(o + 1) * inf];
        let drow = &mut dw[o * inf..(o + 1) * inf];
        for i in 0..inf {
            drow[i] += g * x[i];
            dx[i] += g * row[i];
        }
    }
    dx
}

fn softmax(logits: &[f32]) -> Vec<f32> {
    let m = logits.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = logits.iter().map(|&v| (v - m).exp()).collect();
    let s: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / s).collect()
}

/// Single-pass NaN-sound argmax: `total_cmp` gives a total order (NaN above
/// all finite values), first index wins ties.
fn argmax(v: &[f32]) -> usize {
    let mut best = 0;
    for i in 1..v.len() {
        if v[i].total_cmp(&v[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untrained_accuracy_is_chance() {
        let data = SynthDataset::generate(200, 10, 1);
        let net = SynthNet::new(10, 2);
        let acc = net.accuracy(&data);
        assert!(acc < 0.35, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn training_learns_task() {
        let data = SynthDataset::generate(400, 4, 3);
        let mut net = SynthNet::new(4, 4);
        let acc = net.train(&data, 6, 0.02, 5);
        assert!(acc > 0.85, "training accuracy only {acc}");
        // Held-out set from the same distribution.
        let test = SynthDataset::generate(200, 4, 30);
        // Note: different prototypes => different task; instead evaluate on
        // fresh samples of the SAME task by regenerating with the train seed.
        let more = SynthDataset::generate(600, 4, 3);
        let holdout = SynthDataset {
            images: more.images[400..].to_vec(),
            labels: more.labels[400..].to_vec(),
            classes: 4,
        };
        let test_acc = net.accuracy(&holdout);
        assert!(test_acc > 0.8, "holdout accuracy only {test_acc}");
        drop(test);
    }

    #[test]
    fn gradient_check_fc() {
        // Numeric gradient check on fc2 weights through softmax-CE.
        let data = SynthDataset::generate(1, 3, 9);
        let net = SynthNet::new(3, 10);
        let x = &data.images[0];
        let label = data.labels[0];
        let loss = |n: &SynthNet| -> f32 {
            let logits = n.forward(x);
            let p = softmax(&logits);
            -p[label].max(1e-9).ln()
        };
        let mut g = Gradients::zeros(3);
        net.backward(x, label, &mut g);
        let eps = 1e-3;
        for &wi in &[0usize, 5, 17] {
            let mut plus = net.clone();
            plus.w5[wi] += eps;
            let mut minus = net.clone();
            minus.w5[wi] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let ana = g.w5[wi];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs().max(ana.abs())),
                "w5[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn gradient_check_conv1() {
        let data = SynthDataset::generate(1, 3, 19);
        let net = SynthNet::new(3, 11);
        let x = &data.images[0];
        let label = data.labels[0];
        let loss = |n: &SynthNet| -> f32 {
            let logits = n.forward(x);
            let p = softmax(&logits);
            -p[label].max(1e-9).ln()
        };
        let mut g = Gradients::zeros(3);
        net.backward(x, label, &mut g);
        let eps = 1e-3;
        for &wi in &[0usize, 10, 40] {
            let mut plus = net.clone();
            plus.w1[wi] += eps;
            let mut minus = net.clone();
            minus.w1[wi] -= eps;
            let num = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let ana = g.w1[wi];
            assert!(
                (num - ana).abs() < 5e-2 * (1.0 + num.abs().max(ana.abs())),
                "w1[{wi}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn argmax_is_nan_sound() {
        // NaN sorts above every finite logit under total_cmp, so a NaN
        // prediction is deterministic (first NaN wins) and never panics.
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[0.1, 0.9, 0.9]), 1, "first index wins ties");
        assert_eq!(argmax(&[0.1, f32::NAN, 0.9]), 1);
        assert_eq!(argmax(&[f32::NAN, f32::NAN, 0.9]), 0);
        assert_eq!(argmax(&[f32::NEG_INFINITY, -1.0]), 1);
    }

    #[test]
    fn topk_accuracy_survives_nan_logits() {
        // The old implementation sorted the full logit vector with
        // partial_cmp().unwrap() and panicked the moment any logit went NaN.
        let net = SynthNet::new(4, 8);
        let data = SynthDataset::generate(20, 4, 8);
        let (_, acc) = net.eval_with(&data, 2, |layer, a| {
            if layer == LayerId::Fc1 {
                a.fill(f32::NAN);
            }
        });
        // All logits NaN => every logit "outranks" by index order only; the
        // label ranks at its own position. The exact value is not the point —
        // not panicking and staying in [0,1] is.
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn topk_rank_matches_sort_reference() {
        let net = SynthNet::new(6, 12);
        let data = SynthDataset::generate(50, 6, 13);
        for k in [1, 2, 4] {
            let (_, got) = net.eval_with(&data, k, |_, _| ());
            // Reference: the old stable descending sort (finite logits).
            let mut correct = 0usize;
            for (img, &label) in data.images.iter().zip(&data.labels) {
                let logits = net.forward(img);
                let mut idx: Vec<usize> = (0..logits.len()).collect();
                idx.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
                if idx.iter().take(k).any(|&i| i == label) {
                    correct += 1;
                }
            }
            assert_eq!(got, correct as f64 / data.len() as f64, "k={k}");
        }
        // top-1 agrees with argmax-based accuracy on finite logits.
        assert_eq!(net.eval_with(&data, 1, |_, _| ()).1, net.accuracy(&data));
    }

    #[test]
    fn dataset_bit_identical_across_worker_counts() {
        let serial = SynthDataset::generate(120, 5, 42);
        ola_tensor::par::set_jobs(4);
        let parallel = SynthDataset::generate(120, 5, 42);
        assert_eq!(serial.labels, parallel.labels);
        for (a, b) in serial.images.iter().zip(&parallel.images) {
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn dataset_prefix_extension_property() {
        // Sample j depends only on (seed, j): a longer dataset starts with
        // exactly the shorter one.
        let short = SynthDataset::generate(30, 4, 7);
        let long = SynthDataset::generate(90, 4, 7);
        assert_eq!(&long.labels[..30], &short.labels[..]);
        assert_eq!(&long.images[..30], &short.images[..]);
    }

    #[test]
    fn training_bit_identical_across_worker_counts() {
        let data = SynthDataset::generate(64, 3, 11);
        let mut serial = SynthNet::new(3, 21);
        serial.train(&data, 2, 0.02, 31);
        let mut parallel = SynthNet::new(3, 21);
        ola_tensor::par::set_jobs(3);
        parallel.train(&data, 2, 0.02, 31);
        for layer in LAYERS {
            assert_eq!(
                serial
                    .weights(layer)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                parallel
                    .weights(layer)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "{layer:?} drifted between 1 and 3 workers"
            );
        }
    }

    #[test]
    fn map_weights_transforms_all_layers() {
        let net = SynthNet::new(5, 1);
        let zeroed = net.map_weights(|_, w| w.fill(0.0));
        for layer in LAYERS {
            assert!(zeroed.weights(layer).iter().all(|&v| v == 0.0));
        }
        // Original untouched.
        assert!(net.w1.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn eval_with_returns_both_metrics_from_one_pass() {
        let data = SynthDataset::generate(80, 5, 23);
        let mut net = SynthNet::new(5, 24);
        net.train(&data, 2, 0.02, 25);
        let (top1, top3) = net.eval_with(&data, 3, |_, _| ());
        assert_eq!(top1, net.accuracy(&data));
        assert!(top3 >= top1, "top-3 can never be below top-1");
    }

    #[test]
    fn eval_with_matches_serial_at_any_worker_count() {
        let data = SynthDataset::generate(70, 4, 33);
        let net = SynthNet::new(4, 34);
        // A hook that actually perturbs activations, like the quantizers do.
        let hook = |layer: LayerId, a: &mut [f32]| {
            if layer == LayerId::Conv2 {
                for v in a {
                    *v = (*v * 4.0).round() / 4.0;
                }
            }
        };
        let serial = net.eval_with(&data, 2, hook);
        for jobs in [2, 4] {
            ola_tensor::par::set_jobs(jobs);
            let par = net.eval_with(&data, 2, hook);
            assert_eq!(
                (serial.0.to_bits(), serial.1.to_bits()),
                (par.0.to_bits(), par.1.to_bits()),
                "jobs={jobs} drifted from serial"
            );
        }
    }

    #[test]
    fn forward_with_hook_sees_all_hidden_layers() {
        let net = SynthNet::new(4, 8);
        let data = SynthDataset::generate(1, 4, 8);
        let mut seen = Vec::new();
        let _ = net.forward_with(&data.images[0], |layer, _| seen.push(layer));
        assert_eq!(
            seen,
            vec![LayerId::Conv1, LayerId::Conv2, LayerId::Conv3, LayerId::Fc1]
        );
    }
}
