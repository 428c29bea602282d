//! Seeded workload generation: models, a request pool, and the expected
//! outputs of every pooled request.
//!
//! Everything here runs before any timing starts. The serving stacks
//! receive only the generated matrices and inputs; the seed fixes all of
//! them.

use pic_runtime::{OutputElement, TileExecutor, TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The three traffic mixes the benchmark drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 distinct single-tile models in a cycle, 16 samples per
    /// request: nearly every request streams a tile through the write
    /// path.
    StreamWrite,
    /// 4 single-tile models (one per device) in a cycle, 256 samples per
    /// request: weights stay resident, host time goes to the kernel and
    /// the executor.
    ResidentBatch,
    /// serve_demo's 12-model shape mix under Zipf(1.1) popularity, 1–2
    /// samples per request, served over HTTP by a 2-node cluster.
    ZipfHttpCluster,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "stream_write" => Some(Kind::StreamWrite),
            "resident_batch" => Some(Kind::ResidentBatch),
            "zipf_http_cluster" => Some(Kind::ZipfHttpCluster),
            _ => None,
        }
    }

    /// Whether the workload's end-to-end stack is the HTTP front-end
    /// over a cluster (otherwise an in-process `Runtime`).
    pub fn over_http(self) -> bool {
        self == Kind::ZipfHttpCluster
    }
}

/// serve_demo's ranked model shapes `(out, in)`: single-tile hot ranks,
/// a ragged single-tile model, and multi-tile (2×2, 3×2, 3×1 grid)
/// models through the tail.
const SHAPE_MIX: &[(usize, usize)] = &[
    (16, 16),
    (16, 16),
    (16, 16),
    (16, 12),
    (32, 32),
    (16, 16),
    (40, 24),
    (16, 16),
    (48, 16),
    (16, 16),
    (16, 16),
    (32, 32),
];

const ZIPF_S: f64 = 1.1;

/// One pooled request: which model, and its input batch.
#[derive(Debug, Clone)]
pub struct Item {
    pub model: usize,
    pub inputs: Vec<Vec<f64>>,
}

/// A generated workload. Requests cycle through `pool` in order; the
/// pool is large enough that no two in-flight requests share inputs.
#[derive(Debug)]
pub struct Workload {
    pub models: Vec<Arc<TiledMatrix>>,
    /// Model names as registered with the HTTP front-end.
    pub names: Vec<String>,
    /// Each model's expected share of traffic (the cluster planner's
    /// load hint).
    pub loads: Vec<f64>,
    pub pool: Vec<Item>,
    /// Expected outputs of every pooled request, from a solo
    /// [`TileExecutor::execute`] on a fresh device.
    pub oracle: Vec<Vec<Vec<OutputElement>>>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let core = TensorCoreConfig::paper();
        let mut rng = StdRng::seed_from_u64(seed);
        let (shapes, samples, pool_len): (Vec<(usize, usize)>, usize, usize) = match kind {
            Kind::StreamWrite => (vec![(16, 16); 64], 16, 2048),
            Kind::ResidentBatch => (vec![(16, 16); 4], 256, 256),
            Kind::ZipfHttpCluster => (SHAPE_MIX.to_vec(), 2, 8192),
        };
        let shape = TileShape::new(core.rows, core.cols);
        let max_code = (1u32 << core.weight_bits) - 1;
        let models: Vec<Arc<TiledMatrix>> = shapes
            .iter()
            .map(|&(out, inp)| {
                let codes: Vec<Vec<u32>> = (0..out)
                    .map(|_| (0..inp).map(|_| rng.gen_range(0..=max_code)).collect())
                    .collect();
                Arc::new(TiledMatrix::from_codes(&codes, core.weight_bits, shape))
            })
            .collect();
        let n = models.len();
        let weights: Vec<f64> = match kind {
            Kind::ZipfHttpCluster => (0..n)
                .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
                .collect(),
            _ => vec![1.0; n],
        };
        let total: f64 = weights.iter().sum();
        let loads: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for l in &loads {
            acc += l;
            cdf.push(acc);
        }
        let pool = (0..pool_len)
            .map(|i| {
                let (model, count) = match kind {
                    Kind::ZipfHttpCluster => {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        let model = cdf.partition_point(|&c| c < u).min(n - 1);
                        (model, rng.gen_range(1..=samples))
                    }
                    _ => (i % n, samples),
                };
                let inputs = (0..count)
                    .map(|_| {
                        (0..models[model].in_dim())
                            .map(|_| rng.gen_range(0.0..=1.0))
                            .collect()
                    })
                    .collect();
                Item { model, inputs }
            })
            .collect::<Vec<Item>>();
        let mut solo = TileExecutor::new(core, 0);
        let oracle = pool
            .iter()
            .map(|item| {
                solo.execute(&models[item.model], &item.inputs)
                    .expect("generated requests are valid")
                    .0
            })
            .collect();
        Workload {
            names: (0..n).map(|k| format!("model-{k}")).collect(),
            models,
            loads,
            pool,
            oracle,
        }
    }

    /// Whether `outputs` equal the expected outputs of pooled request
    /// `idx` bit for bit.
    pub fn matches(&self, idx: usize, outputs: &[Vec<OutputElement>]) -> bool {
        let expected = &self.oracle[idx];
        expected.len() == outputs.len()
            && expected.iter().zip(outputs).all(|(e, o)| {
                e.len() == o.len()
                    && e.iter().zip(o).all(|(a, b)| {
                        a.code_sum == b.code_sum && a.value.to_bits() == b.value.to_bits()
                    })
            })
    }

    /// Samples per request, averaged over the pool.
    pub fn mean_samples(&self) -> f64 {
        self.pool.iter().map(|i| i.inputs.len()).sum::<usize>() as f64 / self.pool.len() as f64
    }

    /// Tiles per request, averaged over the pool.
    pub fn mean_tiles(&self) -> f64 {
        self.pool
            .iter()
            .map(|i| self.models[i.model].tile_count())
            .sum::<usize>() as f64
            / self.pool.len() as f64
    }
}
