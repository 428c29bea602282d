//! Solo timings of single layers, each driven through its public entry
//! point with the workload's own tiles and inputs.

use crate::workload::Workload;
use pic_net::http::{Parse, RequestParser};
use pic_net::{MatmulReply, MatmulWire};
use pic_psram::{PsramArray, PsramConfig};
use pic_runtime::{RuntimeConfig, TileExecutor};
use pic_tensor::{FlatBatch, FlatCodes, TensorCore, TensorCoreConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Most tiles in one pass of the tile-write sequence.
const MAX_TILES: usize = 4096;

/// Runs `pass` at least once and until `budget` is spent. Each pass
/// returns how many units of work it did; the result is seconds per
/// unit over all passes.
fn per_unit(budget: Duration, mut pass: impl FnMut() -> usize) -> f64 {
    let (mut spent, mut units) = (Duration::ZERO, 0usize);
    while units == 0 || spent < budget {
        let t0 = Instant::now();
        units += pass();
        spent += t0.elapsed();
    }
    spent.as_secs_f64() / units as f64
}

/// The tiles requests touch, in request order.
fn tile_sequence(wl: &Workload) -> Vec<&[Vec<u32>]> {
    wl.pool
        .iter()
        .flat_map(|item| {
            let m = &wl.models[item.model];
            (0..m.block_rows())
                .flat_map(move |br| (0..m.block_cols()).map(move |bc| m.tile(br, bc).codes()))
        })
        .take(MAX_TILES)
        .collect()
}

/// The tile-write path: pSRAM flip replay alone, then the tensor core's
/// full transient write (flip replay plus gain-cache rebuild).
#[derive(Debug)]
pub struct WritePath {
    pub store_matrix_us: f64,
    /// Bit flips per tile over the first pass from an all-zero array.
    pub flips_per_tile: f64,
    pub tile_write_us: f64,
}

pub fn write_path(wl: &Workload, budget: Duration) -> WritePath {
    let cfg = TensorCoreConfig::paper();
    let tiles = tile_sequence(wl);
    let mut array = PsramArray::new(PsramConfig::paper(), cfg.rows, cfg.cols, cfg.weight_bits);
    let first_pass_flips: usize = tiles.iter().map(|t| array.store_matrix(t).1).sum();
    let store = per_unit(budget, || {
        for t in &tiles {
            black_box(array.store_matrix(t));
        }
        tiles.len()
    });
    let mut core = TensorCore::new(cfg);
    let write = per_unit(budget, || {
        for t in &tiles {
            black_box(core.write_weights_transient(t));
        }
        tiles.len()
    });
    WritePath {
        store_matrix_us: store * 1e6,
        flips_per_tile: first_pass_flips as f64 / tiles.len() as f64,
        tile_write_us: write * 1e6,
    }
}

/// The tensor core's read path on the workload's split inputs: the
/// analog kernel with digitisation, and digitisation alone.
#[derive(Debug)]
pub struct Kernel {
    pub matmul_ns_per_sample: f64,
    pub digitize_ns_per_code: f64,
}

pub fn kernel(wl: &Workload, budget: Duration) -> Kernel {
    let cfg = TensorCoreConfig::paper();
    let mut core = TensorCore::new(cfg);
    core.load_weight_codes(wl.models[0].tile(0, 0).codes());
    // Each request's inputs, split tile-column-major as the executor
    // splits them, with the number of tile passes over each.
    let batches: Vec<(FlatBatch, usize, usize)> = wl
        .pool
        .iter()
        .map(|item| {
            let m = &wl.models[item.model];
            let slices: Vec<&[f64]> = item.inputs.iter().map(Vec::as_slice).collect();
            let mut splits = FlatBatch::new();
            m.split_columns_into(&slices, &mut splits);
            (splits, item.inputs.len(), m.block_rows())
        })
        .collect();
    let mut codes = FlatCodes::new();
    let matmul = per_unit(budget, || {
        let mut samples = 0;
        for (splits, n, block_rows) in &batches {
            for bc in 0..splits.samples() / n {
                for _ in 0..*block_rows {
                    core.matmul_into(splits.view_rows(bc * n, *n), &mut codes);
                    black_box(codes.as_slice());
                    samples += n;
                }
            }
        }
        samples
    });
    // Read-out values as the analog phase produces them.
    let readouts: Vec<Vec<f64>> = batches
        .iter()
        .map(|(splits, n, _)| {
            (0..*n)
                .flat_map(|s| core.matvec_analog(splits.row(s)))
                .collect()
        })
        .collect();
    let mut out: Vec<Vec<u16>> = readouts.iter().map(|ys| vec![0; ys.len()]).collect();
    let digitize = per_unit(budget, || {
        let mut n = 0;
        for (ys, codes) in readouts.iter().zip(&mut out) {
            core.digitize_slice(ys, codes);
            black_box(codes.as_slice());
            n += ys.len();
        }
        n
    });
    Kernel {
        matmul_ns_per_sample: matmul * 1e9,
        digitize_ns_per_code: digitize * 1e9,
    }
}

/// A solo replay of the request sequence on one executor per pool
/// device. Each request goes to the device that served its model last,
/// else to the least recently used one — the runtime's residency
/// affinity, made deterministic.
#[derive(Debug)]
pub struct Replay {
    pub execute_us: f64,
    /// Over the first pass from fresh devices; these repeat exactly for
    /// a given seed.
    pub tiles_written_per_req: f64,
    pub nj_per_req: f64,
    pub attempted: u64,
    pub mismatches: u64,
}

pub fn replay(wl: &Workload, budget: Duration) -> Replay {
    let devices = RuntimeConfig::paper().devices;
    let mut execs: Vec<TileExecutor> = (0..devices)
        .map(|d| TileExecutor::new(TensorCoreConfig::paper(), d))
        .collect();
    let mut last_model: Vec<Option<usize>> = vec![None; devices];
    let mut last_used = vec![0usize; devices];
    let mut clock = 0usize;
    let (mut written, mut energy, mut mismatches) = (0usize, 0.0, 0u64);
    let mut first_pass = true;
    let per_req = per_unit(budget, || {
        for (idx, item) in wl.pool.iter().enumerate() {
            let d = last_model
                .iter()
                .position(|&m| m == Some(item.model))
                .unwrap_or_else(|| (0..devices).min_by_key(|&d| last_used[d]).expect("devices"));
            clock += 1;
            last_used[d] = clock;
            last_model[d] = Some(item.model);
            let slices: Vec<&[f64]> = item.inputs.iter().map(Vec::as_slice).collect();
            let (outputs, cost) = execs[d]
                .execute_slices(&wl.models[item.model], &slices)
                .expect("pooled requests are valid");
            if first_pass {
                written += cost.tiles_written;
                energy += cost.total_energy_j();
                mismatches += u64::from(!wl.matches(idx, &outputs));
            }
        }
        first_pass = false;
        wl.pool.len()
    });
    let n = wl.pool.len() as f64;
    Replay {
        execute_us: per_req * 1e6,
        tiles_written_per_req: written as f64 / n,
        nj_per_req: energy / n * 1e9,
        attempted: wl.pool.len() as u64,
        mismatches,
    }
}

/// The front-end's per-request codec work, solo: HTTP framing, request
/// body parsing, and reply serialisation.
#[derive(Debug)]
pub struct Codec {
    pub http_parse_us: f64,
    pub wire_parse_us: f64,
    pub reply_encode_us: f64,
}

pub fn codec(wl: &Workload, budget: Duration) -> Codec {
    let bodies: Vec<String> = wl
        .pool
        .iter()
        .map(|item| {
            serde_json::to_string(&MatmulWire {
                model: wl.names[item.model].clone(),
                inputs: item.inputs.clone(),
                deadline_ms: None,
            })
            .expect("request serialises")
        })
        .collect();
    // The bytes `NetClient::matmul` puts on the wire.
    let requests: Vec<Vec<u8>> = bodies
        .iter()
        .map(|body| {
            format!(
                "POST /v1/matmul HTTP/1.1\r\nx-client: load-0\r\ncontent-type: application/json\r\n\
                 content-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();
    let mut parser = RequestParser::new();
    let http = per_unit(budget, || {
        for bytes in &requests {
            parser.feed(bytes);
            match parser.poll() {
                Parse::Request(req) => {
                    black_box(req);
                }
                other => panic!("a client request did not frame: {other:?}"),
            }
        }
        requests.len()
    });
    let wire = per_unit(budget, || {
        for body in &bodies {
            black_box(MatmulWire::parse(body.as_bytes()).expect("request body parses"));
        }
        bodies.len()
    });
    let replies: Vec<MatmulReply> = wl
        .oracle
        .iter()
        .map(|outputs| MatmulReply {
            outputs: outputs.clone(),
            device: 0,
            batched_with: 1,
            tiles_written: 1,
            tiles_resident: 0,
            energy_j: 1e-9,
        })
        .collect();
    let encode = per_unit(budget, || {
        for reply in &replies {
            black_box(serde_json::to_string(reply).expect("reply serialises"));
        }
        replies.len()
    });
    Codec {
        http_parse_us: http * 1e6,
        wire_parse_us: wire * 1e6,
        reply_encode_us: encode * 1e6,
    }
}
