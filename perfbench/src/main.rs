//! Seeded end-to-end and per-layer benchmark of the photonic tensor-core
//! serving stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run builds the workload's stack as shipped (paper
//! configs, default `NetConfig`), drives it closed-loop for `--seconds`
//! and reports the end-to-end metrics. With `--trace 1` it times each
//! layer's public entry points on the same seeded inputs and reports the
//! per-layer metrics with a latency waterfall. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` beside this crate for the workloads and
//! what each metric should move.

mod layers;
mod serve;
mod workload;

use serve::{closed_loop, LoopStats};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Stack constructions per run, half before and half after the timed
/// phase; `setup_s` is their median.
const SETUPS: usize = 20;
/// The end-to-end timings are medians over windows of this length, so
/// that a burst of load from outside the benchmark moves a few windows
/// rather than the result.
const WINDOW: Duration = Duration::from_secs(1);
/// Unmeasured load before each measured phase, so lazily built state
/// and thread-local scratch reach steady state first.
const WARM: Duration = Duration::from_millis(400);

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        trace,
    })
}

/// What a run prints as its last line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Nearest-rank quantile of `sorted`; an empty window (no reply for
/// its whole length) reads as infinitely slow.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return u64::MAX;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Builds a stack `count` times, timing each construction up to
/// ready-to-serve, and keeps the last one. The first construction in a
/// process also pays for process-wide lazy state (the shared
/// write-transient cache), which the median over all leaves out.
fn timed_setup<S>(count: usize, times: &mut Vec<f64>, mut build: impl FnMut() -> S) -> S {
    let mut stack = None;
    for _ in 0..count {
        drop(stack.take());
        let t0 = Instant::now();
        stack = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    stack.expect("at least one construction")
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn describe(label: &str, s: &LoopStats) {
    println!(
        "  {label}: attempted {} ok {} failed {} over {:.2} s ({:.0} ok/s, mean {:.1} us)",
        s.attempted,
        s.ok(),
        s.failed,
        s.wall_s,
        s.ok_rps(),
        s.mean_us()
    );
    if let Some(e) = &s.first_error {
        println!("  {label}: first failure: {e}");
    }
}

fn end_to_end(args: &Args, wl: &Workload) -> Report {
    let run = Duration::from_secs_f64(args.seconds);
    // Constructions on both sides of the timed phase, so that one burst
    // of outside load cannot slow them all.
    let mut setups = Vec::with_capacity(SETUPS);
    let stats = if args.kind.over_http() {
        let build = || serve::start_http(wl, serve::start_cluster(wl));
        let http = timed_setup(SETUPS / 2, &mut setups, build);
        closed_loop(&http, wl, WARM, false);
        let stats = closed_loop(&http, wl, run, false);
        drop(http);
        timed_setup(SETUPS / 2, &mut setups, build);
        stats
    } else {
        let build = || serve::start_runtime(wl);
        let rt = timed_setup(SETUPS / 2, &mut setups, build);
        closed_loop(&rt, wl, WARM, false);
        let stats = closed_loop(&rt, wl, run, false);
        drop(rt);
        timed_setup(SETUPS / 2, &mut setups, build);
        stats
    };
    let setup_s = median(setups);
    describe("timed phase", &stats);
    let mut windows = stats.windows(WINDOW);
    assert!(
        !windows.is_empty(),
        "--seconds must cover at least one window"
    );
    let (mut rps, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    for w in &mut windows {
        w.sort_unstable();
        let ok = w.iter().filter(|&&l| l != u64::MAX).count();
        rps.push(ok as f64 / WINDOW.as_secs_f64());
        p50.push(quantile(w, 0.50) as f64 / 1e6);
        p99.push(quantile(w, 0.99) as f64 / 1e6);
    }
    println!(
        "  {} windows of {:?}, {}..{} requests each",
        windows.len(),
        WINDOW,
        windows.iter().map(Vec::len).min().unwrap_or(0),
        windows.iter().map(Vec::len).max().unwrap_or(0)
    );
    Report {
        attempted: stats.attempted,
        failed: stats.failed,
        metrics: vec![
            ("ok_rps", median(rps), "1/s"),
            ("p50_ms", median(p50), "ms"),
            ("p99_ms", median(p99), "ms"),
            (
                "modeled_nj_per_req",
                stats.per_ok(stats.energy_j) * 1e9,
                "nJ",
            ),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ],
    }
}

/// One row of the latency waterfall: a layer's mean self-time per
/// request, and whether it was derived by subtraction rather than timed.
struct Row {
    layer: &'static str,
    self_us: f64,
    derived: bool,
}

/// Sum of node-runtime request latencies (s) and their count across a
/// cluster's nodes, from each runtime's own metrics.
fn node_latency(co: &pic_cluster::Coordinator) -> (f64, u64) {
    (0..co.node_count())
        .map(|i| co.node(i).metrics().snapshot())
        .fold((0.0, 0), |(sum, n), s| {
            (sum + s.latency_mean_s * s.completed as f64, n + s.completed)
        })
}

#[allow(clippy::too_many_lines)]
fn traced(args: &Args, wl: &Workload) -> Report {
    // Four serving phases take 60 % of the run, the eight solo timings
    // 40 %; the workload's own stack also runs untraced for as long.
    let phase = Duration::from_secs_f64(args.seconds * 0.15);
    let solo = Duration::from_secs_f64(args.seconds * 0.05);
    let http_stack = args.kind.over_http();

    // Runtime: `Runtime::submit` → `ResponseHandle::wait` in process.
    let rt = serve::start_runtime(wl);
    closed_loop(&rt, wl, WARM, false);
    let before = rt.metrics().snapshot();
    let (untraced_rt, runtime) = if http_stack {
        (None, closed_loop(&rt, wl, phase, true))
    } else {
        let (untraced, traced) = serve::paired(&rt, wl, phase);
        (Some(untraced), traced)
    };
    let after = rt.metrics().snapshot();
    drop(rt);
    let writes = (after.tile_writes - before.tile_writes) as f64;
    let hits = (after.tile_hits - before.tile_hits) as f64;
    let served_writes_per_req = writes / (after.completed - before.completed).max(1) as f64;

    // Cluster: in-process `Coordinator::submit_blocking`, with the node
    // runtimes' own latency over the same phase.
    let co = serve::start_cluster(wl);
    closed_loop(&co, wl, WARM, false);
    let retried_before = co.counters().retried_shards;
    let (sum0, n0) = node_latency(&co);
    let cluster = closed_loop(&co, wl, phase, true);
    let (sum1, n1) = node_latency(&co);
    let retried = co.counters().retried_shards - retried_before;
    let node_call_us = (sum1 - sum0) / (n1 - n0).max(1) as f64 * 1e6;

    // Net: `NetClient::matmul` through the front-end over that cluster.
    let http = serve::start_http(wl, co);
    closed_loop(&http, wl, WARM, false);
    let (untraced_net, net) = if http_stack {
        let (untraced, traced) = serve::paired(&http, wl, phase);
        (Some(untraced), traced)
    } else {
        (None, closed_loop(&http, wl, phase, true))
    };
    drop(http);

    let write = layers::write_path(wl, solo);
    let kernel = layers::kernel(wl, solo);
    let replay = layers::replay(wl, solo);
    let codec = layers::codec(wl, solo);

    let queue_us = runtime.mean_us() - replay.execute_us;
    let cache_rebuild_us = write.tile_write_us - write.store_matrix_us;
    let net_overhead_us = net.mean_us() - cluster.mean_us();
    let kernel_us = kernel.matmul_ns_per_sample * wl.mean_samples() * wl.mean_tiles() / 1e3;
    let row = |layer, self_us, derived| Row {
        layer,
        self_us,
        derived,
    };
    let mut rows = vec![
        row(
            "psram.store_matrix",
            write.store_matrix_us * served_writes_per_req,
            false,
        ),
        row(
            "tensor.cache_rebuild",
            cache_rebuild_us * served_writes_per_req,
            true,
        ),
        row("tensor.matmul", kernel_us, false),
        row(
            "runtime.executor",
            replay.execute_us - write.tile_write_us * replay.tiles_written_per_req - kernel_us,
            true,
        ),
    ];
    let (untraced, traced) = if http_stack {
        // Node latency is per shard call and a multi-shard request's
        // calls overlap, so queueing is not split from fan-out/reduce.
        rows.extend([
            row(
                "cluster.queue_fan_out",
                cluster.mean_us() - replay.execute_us,
                true,
            ),
            row("net.front_end", net_overhead_us, true),
        ]);
        (untraced_net.as_ref(), &net)
    } else {
        rows.push(row("runtime.queue", queue_us, true));
        (untraced_rt.as_ref(), &runtime)
    };
    let untraced = untraced.expect("the workload's own stack ran untraced");
    let e2e_us = untraced.mean_us();
    let accounted: f64 = rows.iter().map(|r| r.self_us).sum();
    let residual_frac = (e2e_us - accounted) / e2e_us;
    let trace_overhead_frac = 1.0 - traced.ok_rps() / untraced.ok_rps();

    let phases: Vec<(&str, &LoopStats)> = [
        ("runtime (untraced)", untraced_rt.as_ref()),
        ("runtime (traced)", Some(&runtime)),
        ("cluster (traced)", Some(&cluster)),
        ("net (untraced)", untraced_net.as_ref()),
        ("net (traced)", Some(&net)),
    ]
    .into_iter()
    .filter_map(|(label, s)| s.map(|s| (label, s)))
    .collect();
    for (label, s) in &phases {
        describe(label, s);
    }
    println!(
        "  runtime spans: submit {:.2} us, wait {:.2} us, client self {:.2} us; served tile \
         writes/req {served_writes_per_req:.4}; cluster node call {node_call_us:.2} us",
        runtime.span_mean_us("runtime.submit"),
        runtime.span_mean_us("runtime.wait"),
        runtime.request_self_us(),
    );
    println!("  waterfall (mean self-time per request; e2e mean {e2e_us:.2} us untraced):");
    for r in &rows {
        println!(
            "    {:<24} {:>10.2} us {:>6.1} %{}",
            r.layer,
            r.self_us,
            100.0 * r.self_us / e2e_us,
            if r.derived { "  (derived)" } else { "" }
        );
    }
    println!(
        "    {:<24} {:>10.2} us {:>6.1} %",
        "residual",
        e2e_us - accounted,
        100.0 * residual_frac
    );
    println!(
        "  exact-repeat counts: psram.flips_per_tile {} runtime.tiles_written_per_req {} \
         runtime.replay_nj_per_req {}",
        write.flips_per_tile, replay.tiles_written_per_req, replay.nj_per_req
    );

    let attempted = phases.iter().map(|(_, s)| s.attempted).sum::<u64>() + replay.attempted;
    let failed = phases.iter().map(|(_, s)| s.failed).sum::<u64>() + replay.mismatches;
    Report {
        attempted,
        failed,
        metrics: vec![
            ("psram.store_matrix_us", write.store_matrix_us, "us"),
            ("psram.flips_per_tile", write.flips_per_tile, "count"),
            ("tensor.tile_write_us", write.tile_write_us, "us"),
            ("tensor.cache_rebuild_us", cache_rebuild_us, "us"),
            (
                "tensor.matmul_ns_per_sample",
                kernel.matmul_ns_per_sample,
                "ns",
            ),
            (
                "tensor.digitize_ns_per_code",
                kernel.digitize_ns_per_code,
                "ns",
            ),
            ("runtime.execute_us", replay.execute_us, "us"),
            ("runtime.queue_us", queue_us, "us"),
            (
                "runtime.tile_hit_rate",
                hits / (hits + writes).max(1.0),
                "ratio",
            ),
            (
                "runtime.mean_batch",
                runtime.per_ok(runtime.batched_with as f64),
                "count",
            ),
            (
                "runtime.tiles_written_per_req",
                replay.tiles_written_per_req,
                "count",
            ),
            ("runtime.replay_nj_per_req", replay.nj_per_req, "nJ"),
            ("cluster.submit_us", cluster.mean_us(), "us"),
            ("cluster.node_call_us", node_call_us, "us"),
            (
                "cluster.shards_per_req",
                cluster.per_ok(cluster.shards as f64),
                "count",
            ),
            ("cluster.retried_shards", retried as f64, "count"),
            ("net.overhead_us", net_overhead_us, "us"),
            ("net.http_parse_us", codec.http_parse_us, "us"),
            ("net.wire_parse_us", codec.wire_parse_us, "us"),
            ("net.reply_encode_us", codec.reply_encode_us, "us"),
            ("waterfall.residual_frac", residual_frac, "ratio"),
            ("trace_overhead_frac", trace_overhead_frac, "ratio"),
        ],
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <stream_write|resident_batch|\
                 zipf_http_cluster> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let wl = Workload::generate(args.kind, args.seed);
    println!(
        "perfbench {} seed {} ({} models, pool {}, {:.2} samples/req, {:.2} tiles/req, {} load \
         threads, trace {})",
        args.workload,
        args.seed,
        wl.models.len(),
        wl.pool.len(),
        wl.mean_samples(),
        wl.mean_tiles(),
        serve::load_threads(),
        u8::from(args.trace)
    );
    let report = if args.trace {
        traced(&args, &wl)
    } else {
        end_to_end(&args, &wl)
    };
    report.print();
}
