//! The serving stacks and the closed-loop load generator that drives
//! them, with optional benchmark-side spans around each layer call.

use crate::workload::Workload;
use pic_cluster::{ClusterConfig, Coordinator};
use pic_net::{MatmulWire, NetClient, NetConfig, NetServer};
use pic_runtime::{MatmulRequest, OutputElement, Runtime, RuntimeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests in flight: one closed-loop load thread (and, over HTTP, one
/// keep-alive connection) each.
const IN_FLIGHT: usize = 2;

/// The load threads a run uses: [`IN_FLIGHT`], never more than the
/// host's cores.
pub fn load_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = IN_FLIGHT.min(cores);
    assert!(
        (1..=cores).contains(&threads),
        "load generator must use at most {cores} threads"
    );
    threads
}

/// One recorded span: a layer call made for one request. `parent`
/// indexes the request's root span in the same log (`None` on the
/// root itself).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: usize,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }
}

/// A per-thread in-memory span log. A disabled log records nothing and
/// reads no clocks.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
    root: Option<usize>,
}

impl SpanLog {
    /// The current time when tracing, else `None`.
    pub fn now(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Records a child span of the current request.
    pub fn child(&mut self, name: &'static str, start: Option<Instant>, end: Option<Instant>) {
        if let (Some(start), Some(end), Some(root)) = (start, end, self.root) {
            let request = self.spans[root].request;
            self.spans.push(Span {
                request,
                name,
                start,
                end,
                parent: Some(root),
            });
        }
    }

    fn begin(&mut self, request: usize, start: Instant) {
        if self.enabled {
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                request,
                name: "request",
                start,
                end: start,
                parent: None,
            });
        }
    }

    fn finish(&mut self, end: Instant) {
        if let Some(root) = self.root.take() {
            self.spans[root].end = end;
        }
    }
}

/// One served reply, as the benchmark checks and costs it.
#[derive(Debug)]
pub struct Served {
    pub outputs: Vec<Vec<OutputElement>>,
    pub energy_j: f64,
    pub batched_with: usize,
    /// Shard calls the request fanned out to (1 outside the cluster).
    pub shards: usize,
}

/// A layer entry point the load generator can drive.
pub trait Target: Sync {
    /// The request as the entry point takes it, built before its timer
    /// starts.
    type Req;
    fn prepare(&self, wl: &Workload, idx: usize) -> Self::Req;
    fn call(&self, worker: usize, req: Self::Req, log: &mut SpanLog) -> Result<Served, String>;
}

fn matmul_request(wl: &Workload, idx: usize) -> MatmulRequest {
    let item = &wl.pool[idx];
    MatmulRequest::new(Arc::clone(&wl.models[item.model]), item.inputs.clone())
}

impl Target for Runtime {
    type Req = MatmulRequest;
    fn prepare(&self, wl: &Workload, idx: usize) -> MatmulRequest {
        matmul_request(wl, idx)
    }
    fn call(&self, _: usize, req: MatmulRequest, log: &mut SpanLog) -> Result<Served, String> {
        let t0 = log.now();
        let handle = self.submit(req).map_err(|e| e.to_string())?;
        let t1 = log.now();
        let resp = handle.wait().map_err(|e| e.to_string())?;
        log.child("runtime.submit", t0, t1);
        log.child("runtime.wait", t1, log.now());
        Ok(Served {
            outputs: resp.outputs,
            energy_j: resp.cost.total_energy_j(),
            batched_with: resp.batched_with,
            shards: 1,
        })
    }
}

impl Target for Coordinator {
    type Req = MatmulRequest;
    fn prepare(&self, wl: &Workload, idx: usize) -> MatmulRequest {
        matmul_request(wl, idx)
    }
    fn call(&self, _: usize, req: MatmulRequest, _: &mut SpanLog) -> Result<Served, String> {
        let resp = self.submit_blocking(req).map_err(|e| e.to_string())?;
        Ok(Served {
            outputs: resp.outputs,
            energy_j: resp.cost.total_energy_j(),
            batched_with: resp.batched_with,
            shards: resp.shards,
        })
    }
}

/// The HTTP front-end over a cluster, with one keep-alive client per
/// load thread.
#[derive(Debug)]
pub struct Http {
    // Declared first so the connections close before the server drains.
    clients: Vec<Mutex<NetClient>>,
    _server: NetServer<Coordinator>,
}

impl Target for Http {
    type Req = MatmulWire;
    fn prepare(&self, wl: &Workload, idx: usize) -> MatmulWire {
        let item = &wl.pool[idx];
        MatmulWire {
            model: wl.names[item.model].clone(),
            inputs: item.inputs.clone(),
            deadline_ms: None,
        }
    }
    fn call(&self, worker: usize, req: MatmulWire, _: &mut SpanLog) -> Result<Served, String> {
        let mut client = self.clients[worker].lock().expect("client lock poisoned");
        let reply = client.matmul(&req).map_err(|e| format!("{e:?}"))?;
        Ok(Served {
            outputs: reply.outputs,
            energy_j: reply.energy_j,
            batched_with: usize::try_from(reply.batched_with).expect("batch size fits usize"),
            shards: 1,
        })
    }
}

/// A fixed probe input per model: what set-up sends to warm each one.
fn warm_inputs(wl: &Workload, model: usize) -> Vec<Vec<f64>> {
    vec![vec![0.5; wl.models[model].in_dim()]]
}

/// An in-process runtime in the paper configuration, warmed with one
/// request per model.
pub fn start_runtime(wl: &Workload) -> Runtime {
    let rt = Runtime::start(RuntimeConfig::paper());
    for (m, matrix) in wl.models.iter().enumerate() {
        rt.submit(MatmulRequest::new(Arc::clone(matrix), warm_inputs(wl, m)))
            .and_then(pic_runtime::ResponseHandle::wait)
            .expect("warm-up request is served");
    }
    rt
}

/// A 2-node paper cluster with every model registered under its load
/// hint, warmed with one request per model.
pub fn start_cluster(wl: &Workload) -> Coordinator {
    let co = Coordinator::start(ClusterConfig::paper(2));
    for (matrix, &load) in wl.models.iter().zip(&wl.loads) {
        co.register(matrix, load);
    }
    for (m, matrix) in wl.models.iter().enumerate() {
        co.submit_blocking(MatmulRequest::new(Arc::clone(matrix), warm_inputs(wl, m)))
            .expect("warm-up request is served");
    }
    co
}

/// The default HTTP front-end on a loopback port over `cluster`, one
/// connected client per load thread, warmed with one request per model.
pub fn start_http(wl: &Workload, cluster: Coordinator) -> Http {
    let registry = wl
        .names
        .iter()
        .cloned()
        .zip(wl.models.iter().cloned())
        .collect();
    let server =
        NetServer::start(NetConfig::default(), cluster, registry).expect("bind loopback port");
    let clients: Vec<Mutex<NetClient>> = (0..load_threads())
        .map(|w| {
            NetClient::connect(server.local_addr(), &format!("load-{w}"))
                .map(Mutex::new)
                .expect("connect to the loopback server")
        })
        .collect();
    let http = Http {
        clients,
        _server: server,
    };
    for (m, name) in wl.names.iter().enumerate() {
        let wire = MatmulWire {
            model: name.clone(),
            inputs: warm_inputs(wl, m),
            deadline_ms: None,
        };
        http.clients[0]
            .lock()
            .expect("client lock poisoned")
            .matmul(&wire)
            .expect("warm-up request is served");
    }
    http
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    /// Per-request latency, submit to reply; failed requests sort last
    /// as `u64::MAX`.
    pub latencies_ns: Vec<u64>,
    /// When each request finished, from the start of the phase, in the
    /// order of `latencies_ns`.
    pub done_ns: Vec<u64>,
    /// Modeled device energy summed over OK replies.
    pub energy_j: f64,
    pub batched_with: u64,
    pub shards: u64,
    /// First call to last reply.
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub first_error: Option<String>,
}

impl LoopStats {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ok_rps(&self) -> f64 {
        self.ok() as f64 / self.wall_s
    }

    /// Splits the phase into whole `window`s, dropping the partial tail,
    /// and returns the latencies of the requests that finished in each.
    pub fn windows(&self, window: Duration) -> Vec<Vec<u64>> {
        let width = window.as_nanos() as u64;
        let count = (self.wall_s * 1e9) as u64 / width;
        let mut windows = vec![Vec::new(); count as usize];
        for (&latency, &done) in self.latencies_ns.iter().zip(&self.done_ns) {
            if let Some(w) = windows.get_mut((done / width) as usize) {
                w.push(latency);
            }
        }
        windows
    }

    /// Mean latency of OK requests in microseconds.
    pub fn mean_us(&self) -> f64 {
        let ok: Vec<u64> = self
            .latencies_ns
            .iter()
            .copied()
            .filter(|&l| l != u64::MAX)
            .collect();
        ok.iter().sum::<u64>() as f64 / ok.len().max(1) as f64 / 1e3
    }

    pub fn per_ok(&self, total: f64) -> f64 {
        total / self.ok().max(1) as f64
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn span_mean_us(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0usize), |(sum, n), s| (sum + s.micros(), n + 1));
        sum / n.max(1) as f64
    }

    /// Mean self-time of the root `request` spans in microseconds: their
    /// duration less the part their child spans cover.
    pub fn request_self_us(&self) -> f64 {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| if s.parent.is_none() { s.micros() } else { 0.0 })
            .collect();
        for s in &self.spans {
            if let Some(root) = s.parent {
                own[root] -= s.micros();
            }
        }
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        own.iter().sum::<f64>() / roots.max(1) as f64
    }

    /// Folds a later phase of the same loop into this one.
    pub fn merge(&mut self, other: LoopStats) {
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ns.extend(other.latencies_ns);
        self.done_ns.extend(other.done_ns);
        self.energy_j += other.energy_j;
        self.batched_with += other.batched_with;
        self.shards += other.shards;
        self.spans.extend(other.spans);
        self.first_error = self.first_error.take().or(other.first_error);
    }
}

/// Drives `target` closed-loop for `duration` with [`load_threads`]
/// threads, each sending its next pooled request when the previous one
/// is answered. Every reply is checked against the workload's expected
/// outputs; an error or a mismatch counts as a failed request.
pub fn closed_loop<T: Target>(
    target: &T,
    wl: &Workload,
    duration: Duration,
    trace: bool,
) -> LoopStats {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + duration;
    let (mut stats, last) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..load_threads())
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut stats = LoopStats::default();
                    let mut log = SpanLog {
                        enabled: trace,
                        ..SpanLog::default()
                    };
                    let mut last = start;
                    while Instant::now() < deadline {
                        let request = next.fetch_add(1, Ordering::Relaxed);
                        let idx = request % wl.pool.len();
                        let req = target.prepare(wl, idx);
                        let t0 = Instant::now();
                        log.begin(request, t0);
                        let result = target.call(worker, req, &mut log);
                        last = Instant::now();
                        log.finish(last);
                        stats.attempted += 1;
                        stats.done_ns.push((last - start).as_nanos() as u64);
                        match result {
                            Ok(served) if wl.matches(idx, &served.outputs) => {
                                stats.latencies_ns.push((last - t0).as_nanos() as u64);
                                stats.energy_j += served.energy_j;
                                stats.batched_with += served.batched_with as u64;
                                stats.shards += served.shards as u64;
                            }
                            outcome => {
                                stats.failed += 1;
                                stats.latencies_ns.push(u64::MAX);
                                stats.first_error.get_or_insert_with(|| match outcome {
                                    Ok(_) => {
                                        format!("request {idx}: outputs differ from the oracle")
                                    }
                                    Err(e) => format!("request {idx}: {e}"),
                                });
                            }
                        }
                    }
                    stats.spans = log.spans;
                    (stats, last)
                })
            })
            .collect();
        let mut total = LoopStats::default();
        let mut last = start;
        for w in workers {
            let (stats, end) = w.join().expect("load thread panicked");
            total.merge(stats);
            last = last.max(end);
        }
        (total, last)
    });
    stats.wall_s = (last - start).as_secs_f64();
    stats
}

/// Measures `target` untraced and traced for `phase` each, in the order
/// untraced, traced, untraced so that drift over the run cancels in
/// their comparison.
pub fn paired<T: Target>(target: &T, wl: &Workload, phase: Duration) -> (LoopStats, LoopStats) {
    let mut untraced = closed_loop(target, wl, phase / 2, false);
    let traced = closed_loop(target, wl, phase, true);
    untraced.merge(closed_loop(target, wl, phase / 2, false));
    (untraced, traced)
}
