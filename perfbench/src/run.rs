//! Running one workload: timed passes, output checks, and the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use warpstl_core::jobs::{compact_job, compact_stl_job, CompactJobResult, JobOptions};
use warpstl_core::Compactor;
use warpstl_fault::{host_parallelism, FaultSimConfig};
use warpstl_netlist::modules::ModuleKind;
use warpstl_programs::serialize::{ptp_from_text, ptp_to_text, stl_from_text};
use warpstl_programs::Ptp;
use warpstl_serve::json::{parse, Json};
use warpstl_store::Store;

use crate::client::{request, Daemon};
use crate::measure::{git_rev, median, peak_rss_mib, process_cpu_s, quantile};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::replay::{self, compactor_for, module_compactor, modules_of, Tracer};
use crate::workloads::{self, batch_stl, divisor, Mix, Size, Workload, CLIENTS};

/// `setup_s` samples taken before each timed pass (the median over the
/// whole run is reported).
const SETUP_PER_PASS: usize = 3;
/// Repetitions of the setup-layer probe in a traced run.
const PROBE_REPS: usize = 7;
/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Measuring time of the run.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer replay.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Self-test hook: corrupt one timed pass's output before it is
    /// checked, which must count as a failure.
    pub corrupt: bool,
    /// Scratch directory for store directories (removed afterwards).
    pub work_dir: PathBuf,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (passes or requests, and replays).
    pub attempted: u64,
    /// Operations that errored or produced output that failed a check.
    pub failed: u64,
    /// `(name, value)` in catalogue order; units come from
    /// [`crate::metrics`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Facts recorded with the result (host, revision, threads, seed,
    /// scale, sample counts).
    pub info: BTreeMap<&'static str, String>,
    /// Failure descriptions, for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// `true` when no operation failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = crate::metrics::unit_of(name).unwrap_or("");
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The facts line printed before the result.
    #[must_use]
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{}\"", warpstl_serve::json::escape(v)))
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(error);
        }
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives (non-finite values, which no metric should produce,
/// print as 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (the inputs do not
/// parse, the server cannot bind). Failed operations during measurement
/// are counted in [`Outcome::failed`] instead.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        info: BTreeMap::new(),
        errors: Vec::new(),
    };
    out.info.insert("workload", cfg.workload.name().to_string());
    out.info.insert("seed", cfg.seed.to_string());
    out.info.insert("size", cfg.size.name().to_string());
    out.info
        .insert("host_cores", host_parallelism().to_string());
    out.info.insert(
        "git_rev",
        git_rev(&std::env::current_dir().unwrap_or_default()),
    );
    let values = match cfg.workload {
        Workload::StlCold | Workload::DuTrace => {
            out.info
                .insert("scale_divisor", divisor(cfg.workload, cfg.size).to_string());
            out.info.insert(
                "engine_threads",
                FaultSimConfig::default().resolved_threads().to_string(),
            );
            let text = batch_stl(cfg.workload, cfg.size, cfg.seed);
            if cfg.trace {
                batch_traced(cfg, &text, &mut out)?
            } else {
                batch_untraced(cfg, &text, &mut out)?
            }
        }
        Workload::ServeMix => {
            let mix = workloads::serve_mix(cfg.size, cfg.seed);
            out.info.insert("requests", mix.order.len().to_string());
            out.info
                .insert("distinct_requests", mix.items.len().to_string());
            out.info.insert("clients", CLIENTS.to_string());
            out.info.insert("workers", SERVE_WORKERS.to_string());
            out.info.insert("engine_threads", job_threads().to_string());
            std::fs::create_dir_all(&cfg.work_dir).map_err(|e| e.to_string())?;
            let result = if cfg.trace {
                serve_traced(cfg, &mix, &mut out)
            } else {
                serve_untraced(cfg, &mix, &mut out)
            };
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            result?
        }
    };
    let catalogue = if cfg.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        let value = values
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        out.metrics.push((name, value));
    }
    Ok(out)
}

/// Times `f` once.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Runs `pass` until `budget` has elapsed and at least `min` passes ran.
fn repeat_for(budget: f64, min: usize, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < budget {
        pass(n);
        n += 1;
    }
}

/// The deterministic quality metrics of a list of reports (each a
/// `CompactionReport::to_json` object).
fn quality(reports: &[Json]) -> Result<[f64; 3], String> {
    let num = |r: &Json, k: &str| match r.get(k) {
        Some(Json::Num(v)) => Ok(*v),
        _ => Err(format!("report lacks numeric field {k}")),
    };
    let (mut size0, mut size1, mut dur0, mut dur1, mut loss) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in reports {
        size0 += num(r, "original_size")?;
        size1 += num(r, "compacted_size")?;
        dur0 += num(r, "original_duration")?;
        dur1 += num(r, "compacted_duration")?;
        loss += (num(r, "fc_before")? - num(r, "fc_after")?) * 100.0;
    }
    Ok([
        100.0 * (1.0 - size1 / size0.max(1.0)),
        100.0 * (1.0 - dur1 / dur0.max(1.0)),
        loss / reports.len().max(1) as f64,
    ])
}

/// The self-test corruption: flips the last digit of `text`.
fn corrupt(text: &mut String) {
    if let Some(i) = text.rfind(|c: char| c.is_ascii_digit()) {
        let flipped = if &text[i..=i] == "0" { "1" } else { "0" };
        text.replace_range(i..=i, flipped);
    }
}

// ---------------------------------------------------------------------
// Batch workloads: one `compact_stl_job` call per pass, no store.

fn batch_modules(text: &str) -> Result<(Vec<ModuleKind>, Vec<Ptp>), String> {
    let stl = stl_from_text(text).map_err(|e| e.to_string())?;
    Ok((modules_of(stl.ptps()), stl.ptps().to_vec()))
}

/// One `setup_s` sample of a batch workload: the `Compactor::context_for`
/// calls of every target module.
fn context_builds(base: &Compactor, modules: &[ModuleKind]) -> f64 {
    timed(|| {
        for &m in modules {
            let _ = module_compactor(base, m).context_for(m);
        }
    })
    .0
}

/// Raw samples for the info line, so a row can be re-analysed.
fn samples(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.6}")).collect();
    v.join(",")
}

fn batch_untraced(
    cfg: &RunConfig,
    text: &str,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let opts = JobOptions::default();
    let (modules, _) = batch_modules(text)?;
    let base = compactor_for(&opts, None)?;
    // Warm-up pass: its output is the reference every timed pass matches.
    out.attempted += 1;
    let reference = compact_stl_job(text, &opts, None, None).map_err(|e| e.to_string())?;
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut cpus = Vec::new();
    repeat_for(cfg.seconds, MIN_PASSES, |n| {
        // Set-up samples are spread over the run, not taken in one burst.
        setups.extend((0..SETUP_PER_PASS).map(|_| context_builds(&base, &modules)));
        out.attempted += 1;
        let cpu = process_cpu_s();
        let (wall, result) = timed(|| compact_stl_job(text, &opts, None, None));
        walls.push(wall);
        if let (Some(before), Some(after)) = (cpu, process_cpu_s()) {
            cpus.push(after - before);
        }
        match result {
            Ok(mut job) => {
                if cfg.corrupt && n == 0 {
                    corrupt(&mut job.report_json);
                }
                if job.report_json != reference.report_json || job.compacted != reference.compacted
                {
                    out.fail(format!("pass {n}: output differs from the first pass"));
                }
            }
            Err(e) => out.fail(format!("pass {n}: {e}")),
        }
    });
    let reports = match parse(&reference.report_json) {
        Ok(Json::Arr(items)) => items,
        _ => return Err("report array does not parse".to_string()),
    };
    let [size, duration, loss] = quality(&reports)?;
    out.info.insert("passes", walls.len().to_string());
    out.info.insert("wall_samples_s", samples(&walls));
    out.info.insert("cpu_samples_s", samples(&cpus));
    out.info.insert("setup_samples", setups.len().to_string());
    out.info.insert("ptps", reports.len().to_string());
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    m.insert("size_reduction_pct", size);
    m.insert("duration_reduction_pct", duration);
    m.insert("fc_loss_pp", loss);
    // One pass is one request of the batch job; the rate is the median
    // per-pass rate, as on serve_mix.
    let rates: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    m.insert("req_per_s", median(&rates));
    m.insert("latency_p50_s", median(&walls));
    m.insert("latency_p90_s", quantile(&walls, 0.9));
    Ok(m)
}

/// Median across passes of each per-pass value.
fn medians(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut keys: Vec<&'static str> = passes.iter().flat_map(|p| p.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| p.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&v))
        })
        .collect()
}

/// Per-layer values of one replay pass from its spans and counts.
fn layer_values(t: &Tracer, wall: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("core.context_s", "core.context"),
        ("analyze.gate_s", "analyze.gate"),
        ("gpu.trace_s", "gpu.trace"),
        ("gpu.eval_trace_s", "gpu.eval_trace"),
        ("fault.sim_s", "fault.sim"),
        ("fault.eval_sim_s", "fault.eval_sim"),
        ("programs.parse_s", "programs.parse"),
        ("programs.serialize_s", "programs.serialize"),
        ("core.label_s", "core.label"),
        ("core.reduce_s", "core.reduce"),
        ("verify.reduction_s", "verify.reduction"),
    ] {
        m.insert(metric, t.total(span));
    }
    for count in [
        "gpu.sim_cycles",
        "gpu.patterns",
        "fault.calls",
        "core.sbs_removed",
        "core.essential",
        "analyze.untestable",
    ] {
        m.insert(count, t.count(count));
    }
    let gpu_s = t.total("gpu.trace") + t.total("gpu.eval_trace");
    m.insert(
        "gpu.cycles_per_s",
        t.count("gpu.sim_cycles") / gpu_s.max(1e-9),
    );
    let fault_s = t.total("fault.sim") + t.total("fault.eval_sim");
    m.insert(
        "fault.patterns_per_s",
        t.count("fault.patterns") / fault_s.max(1e-9),
    );
    m.insert(
        "fault.detect_ratio",
        t.count("fault.detected") / t.count("fault.targeted").max(1.0),
    );
    m.insert("residual_s", wall - t.top_level_total());
    m.insert("replay_wall_s", wall);
    m
}

/// Each layer's share of the replay wall, largest first — which layer a
/// workload stresses, at a glance.
fn layer_shares(m: &BTreeMap<&'static str, f64>) -> String {
    let sum = |names: &[&str]| {
        names
            .iter()
            .map(|n| m.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
    };
    let mut shares = [
        ("fault", sum(&["fault.sim_s", "fault.eval_sim_s"])),
        ("gpu", sum(&["gpu.trace_s", "gpu.eval_trace_s"])),
        ("core.context", sum(&["core.context_s"])),
        ("core", sum(&["core.label_s", "core.reduce_s"])),
        ("analyze", sum(&["analyze.gate_s"])),
        ("verify", sum(&["verify.reduction_s"])),
        (
            "programs",
            sum(&["programs.parse_s", "programs.serialize_s"]),
        ),
        ("residual", sum(&["residual_s"])),
    ];
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let wall = m.get("replay_wall_s").copied().unwrap_or(1.0);
    let parts: Vec<String> = shares
        .iter()
        .map(|(n, v)| format!("{n} {:.3}", v / wall))
        .collect();
    parts.join(", ")
}

/// The setup-layer probe: median over [`PROBE_REPS`] of each context
/// building block and of the partitioning pass.
fn setup_layers(modules: &[ModuleKind], ptps: &[Ptp]) -> BTreeMap<&'static str, f64> {
    let passes: Vec<BTreeMap<&'static str, f64>> = (0..PROBE_REPS)
        .map(|_| {
            let mut t = Tracer::default();
            replay::probe_setup_layers(modules, ptps, &mut t);
            let mut m = BTreeMap::new();
            for (metric, span) in [
                ("netlist.build_s", "netlist.build"),
                ("netlist.levelize_s", "netlist.levelize"),
                ("fault.universe_s", "fault.universe"),
                ("analyze.run_s", "analyze.run"),
                ("programs.partition_s", "programs.partition"),
            ] {
                m.insert(metric, t.total(span));
            }
            m.insert("netlist.gates", t.count("netlist.gates"));
            m.insert("fault.collapsed_faults", t.count("fault.collapsed_faults"));
            m
        })
        .collect();
    medians(&passes)
}

/// Store counters of a replay against a store, plus the hit/miss time
/// split the replay measured.
fn store_values(store: &Store, traces: &[&Tracer]) -> BTreeMap<&'static str, f64> {
    let s = store.session();
    let mut m = BTreeMap::new();
    m.insert("store.hits", s.hits as f64);
    m.insert("store.misses", s.misses as f64);
    m.insert("store.writes", s.writes as f64);
    m.insert("store.corrupt", s.corrupt as f64);
    m.insert(
        "store.hit_ratio",
        s.hits as f64 / ((s.hits + s.misses) as f64).max(1.0),
    );
    m.insert(
        "store.read_s",
        traces.iter().map(|t| t.count("store.read_s")).sum(),
    );
    m.insert(
        "store.miss_s",
        traces.iter().map(|t| t.count("store.miss_s")).sum(),
    );
    m
}

fn batch_traced(
    cfg: &RunConfig,
    text: &str,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let opts = JobOptions::default();
    let (modules, ptps) = batch_modules(text)?;
    out.attempted += 1;
    let reference = compact_stl_job(text, &opts, None, None).map_err(|e| e.to_string())?;
    let expected = (reference.compacted.clone(), reference.report_json.clone());

    // Untraced passes and traced replays alternate, so drifting host load
    // biases neither side of the overhead comparison.
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    repeat_for(cfg.seconds, 2, |n| {
        out.attempted += 2;
        let (wall, result) = timed(|| compact_stl_job(text, &opts, None, None));
        walls.push(wall);
        match result {
            Ok(job) => check_replay(
                out,
                n,
                Ok((job.compacted, job.report_json)),
                &expected,
                false,
            ),
            Err(e) => out.fail(format!("pass {n}: {e}")),
        }
        let mut t = Tracer::default();
        let (wall, result) = timed(|| replay::compact_stl_text(text, &opts, None, &mut t));
        check_replay(out, n, result, &expected, cfg.corrupt && n == 0);
        passes.push(layer_values(&t, wall));
    });
    let mut m = medians(&passes);
    let untraced = median(&walls);
    m.insert(
        "trace_overhead_pct",
        100.0 * (m["replay_wall_s"] - untraced) / untraced,
    );
    m.extend(setup_layers(&modules, &ptps));

    // The workload runs store-less; a cold and a warm replay against a
    // fresh store measure the store layer on the same fault-sim calls.
    let dir = cfg.work_dir.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(Store::open(&dir).map_err(|e| e.to_string())?);
    let mut cold = Tracer::default();
    let mut warm = Tracer::default();
    for t in [&mut cold, &mut warm] {
        out.attempted += 1;
        let result = replay::compact_stl_text(text, &opts, Some(Arc::clone(&store)), t);
        check_replay(out, 0, result, &expected, false);
    }
    m.extend(store_values(&store, &[&cold, &warm]));
    let _ = std::fs::remove_dir_all(&cfg.work_dir);

    m.insert("serve.overhead_s", serve_probe(&ptps, out)?);
    m.insert("serve.rejected", 0.0);
    out.info.insert("passes", walls.len().to_string());
    out.info.insert("replays", passes.len().to_string());
    out.info.insert("layer_shares", layer_shares(&m));
    Ok(m)
}

/// Repetitions of each side of the batch workloads' serve probe.
const SERVE_PROBE_REPS: usize = 3;

/// The serve layer on a batch workload: the workload's smallest PTP sent
/// to a one-worker daemon (so the job gets the batch engine threads) as a
/// `/compact` request, latency minus the in-process `compact_job` time,
/// medians of [`SERVE_PROBE_REPS`]. The whole STL is not sent: the
/// request-body parser's cost grows faster than linearly with body size,
/// and paper-scale bodies would take minutes.
fn serve_probe(ptps: &[Ptp], out: &mut Outcome) -> Result<f64, String> {
    let texts: Vec<String> = ptps.iter().map(ptp_to_text).collect();
    let text = texts
        .iter()
        .min_by_key(|t| t.len())
        .ok_or("workload has no PTP")?;
    let opts = JobOptions::default();
    let mut job_times = Vec::new();
    let mut expected = None;
    for _ in 0..SERVE_PROBE_REPS {
        out.attempted += 1;
        let (secs, job) = timed(|| compact_job(text, &opts, None, None));
        job_times.push(secs);
        expected = Some(job.map_err(|e| e.to_string())?);
    }
    let expected = expected.ok_or("no in-process probe ran")?;
    let (daemon, _) = Daemon::start(1, None).map_err(|e| e.to_string())?;
    let body = format!("{{\"ptp\": \"{}\"}}", warpstl_serve::json::escape(text));
    let mut latencies = Vec::new();
    for n in 0..SERVE_PROBE_REPS {
        out.attempted += 1;
        let (latency, reply) = timed(|| request(daemon.addr(), "POST", "/compact", &body));
        latencies.push(latency);
        if !reply_matches(&reply, &expected) {
            out.fail(format!(
                "serve probe {n}: response differs from the in-process job"
            ));
        }
    }
    daemon.stop();
    Ok(median(&latencies) - median(&job_times))
}

/// `true` for a 200 whose body matches `expected` (see [`body_matches`]).
fn reply_matches(reply: &std::io::Result<(u16, String)>, expected: &CompactJobResult) -> bool {
    matches!(reply, Ok((200, body)) if body_matches(body, expected))
}

/// `true` when a `/compact` response envelope carries `expected`'s
/// compacted PTP and report.
fn body_matches(body: &str, expected: &CompactJobResult) -> bool {
    parse(body).ok().is_some_and(|json| {
        json.get("compacted").and_then(Json::as_str) == Some(expected.compacted.as_str())
            && json.get("report") == parse(&expected.report_json).ok().as_ref()
    })
}

/// A job result as the `(compacted, report)` pair replays are checked
/// against.
fn oracle_of(job: &CompactJobResult) -> (String, String) {
    (job.compacted.clone(), job.report_json.clone())
}

/// Opens an empty store at `dir`, counting a failure when it cannot.
fn fresh_store(dir: &std::path::Path, out: &mut Outcome) -> Option<Arc<Store>> {
    let _ = std::fs::remove_dir_all(dir);
    match Store::open(dir) {
        Ok(store) => Some(Arc::new(store)),
        Err(e) => {
            out.fail(format!("cannot open a store: {e}"));
            None
        }
    }
}

fn check_replay(
    out: &mut Outcome,
    n: usize,
    result: Result<(String, String), String>,
    expected: &(String, String),
    corrupt_it: bool,
) {
    match result {
        Ok((mut compacted, report)) => {
            if corrupt_it {
                corrupt(&mut compacted);
            }
            if compacted != expected.0 || report != expected.1 {
                out.fail(format!("replay {n}: output differs from the untraced job"));
            }
        }
        Err(e) => out.fail(format!("replay {n}: {e}")),
    }
}

// ---------------------------------------------------------------------
// serve_mix: two closed-loop clients against an in-process daemon.

/// Daemon start-ups timed before each `serve_mix` pass for `setup_s`.
const SERVE_SETUP_PER_PASS: usize = 15;

/// Worker pool size of the `serve_mix` daemon.
const SERVE_WORKERS: usize = 2;

/// Engine threads each serve job gets (the daemon's own rule).
fn job_threads() -> usize {
    (host_parallelism() / SERVE_WORKERS).max(1)
}

fn mix_opts(mix: &Mix, item: usize) -> JobOptions {
    JobOptions {
        fault_model: mix.items[item].model,
        threads: job_threads(),
        ..JobOptions::default()
    }
}

/// The in-process oracle: `compact_job` for every distinct request, no
/// store.
fn oracle(mix: &Mix) -> Result<Vec<CompactJobResult>, String> {
    (0..mix.items.len())
        .map(|i| {
            compact_job(&mix.items[i].ptp, &mix_opts(mix, i), None, None).map_err(|e| e.to_string())
        })
        .collect()
}

/// A response (status and body), or why the exchange failed.
type Reply = Result<(u16, String), String>;

/// One pass of the request mix over a fresh daemon and store.
struct ServePass {
    wall: f64,
    /// Per request position: latency and the response.
    replies: Vec<(f64, Reply)>,
}

fn serve_pass(mix: &Mix, bodies: &[String], dir: &std::path::Path) -> Result<ServePass, String> {
    let (daemon, _) = Daemon::start(SERVE_WORKERS, Some(dir)).map_err(|e| e.to_string())?;
    let addr = daemon.addr();
    let start = Instant::now();
    let per_client: Vec<Vec<(usize, f64, Reply)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    (c..mix.order.len())
                        .step_by(CLIENTS)
                        .map(|pos| {
                            let (lat, reply) = timed(|| {
                                request(addr, "POST", "/compact", &bodies[mix.order[pos]])
                            });
                            (pos, lat, reply.map_err(|e| e.to_string()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    daemon.stop();
    let mut replies: Vec<Option<(f64, Reply)>> = vec![None; mix.order.len()];
    for (pos, lat, reply) in per_client.into_iter().flatten() {
        replies[pos] = Some((lat, reply));
    }
    Ok(ServePass {
        wall,
        replies: replies
            .into_iter()
            .map(|r| r.expect("every request sent"))
            .collect(),
    })
}

/// Checks one pass: every response is a 200 whose compacted PTP and report
/// equal the oracle's, and byte-identical to the reference pass's response
/// at the same position. Returns the count of 429 answers.
fn check_serve_pass(
    out: &mut Outcome,
    mix: &Mix,
    pass: &mut ServePass,
    oracle: &[CompactJobResult],
    reference: Option<&ServePass>,
    corrupt_it: bool,
) -> u64 {
    let mut rejected = 0;
    if corrupt_it {
        if let Some((_, Ok((_, body)))) = pass.replies.first_mut() {
            corrupt(body);
        }
    }
    for (pos, (_, reply)) in pass.replies.iter().enumerate() {
        out.attempted += 1;
        let item = mix.order[pos];
        let body = match reply {
            Ok((200, body)) => body,
            Ok((status, _)) => {
                rejected += u64::from(*status == 429);
                out.fail(format!("request {pos}: HTTP {status}"));
                continue;
            }
            Err(e) => {
                out.fail(format!("request {pos}: {e}"));
                continue;
            }
        };
        if !body_matches(body, &oracle[item]) {
            out.fail(format!(
                "request {pos}: response differs from the in-process oracle"
            ));
        } else if let Some(Ok((_, first))) = reference.map(|r| &r.replies[pos].1) {
            if first != body {
                out.fail(format!(
                    "request {pos}: response differs from the first pass"
                ));
            }
        }
    }
    rejected
}

/// `SERVE_SETUP_PER_PASS` samples of the daemon's set-up: `serve()` with
/// a fresh store until the first `/healthz` answer.
fn serve_setup(cfg: &RunConfig, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SERVE_SETUP_PER_PASS {
        let dir = cfg.work_dir.join(format!("setup-{}", setups.len()));
        let (daemon, secs) = Daemon::start(SERVE_WORKERS, Some(&dir)).map_err(|e| e.to_string())?;
        daemon.stop();
        setups.push(secs);
    }
    Ok(())
}

fn serve_untraced(
    cfg: &RunConfig,
    mix: &Mix,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let oracle = oracle(mix)?;
    let bodies: Vec<String> = mix.items.iter().map(workloads::MixItem::body).collect();
    let dir = cfg.work_dir.join("store");
    let mut reference = serve_pass(mix, &bodies, &dir)?;
    check_serve_pass(out, mix, &mut reference, &oracle, None, false);
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut setups = Vec::new();
    let mut error: Option<String> = None;
    repeat_for(cfg.seconds, MIN_PASSES, |n| {
        if let Err(e) = serve_setup(cfg, &mut setups) {
            error = Some(e);
            return;
        }
        match serve_pass(mix, &bodies, &dir) {
            Ok(mut pass) => {
                check_serve_pass(
                    out,
                    mix,
                    &mut pass,
                    &oracle,
                    Some(&reference),
                    cfg.corrupt && n == 0,
                );
                walls.push(pass.wall);
                latencies.extend(pass.replies.iter().map(|(lat, _)| *lat));
            }
            Err(e) => error = Some(e),
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    // Quality over the distinct requests: what the server computed once.
    let reports: Vec<Json> = oracle
        .iter()
        .map(|job| parse(&job.report_json))
        .collect::<Result<_, _>>()?;
    let [size, duration, loss] = quality(&reports)?;
    out.info.insert("passes", walls.len().to_string());
    out.info
        .insert("latency_samples", latencies.len().to_string());
    out.info.insert("wall_samples_s", samples(&walls));
    out.info.insert("setup_samples", setups.len().to_string());
    let rates: Vec<f64> = walls.iter().map(|w| mix.order.len() as f64 / w).collect();
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", peak_rss_mib().unwrap_or(0.0));
    m.insert("size_reduction_pct", size);
    m.insert("duration_reduction_pct", duration);
    m.insert("fc_loss_pp", loss);
    m.insert("req_per_s", median(&rates));
    m.insert("latency_p50_s", median(&latencies));
    m.insert("latency_p90_s", quantile(&latencies, 0.9));
    Ok(m)
}

fn serve_traced(
    cfg: &RunConfig,
    mix: &Mix,
    out: &mut Outcome,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let oracle = oracle(mix)?;
    let bodies: Vec<String> = mix.items.iter().map(workloads::MixItem::body).collect();
    let dir = cfg.work_dir.join("store");

    // The served mix, timed per request.
    let mut rejected = 0;
    let mut per_position: Vec<Vec<f64>> = vec![Vec::new(); mix.order.len()];
    let mut reference: Option<ServePass> = None;
    let mut error: Option<String> = None;
    repeat_for(cfg.seconds / 3.0, 1, |_| {
        match serve_pass(mix, &bodies, &dir) {
            Ok(mut pass) => {
                rejected +=
                    check_serve_pass(out, mix, &mut pass, &oracle, reference.as_ref(), false);
                for (pos, (lat, _)) in pass.replies.iter().enumerate() {
                    per_position[pos].push(*lat);
                }
                reference.get_or_insert(pass);
            }
            Err(e) => error = Some(e),
        }
    });
    if let Some(e) = error {
        return Err(e);
    }

    // The same requests in order, in-process and as a traced replay,
    // alternating, each pass against a fresh store (so repeats hit it as
    // they do when served).
    let mut job_times: Vec<Vec<f64>> = vec![Vec::new(); mix.order.len()];
    let mut walls = Vec::new();
    let mut passes = Vec::new();
    let mut store_metrics = BTreeMap::new();
    repeat_for(cfg.seconds * 2.0 / 3.0, 2, |n| {
        let Some(store) = fresh_store(&dir, out) else {
            return;
        };
        let start = Instant::now();
        for (pos, &item) in mix.order.iter().enumerate() {
            out.attempted += 1;
            let store = Some(Arc::clone(&store));
            let (secs, result) =
                timed(|| compact_job(&mix.items[item].ptp, &mix_opts(mix, item), store, None));
            job_times[pos].push(secs);
            match result {
                Ok(job) => check_replay(
                    out,
                    pos,
                    Ok((job.compacted, job.report_json)),
                    &oracle_of(&oracle[item]),
                    false,
                ),
                Err(e) => out.fail(format!("in-process request {pos}: {e}")),
            }
        }
        walls.push(start.elapsed().as_secs_f64());

        let Some(store) = fresh_store(&dir, out) else {
            return;
        };
        let mut t = Tracer::default();
        let start = Instant::now();
        for (pos, &item) in mix.order.iter().enumerate() {
            out.attempted += 1;
            let store = Some(Arc::clone(&store));
            let result =
                replay::compact_ptp_text(&mix.items[item].ptp, &mix_opts(mix, item), store, &mut t);
            let corrupt_it = cfg.corrupt && n == 0 && pos == 0;
            check_replay(out, pos, result, &oracle_of(&oracle[item]), corrupt_it);
        }
        let wall = start.elapsed().as_secs_f64();
        if n == 0 {
            store_metrics = store_values(&store, &[&t]);
        }
        passes.push(layer_values(&t, wall));
    });
    let untraced = median(&walls);
    let overheads: Vec<f64> = per_position
        .iter()
        .zip(&job_times)
        .map(|(lats, jobs)| median(lats) - median(jobs))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let mut m = medians(&passes);
    m.insert(
        "trace_overhead_pct",
        100.0 * (m["replay_wall_s"] - untraced) / untraced,
    );
    m.extend(store_metrics);
    m.insert("serve.overhead_s", median(&overheads));
    m.insert("serve.rejected", rejected as f64);
    let ptps: Vec<Ptp> = mix
        .items
        .iter()
        .map(|item| ptp_from_text(&item.ptp).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    m.extend(setup_layers(&modules_of(&ptps), &ptps));
    out.info.insert("replays", passes.len().to_string());
    out.info.insert("layer_shares", layer_shares(&m));
    Ok(m)
}
