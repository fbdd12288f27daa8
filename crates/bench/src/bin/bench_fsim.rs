//! Measures the parallel fault-simulation engine and writes
//! `BENCH_fsim.json` at the repo root.
//!
//! For each module the binary times:
//!
//! - the serial reference engine (`fault_simulate_reference`: no fanout-cone
//!   pruning, single thread), and
//! - the production engine (`fault_simulate`) at 1, 2, 4 and 8 threads,
//!   capped at the host core count (oversubscribed configurations resolve
//!   to the same clamped worker count and would only duplicate the
//!   `engine/host_cores` row — they are skipped and listed in the JSON),
//!
//! in non-drop mode (load-stable: every run simulates every fault against
//! every pattern). It reports patterns/second, the speedup of each engine
//! configuration over `engine` at `threads = 1`, and the speedup over the
//! unpruned reference. The host core count is recorded so single-core
//! results (where thread scaling cannot show) are interpretable. A final
//! guard times the single-thread engine with a live [`Recorder`] attached
//! against the default no-op handle, bounding the observability overhead.
//!
//! Usage: `cargo run --release -p warpstl-bench --bin bench_fsim`
//! (or via `scripts/bench_fsim.sh`).

use std::sync::Arc;
use std::time::Instant;

use warpstl_bench::{compact_group, Scale};
use warpstl_campaign::{run_campaign, CampaignConfig, CampaignSpec};
use warpstl_core::{Compactor, StageTimings};
use warpstl_fault::{
    fault_simulate, fault_simulate_reference, FaultList, FaultSimConfig, FaultUniverse, SimBackend,
    SimGuide,
};
use warpstl_netlist::modules::ModuleKind;
use warpstl_netlist::{Netlist, PatternSeq};
use warpstl_obs::json::{Fixed, Writer};
use warpstl_obs::Recorder;
use warpstl_programs::generators::{generate_cntrl, generate_imm, generate_mem};
use warpstl_store::{atomic_write, Store};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn pseudorandom_patterns(width: usize, count: usize, mut seed: u64) -> PatternSeq {
    let mut p = PatternSeq::new(width);
    for cc in 0..count as u64 {
        let bits: Vec<bool> = (0..width)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed & 1 == 1
            })
            .collect();
        p.push_bits(cc, &bits);
    }
    p
}

// The legacy engine rows pin the event backend so `engine/1 vs reference`
// keeps isolating fanout-cone pruning; the levelized kernel is measured
// separately in the `kernel` block.
fn non_drop(threads: usize) -> FaultSimConfig {
    FaultSimConfig {
        drop_detected: false,
        early_exit: false,
        threads,
        backend: SimBackend::Event,
    }
}

/// Best-of-`reps` wall time for one engine invocation, in seconds.
fn time_best<F: FnMut(&mut FaultList)>(universe: &FaultUniverse, reps: usize, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut list = FaultList::new(universe);
        let start = Instant::now();
        run(&mut list);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

struct ModuleResult {
    name: String,
    patterns: usize,
    faults: usize,
    reference_s: f64,
    engine_s: Vec<(usize, f64)>,
}

fn measure(
    name: &str,
    netlist: &Netlist,
    patterns: usize,
    reps: usize,
    thread_counts: &[usize],
) -> ModuleResult {
    let pats = pseudorandom_patterns(
        netlist.inputs().width(),
        patterns,
        0xb5eed ^ patterns as u64,
    );
    let universe = FaultUniverse::enumerate(netlist);

    eprintln!(
        "[bench_fsim] {name}: {} collapsed faults, {patterns} patterns",
        { universe.collapsed_len() }
    );
    let reference_s = time_best(&universe, reps, |list| {
        fault_simulate_reference(netlist, &pats, list, &non_drop(1));
    });
    eprintln!("[bench_fsim]   reference      {reference_s:.4}s");

    let engine_s: Vec<(usize, f64)> = thread_counts
        .iter()
        .map(|&t| {
            let s = time_best(&universe, reps, |list| {
                fault_simulate(
                    netlist,
                    &pats,
                    list,
                    &non_drop(t),
                    None,
                    &SimGuide::default(),
                );
            });
            eprintln!("[bench_fsim]   engine t={t}     {s:.4}s");
            (t, s)
        })
        .collect();

    ModuleResult {
        name: name.to_string(),
        patterns,
        faults: universe.collapsed_len(),
        reference_s,
        engine_s,
    }
}

struct ImplicationResult {
    name: String,
    patterns: usize,
    collapsed: usize,
    pruned: usize,
    implication_s: f64,
    /// `(backend label, unpruned_s, pruned_s)` per engine backend.
    backends: Vec<(&'static str, f64, f64)>,
}

/// Times the production drop-mode engine with the statically
/// proven-untestable classes left in the universe against the same run
/// with them pruned out (single thread, both backends), gated on
/// bit-identity of the detected-fault set: pruned faults are provably
/// undetectable, so the fault lists must agree entry for entry.
fn measure_implications(
    name: &str,
    kind: ModuleKind,
    patterns: usize,
    reps: usize,
) -> ImplicationResult {
    let netlist = kind.build();
    let pats = pseudorandom_patterns(netlist.inputs().width(), patterns, 0x1a2b ^ patterns as u64);
    let universe = FaultUniverse::enumerate(&netlist);

    // One-time static-analysis cost (the implication graph and the proofs;
    // the class mapping rides along in the module context).
    let start = Instant::now();
    let imp = warpstl_analyze::Implications::compute(&netlist);
    let _proofs = warpstl_analyze::Untestability::compute(&netlist, &imp);
    let implication_s = start.elapsed().as_secs_f64();
    let ctx = Compactor::default().context_for(kind);
    let bitmap = ctx.untestable_bitmap().to_vec();
    let pruned = bitmap.iter().filter(|&&b| b).count();

    eprintln!(
        "[bench_fsim] {name}: {} collapsed classes, {pruned} statically pruned, {patterns} patterns (drop mode)",
        universe.collapsed_len()
    );
    let mut backends = Vec::new();
    for (label, backend) in [("event", SimBackend::Event), ("kernel", SimBackend::Kernel)] {
        let cfg = FaultSimConfig {
            threads: 1,
            backend,
            ..FaultSimConfig::default()
        };
        let off_guide = SimGuide::default();
        let on_guide = SimGuide {
            untestable: Some(&bitmap),
            ..SimGuide::default()
        };

        // Detected-set identity before any timing is recorded.
        let mut off_list = FaultList::new(&universe);
        fault_simulate(&netlist, &pats, &mut off_list, &cfg, None, &off_guide);
        let mut on_list = FaultList::new(&universe);
        fault_simulate(&netlist, &pats, &mut on_list, &cfg, None, &on_guide);
        assert_eq!(
            off_list.to_report_text(),
            on_list.to_report_text(),
            "{name}/{label}: pruning changed the detected-fault set"
        );

        let off_s = time_best(&universe, reps, |list| {
            fault_simulate(&netlist, &pats, list, &cfg, None, &off_guide);
        });
        let on_s = time_best(&universe, reps, |list| {
            fault_simulate(&netlist, &pats, list, &cfg, None, &on_guide);
        });
        eprintln!(
            "[bench_fsim]   {label:<6} unpruned {off_s:.4}s / pruned {on_s:.4}s ({:.2}x)",
            off_s / on_s
        );
        backends.push((label, off_s, on_s));
    }

    ImplicationResult {
        name: name.to_string(),
        patterns,
        collapsed: universe.collapsed_len(),
        pruned,
        implication_s,
        backends,
    }
}

struct KernelResult {
    name: String,
    patterns: usize,
    faults: usize,
    event_s: f64,
    kernel_s: f64,
}

/// Times the event path against the levelized kernel (single thread, drop
/// mode — the production default — and 512 patterns so the 256-bit path
/// sees full blocks), gated on bit-identity: timings are only recorded
/// after the kernel reproduces the event path's report and fault list
/// exactly.
fn measure_kernel(name: &str, netlist: &Netlist, patterns: usize, reps: usize) -> KernelResult {
    let pats = pseudorandom_patterns(netlist.inputs().width(), patterns, 0x5e7e ^ patterns as u64);
    let universe = FaultUniverse::enumerate(netlist);
    let cfg = |backend| FaultSimConfig {
        threads: 1,
        backend,
        ..FaultSimConfig::default()
    };

    let guide = SimGuide::default();
    let mut event_list = FaultList::new(&universe);
    let event_report = fault_simulate(
        netlist,
        &pats,
        &mut event_list,
        &cfg(SimBackend::Event),
        None,
        &guide,
    );
    let mut kernel_list = FaultList::new(&universe);
    let kernel_report = fault_simulate(
        netlist,
        &pats,
        &mut kernel_list,
        &cfg(SimBackend::Kernel),
        None,
        &guide,
    );
    assert_eq!(
        kernel_report, event_report,
        "{name}: the kernel diverged from the event path report"
    );
    assert_eq!(
        kernel_list.to_report_text(),
        event_list.to_report_text(),
        "{name}: the kernel diverged from the event path fault list"
    );

    eprintln!(
        "[bench_fsim] {name}: kernel vs event, {} collapsed faults, {patterns} patterns (t=1)",
        universe.collapsed_len()
    );
    let event_s = time_best(&universe, reps, |list| {
        fault_simulate(netlist, &pats, list, &cfg(SimBackend::Event), None, &guide);
    });
    eprintln!("[bench_fsim]   event   {event_s:.4}s");
    let kernel_s = time_best(&universe, reps, |list| {
        fault_simulate(netlist, &pats, list, &cfg(SimBackend::Kernel), None, &guide);
    });
    eprintln!(
        "[bench_fsim]   kernel  {kernel_s:.4}s ({:.2}x)",
        event_s / kernel_s
    );

    KernelResult {
        name: name.to_string(),
        patterns,
        faults: universe.collapsed_len(),
        event_s,
        kernel_s,
    }
}

/// End-to-end compaction of the DU group (the `compact_stl` per-module
/// flow) at bench scale: wall time plus the merged per-stage split, so the
/// fault-sim share of the pipeline is visible.
fn measure_compaction(threads: usize) -> (f64, StageTimings) {
    let scale = Scale::new(128);
    let du = vec![
        generate_imm(&scale.imm()),
        generate_mem(&scale.mem()),
        generate_cntrl(&scale.cntrl()),
    ];
    let compactor = Compactor {
        fsim_config: FaultSimConfig {
            threads,
            ..FaultSimConfig::default()
        },
        ..Compactor::default()
    };
    let start = Instant::now();
    let group = compact_group(&du, ModuleKind::DecoderUnit, &compactor);
    let wall = start.elapsed().as_secs_f64();
    let stages = group.rows.iter().fold(StageTimings::default(), |acc, r| {
        acc.merged(&r.stage_timings)
    });
    (wall, stages)
}

struct CacheResult {
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    warm_hits: u64,
    warm_misses: u64,
    cold_writes: u64,
}

impl CacheResult {
    fn speedup(&self) -> f64 {
        self.cold_s / self.warm_s
    }
}

/// Cold-vs-warm compaction of the DU group against an on-disk artifact
/// store: the cold run populates the cache, the warm run must replay it —
/// reproducing every `CompactionReport` byte-for-byte while skipping the
/// fault-simulation work entirely.
fn measure_cache() -> CacheResult {
    let dir = std::env::temp_dir().join(format!("warpstl-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Each run opens its own store handle so the session counters are
    // per-run, but both point at the same directory.
    let run = || {
        let store = Arc::new(Store::open(&dir).expect("open bench cache dir"));
        let scale = Scale::new(128);
        let du = vec![
            generate_imm(&scale.imm()),
            generate_mem(&scale.mem()),
            generate_cntrl(&scale.cntrl()),
        ];
        let compactor = Compactor {
            store: Some(store.clone()),
            ..Compactor::default()
        };
        let start = Instant::now();
        let group = compact_group(&du, ModuleKind::DecoderUnit, &compactor);
        let wall = start.elapsed().as_secs_f64();
        let json: String = group
            .rows
            .iter()
            .map(warpstl_core::CompactionReport::to_json)
            .collect();
        (wall, json, store.session())
    };

    let (cold_s, cold_json, cold_stats) = run();
    eprintln!(
        "[bench_fsim]   cold {cold_s:.4}s ({} write(s), {} miss(es))",
        cold_stats.writes, cold_stats.misses
    );
    let (warm_s, warm_json, warm_stats) = run();
    eprintln!(
        "[bench_fsim]   warm {warm_s:.4}s ({} hit(s), {} miss(es), {:.2}x)",
        warm_stats.hits,
        warm_stats.misses,
        cold_s / warm_s
    );

    let identical = cold_json == warm_json;
    assert!(identical, "warm cache rerun diverged from the cold reports");
    if cold_s / warm_s < 5.0 {
        eprintln!(
            "[bench_fsim]   WARNING: warm speedup {:.2}x below the 5x target",
            cold_s / warm_s
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    CacheResult {
        cold_s,
        warm_s,
        identical,
        warm_hits: warm_stats.hits,
        warm_misses: warm_stats.misses,
        cold_writes: cold_stats.writes,
    }
}

struct CampaignResult {
    cells: usize,
    jobs: usize,
    cold_s: f64,
    warm_s: f64,
    identical: bool,
    warm_hits: u64,
    cold_writes: u64,
}

/// Cold-vs-warm run of a small campaign matrix (2 modules × 2 lane shapes
/// × both fault models) against one on-disk artifact store: the cold run
/// populates the store cell by cell, the warm rerun must replay it while
/// reproducing the campaign report byte-for-byte.
fn measure_campaign() -> CampaignResult {
    let dir = std::env::temp_dir().join(format!("warpstl-bench-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = CampaignSpec::parse(
        r#"{
            "name": "bench",
            "modules": ["decoder_unit", "sfu"],
            "lanes": [8, 16],
            "fault_models": ["stuck-at", "bridging"],
            "sb_count": 3,
            "bridge_pairs": 32
        }"#,
    )
    .expect("bench campaign spec");
    let jobs = 2usize;

    // Each run opens its own store handle so the session counters are
    // per-run, but both point at the same directory.
    let run = || {
        let store = Arc::new(Store::open(&dir).expect("open bench campaign cache dir"));
        let start = Instant::now();
        let report = run_campaign(
            &spec,
            &CampaignConfig {
                jobs,
                store: Some(store.clone()),
                ..CampaignConfig::default()
            },
        );
        let wall = start.elapsed().as_secs_f64();
        (wall, report, store.session())
    };

    let (cold_s, cold_report, cold_stats) = run();
    assert_eq!(
        cold_report.ok_count(),
        cold_report.cells.len(),
        "a campaign cell failed in the bench matrix"
    );
    eprintln!(
        "[bench_fsim]   cold {cold_s:.4}s ({} cell(s), {} write(s))",
        cold_report.cells.len(),
        cold_stats.writes
    );
    let (warm_s, warm_report, warm_stats) = run();
    eprintln!(
        "[bench_fsim]   warm {warm_s:.4}s ({} hit(s), {:.2}x)",
        warm_stats.hits,
        cold_s / warm_s
    );

    let identical = cold_report.to_json() == warm_report.to_json();
    assert!(
        identical,
        "warm campaign rerun diverged from the cold report"
    );
    let _ = std::fs::remove_dir_all(&dir);

    CampaignResult {
        cells: cold_report.cells.len(),
        jobs,
        cold_s,
        warm_s,
        identical,
        warm_hits: warm_stats.hits,
        cold_writes: cold_stats.writes,
    }
}

/// Times the single-thread engine with a no-op `Obs` handle vs a live
/// recorder on the DU module: the guard for the "zero cost when disabled"
/// claim (and an upper bound on the enabled overhead).
fn measure_obs_overhead(reps: usize) -> (f64, f64) {
    let netlist = ModuleKind::DecoderUnit.build();
    let pats = pseudorandom_patterns(netlist.inputs().width(), 128, 0xb5eed ^ 128);
    let universe = FaultUniverse::enumerate(&netlist);
    let noop_s = time_best(&universe, reps, |list| {
        fault_simulate(
            &netlist,
            &pats,
            list,
            &non_drop(1),
            None,
            &SimGuide::default(),
        );
    });
    let recorder = Recorder::new();
    let recorder_s = time_best(&universe, reps, |list| {
        fault_simulate(
            &netlist,
            &pats,
            list,
            &non_drop(1),
            Some(&recorder),
            &SimGuide::default(),
        );
    });
    (noop_s, recorder_s)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Thread counts beyond the host cores resolve to the same clamped
    // worker count (see `FaultSimConfig::resolved_threads`), so sweeping
    // them would just re-measure `engine/cores` under a different label.
    let swept: Vec<usize> = THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| t <= cores)
        .collect();
    let skipped: Vec<usize> = THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| t > cores)
        .collect();
    if !skipped.is_empty() {
        eprintln!("[bench_fsim] host has {cores} core(s); skipping oversubscribed thread counts {skipped:?}");
    }
    let modules = [
        ("decoder_unit", ModuleKind::DecoderUnit, 256usize, 5usize),
        ("sfu", ModuleKind::Sfu, 128, 5),
    ];

    let results: Vec<ModuleResult> = modules
        .iter()
        .map(|&(name, kind, patterns, reps)| measure(name, &kind.build(), patterns, reps, &swept))
        .collect();

    eprintln!("[bench_fsim] measuring levelized kernel vs event path (non-drop, t=1)");
    let kernel_results: Vec<KernelResult> = ModuleKind::ALL
        .iter()
        .map(|kind| measure_kernel(kind.name(), &kind.build(), 512, 3))
        .collect();

    eprintln!("[bench_fsim] measuring static universe pruning (drop mode, t=1, both backends)");
    let implication_results: Vec<ImplicationResult> = ModuleKind::ALL
        .iter()
        .map(|&kind| measure_implications(kind.name(), kind, 512, 3))
        .collect();

    eprintln!("[bench_fsim] measuring observability overhead (engine t=1, DU)");
    let (obs_noop_s, obs_recorder_s) = measure_obs_overhead(5);
    eprintln!(
        "[bench_fsim]   obs off {obs_noop_s:.4}s / on {obs_recorder_s:.4}s ({:+.2} %)",
        100.0 * (obs_recorder_s / obs_noop_s - 1.0)
    );

    eprintln!("[bench_fsim] compacting the DU group end-to-end (bench scale)");
    let (compact_wall_s, compact_stages) = measure_compaction(0);
    eprintln!("[bench_fsim]   compact du_group {compact_wall_s:.4}s ({compact_stages})");

    eprintln!("[bench_fsim] cold vs warm artifact cache (DU group)");
    let cache = measure_cache();

    eprintln!("[bench_fsim] cold vs warm campaign matrix (2 modules x 2 shapes x 2 models)");
    let campaign = measure_campaign();

    // With every multi-thread configuration skipped the sweep degenerates
    // to t=1 and says nothing about batch-level threading; flag it so the
    // JSON is not misread as "threading verified" on a single-core host.
    let threading_untested = swept == [1];
    if threading_untested {
        eprintln!(
            "[bench_fsim] WARNING: host has 1 core; all multi-thread configurations were skipped, thread scaling is untested"
        );
    }
    let skipped_note = if skipped.is_empty() {
        String::new()
    } else {
        format!(
            "; thread counts {skipped:?} exceed host_cores and were skipped (they resolve to {cores} worker(s) anyway)"
        )
    };

    let mut w = Writer::new();
    w.object()
        .field("bench", "fsim")
        .field("host_cores", cores)
        .key("skipped_thread_counts")
        .inline_array();
    for t in &skipped {
        w.value(t);
    }
    w.end()
        .field("threading_untested", threading_untested)
        .field(
            "note",
            format!("non-drop mode; best of N reps; engine/1 vs reference isolates fanout-cone pruning, engine/N vs engine/1 isolates batch-level threading (meaningful only when host_cores > 1){skipped_note}"),
        )
        .key("modules")
        .array();
    for m in &results {
        let t1 = m
            .engine_s
            .iter()
            .find(|&&(t, _)| t == 1)
            .map_or(f64::NAN, |&(_, s)| s);
        w.object()
            .field("module", &m.name)
            .field("patterns", m.patterns)
            .field("collapsed_faults", m.faults)
            .field("reference_s", Fixed(m.reference_s, 6))
            .field(
                "reference_patterns_per_s",
                Fixed(m.patterns as f64 / m.reference_s, 1),
            )
            .key("engine")
            .array();
        for &(t, s) in &m.engine_s {
            w.inline_object()
                .field("threads", t)
                .field("seconds", Fixed(s, 6))
                .field("patterns_per_s", Fixed(m.patterns as f64 / s, 1))
                .field("speedup_vs_threads1", Fixed(t1 / s, 3))
                .field("speedup_vs_reference", Fixed(m.reference_s / s, 3))
                .end();
        }
        w.end().end();
    }
    w.end()
        .key("kernel")
        .object()
        .field("note", "levelized SoA batch kernel (256-bit blocks, 1024-pattern windows) vs the event path, drop mode (the production default), single thread, best of N reps; bit-identity of report and fault list against the event path is asserted before any timing is recorded")
        .key("modules")
        .array();
    for k in &kernel_results {
        w.inline_object()
            .field("module", &k.name)
            .field("patterns", k.patterns)
            .field("collapsed_faults", k.faults)
            .field("event_s", Fixed(k.event_s, 6))
            .field("kernel_s", Fixed(k.kernel_s, 6))
            .field("speedup_kernel", Fixed(k.event_s / k.kernel_s, 3))
            .end();
    }
    w.end()
        .end()
        .key("implications")
        .object()
        .field("note", "drop mode, single thread, best of N reps: the full collapsed universe vs the same run with statically proven-untestable classes pruned, per engine backend; the detected-fault set is asserted bit-identical before recording (pruned faults are provably undetectable); implication_s is the one-time per-module implication-graph + proof build")
        .key("modules")
        .array();
    for r in &implication_results {
        w.inline_object()
            .field("module", &r.name)
            .field("patterns", r.patterns)
            .field("collapsed_classes", r.collapsed)
            .field("pruned_untestable", r.pruned)
            .field("universe_after", r.collapsed - r.pruned)
            .field("implication_s", Fixed(r.implication_s, 6));
        for &(label, off_s, on_s) in &r.backends {
            w.field(&format!("{label}_unpruned_s"), Fixed(off_s, 6))
                .field(&format!("{label}_pruned_s"), Fixed(on_s, 6))
                .field(&format!("{label}_speedup"), Fixed(off_s / on_s, 3));
        }
        w.end();
    }
    w.end()
        .end()
        .key("obs_overhead")
        .object()
        .field("note", "engine t=1 on the DU, 128 patterns: Obs=None (the default everywhere observability is not requested) vs a live Recorder; None must be within noise of the pre-instrumentation engine")
        .field("noop_s", Fixed(obs_noop_s, 6))
        .field("recorder_s", Fixed(obs_recorder_s, 6))
        .field(
            "recorder_overhead_pct",
            Fixed(100.0 * (obs_recorder_s / obs_noop_s - 1.0), 2),
        )
        .end()
        .key("compact_du_group")
        .object()
        .field("note", "end-to-end IMM+MEM+CNTRL compaction (the compact_stl per-module flow) at 1/128 scale with the parallel engine; stage split from CompactionReport::stage_timings")
        .field("wall_s", Fixed(compact_wall_s, 6));
    for (stage, d) in [
        ("analyze_s", compact_stages.analyze),
        ("trace_s", compact_stages.trace),
        ("fsim_s", compact_stages.fsim),
        ("label_s", compact_stages.label),
        ("reduce_s", compact_stages.reduce),
        ("verify_s", compact_stages.verify),
        ("eval_s", compact_stages.eval),
    ] {
        w.field(stage, Fixed(d.as_secs_f64(), 6));
    }
    w.end()
        .key("cache")
        .object()
        .field("note", "the DU-group compaction above, run twice against one on-disk artifact store: the cold run computes and writes analyze reports and per-fault detection stamps, the warm run replays them; report_identical asserts the warm CompactionReports match the cold ones byte-for-byte")
        .field("cold_s", Fixed(cache.cold_s, 6))
        .field("warm_s", Fixed(cache.warm_s, 6))
        .field("speedup", Fixed(cache.speedup(), 3))
        .field("report_identical", cache.identical)
        .field("cold_writes", cache.cold_writes)
        .field("warm_hits", cache.warm_hits)
        .field("warm_misses", cache.warm_misses)
        .end()
        .key("campaign")
        .object()
        .field("note", "an 8-cell campaign matrix (decoder_unit+sfu x 8/16 lanes x stuck-at/bridging) run cold then warm against one artifact store with 2 workers; report_identical asserts the warm campaign report matches the cold one byte-for-byte")
        .field("cells", campaign.cells)
        .field("jobs", campaign.jobs)
        .field("cold_s", Fixed(campaign.cold_s, 6))
        .field("warm_s", Fixed(campaign.warm_s, 6))
        .field("speedup", Fixed(campaign.cold_s / campaign.warm_s, 3))
        .field("report_identical", campaign.identical)
        .field("cold_writes", campaign.cold_writes)
        .field("warm_hits", campaign.warm_hits);
    let mut json = w.finish();
    json.push('\n');

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fsim.json");
    atomic_write(path, json.as_bytes()).expect("write BENCH_fsim.json");
    println!("{json}");
    eprintln!("[bench_fsim] wrote {path}");
}
