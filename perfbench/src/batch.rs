//! The batch workloads (`suite`, `corpus`): a fixed list of kernels
//! compiled cold, one at a time, through `Engine::compile_batch`, and —
//! in a traced run — replayed stage by stage.

use crate::checks::{check_kernel, mix};
use crate::layers::{self, Offline, Outside};
use crate::replay::{replay, Counts, Fingerprint};
use crate::report::Report;
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use vegen::core::BeamConfig;
use vegen::driver::{target_desc, PipelineConfig};
use vegen::ir::Function;
use vegen_engine::json::Json;
use vegen_engine::serdes::function_to_json;
use vegen_engine::{Engine, EngineConfig, Job, JobResult, Rung};

/// A batch workload's kernels and settings.
pub struct Batch {
    pub functions: Vec<Function>,
    /// Equivalence trials per program in the engine's verification.
    pub trials: u64,
}

/// The batch pipeline: sequential inside each kernel too.
pub fn pipeline() -> PipelineConfig {
    let mut p = crate::pipeline();
    p.beam = BeamConfig { beam_threads: 1, ..p.beam };
    p
}

fn engine(trials: u64) -> Engine {
    Engine::new(EngineConfig {
        threads: 1,
        beam_threads: 1,
        verify_trials: trials,
        ..EngineConfig::default()
    })
}

/// One cold engine pass.
struct EnginePass {
    wall: f64,
    results: Vec<JobResult>,
}

fn engine_pass(engine: &Engine, jobs: &[Job]) -> EnginePass {
    engine.clear_cache();
    let t = Instant::now();
    let results = engine.compile_batch(jobs);
    EnginePass { wall: t.elapsed().as_secs_f64(), results }
}

/// The engine path's output for each kernel, checked: primary rung,
/// verified, and identical to `reference` when one is given.
fn check_pass(
    rep: &mut Report,
    pass: &EnginePass,
    reference: Option<&[Fingerprint]>,
) -> Vec<Fingerprint> {
    let mut prints = Vec::with_capacity(pass.results.len());
    for (i, r) in pass.results.iter().enumerate() {
        let fp = r.kernel.as_deref().map(Fingerprint::of);
        let status = match (&r.kernel, &r.verify_error, r.rung) {
            (_, Some(e), _) => Err(format!("{}: engine verification: {e}", r.name)),
            (Some(_), None, Rung::Primary) => match (reference, &fp) {
                (Some(want), Some(got)) if &want[i] != got => {
                    Err(format!("{}: packs or cycles changed between passes", r.name))
                }
                _ => Ok(()),
            },
            _ => Err(format!("{}: ended on rung {} ({:?})", r.name, r.rung.name(), r.faults)),
        };
        rep.ledger.check(status);
        prints.push(fp.unwrap_or_default());
    }
    prints
}

/// Output quality and deterministic counts of one checked engine pass,
/// plus the interpreter check of every kernel against its source
/// function on seeded memory images.
fn quality(rep: &mut Report, pass: &EnginePass, sources: &[Function], seed: u64) -> (f64, f64) {
    let mut kernels = Vec::with_capacity(pass.results.len());
    for (i, (r, source)) in pass.results.iter().zip(sources).enumerate() {
        if let Some(k) = &r.kernel {
            rep.ledger.check(check_kernel(source, k, mix(seed, 1000 + i as u64)));
            kernels.push(k.clone());
        }
    }
    let speedups: Vec<f64> = kernels.iter().map(|k| k.speedup_vs_baseline()).collect();
    let vectorized = kernels.iter().filter(|k| k.vegen.vector_op_count() > 0).count();
    let speedup = geomean(&speedups);
    let share = vectorized as f64 / kernels.len().max(1) as f64;
    let stats = |f: fn(&vegen::core::BeamStats) -> u64| -> f64 {
        kernels.iter().map(|k| f(&k.selection.stats)).sum::<u64>() as f64
    };
    rep.count("select.states", stats(|s| s.states_expanded as u64));
    rep.count("select.transitions", stats(|s| s.transitions));
    rep.count(
        "select.packs",
        kernels.iter().map(|k| k.selection.packs.len()).sum::<usize>() as f64,
    );
    rep.count("cycles.vegen", kernels.iter().map(|k| k.cycles().2).sum());
    rep.count("cycles.baseline", kernels.iter().map(|k| k.cycles().1).sum());
    rep.count("speedup_geomean", speedup);
    rep.count("vectorized_share", share);
    (speedup, share)
}

/// Queue wait of each job in a sequential batch: the compile walls of
/// the jobs ahead of it, in milliseconds.
fn queue_waits_ms(pass: &EnginePass) -> Vec<f64> {
    let mut ahead = 0.0;
    pass.results
        .iter()
        .map(|r| {
            let wait = ahead;
            ahead += r.wall.as_secs_f64() * 1e3;
            wait
        })
        .collect()
}

/// What a traced run keeps besides the engine passes.
struct Traced {
    off: Offline,
    wires: Vec<Json>,
    passes: Vec<u32>,
    counts: Vec<Vec<Counts>>,
    walls: Vec<f64>,
    waits: Vec<f64>,
    efficiency: Vec<f64>,
}

impl Traced {
    /// One replay pass over every kernel, recorded as pass `id`. Every
    /// replay must reproduce the engine path's packs and cycles exactly.
    /// Returns the pass's wall.
    fn replay_pass(
        &mut self,
        rep: &mut Report,
        tr: &mut Tracer,
        batch: &Batch,
        reference: &[Fingerprint],
        id: u32,
    ) -> f64 {
        let p = pipeline();
        tr.set_pass(id);
        let t = Instant::now();
        tr.enter("pass", u64::from(id));
        let mut counts = Vec::with_capacity(self.wires.len());
        for (i, wire) in self.wires.iter().enumerate() {
            tr.enter("kernel", i as u64);
            let out = replay(tr, &self.off.desc, &p, batch.trials, wire, i as u64);
            tr.exit();
            rep.ledger.check(match out {
                Ok(r) if r.fingerprint == reference[i] => {
                    counts.push(r.counts);
                    Ok(())
                }
                Ok(_) => {
                    Err(format!("{}: replay differs from the engine path", batch.functions[i].name))
                }
                Err(e) => Err(e),
            });
        }
        tr.exit();
        let wall = t.elapsed().as_secs_f64();
        self.walls.push(wall);
        self.passes.push(id);
        self.counts.push(counts);
        wall
    }
}

/// Rounds of one cold engine pass, followed in a traced run by one
/// replay pass and otherwise, when `soak` is given, by one soak pass over
/// the same kernels, until the budget is spent.
///
/// Untraced, throughput is kernels over time across all passes (of the
/// soak passes when there are any), which averages over the slow drift
/// of a shared machine's speed; a kernel's latency is its median over the
/// engine passes, so a burst of contention moves one sample, not the
/// figure. Traced, the run reports the per-layer metrics of the replay
/// passes.
pub fn run(
    args: &Args,
    rep: &mut Report,
    tr: &mut Tracer,
    batch: &Batch,
    mut soak: Option<&mut dyn FnMut(&mut Report) -> f64>,
) {
    let p = pipeline();
    let mut traced = if args.trace {
        Some(Traced {
            off: layers::offline(tr, &p),
            wires: batch.functions.iter().map(function_to_json).collect(),
            passes: Vec::new(),
            counts: Vec::new(),
            walls: Vec::new(),
            waits: Vec::new(),
            efficiency: Vec::new(),
        })
    } else {
        target_desc(&p.target, p.canonicalize_patterns);
        None
    };
    let jobs: Vec<Job> =
        batch.functions.iter().map(|f| Job::new(f.name.clone(), f.clone(), p.clone())).collect();
    let engine = engine(batch.trials);
    let budget = args.budget();

    let mut reference: Option<Vec<Fingerprint>> = None;
    let mut quality_of_first = (0.0, 0.0);
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let (mut walls, mut soak_walls) = (Vec::new(), Vec::new());
    let mut last = 0.0;
    while budget.another(walls.len(), 1, last) {
        let pass = engine_pass(&engine, &jobs);
        let prints = check_pass(rep, &pass, reference.as_deref());
        if reference.is_none() {
            quality_of_first = quality(rep, &pass, &batch.functions, args.seed);
        }
        let reference = reference.get_or_insert(prints);
        for (l, r) in latencies.iter_mut().zip(&pass.results) {
            l.push(r.wall.as_secs_f64() * 1e3);
        }
        walls.push(pass.wall);
        last = pass.wall;
        if let Some(t) = traced.as_mut() {
            t.waits.extend(queue_waits_ms(&pass));
            let busy: f64 = pass.results.iter().map(|r| r.wall.as_secs_f64()).sum();
            t.efficiency.push(busy / pass.wall);
            last += t.replay_pass(rep, tr, batch, reference, walls.len() as u32);
        } else if let Some(soak) = soak.as_mut() {
            let wall = soak(rep);
            soak_walls.push(wall);
            last += wall;
        }
        rep.peak_rss_mb.get_or_insert_with(crate::peak_rss_mb);
    }
    rep.timing("engine pass wall (s)", &walls);

    if let Some(t) = traced {
        rep.timing("replay pass wall (s)", &t.walls);
        if t.counts.iter().any(|c| c.len() != jobs.len()) {
            return;
        }
        let outside = Outside {
            hit_ratio: engine.cache_stats().hit_rate(),
            queue_waits_ms: t.waits,
            parse_s: None,
            pool_efficiency: median(&t.efficiency),
            overhead: median(&t.walls) / median(&walls),
        };
        layers::emit(rep, tr, &t.off, &t.passes, &t.counts, outside);
        return;
    }
    let rate_walls = if soak_walls.is_empty() {
        &walls
    } else {
        rep.timing("soak pass wall (s)", &soak_walls);
        &soak_walls
    };
    let per_kernel: Vec<f64> = latencies.iter().map(|l| median(l)).collect();
    rep.timing("kernel latency (ms)", &latencies.concat());
    let (speedup, share) = quality_of_first;
    let passes = rate_walls.len() as f64;
    rep.metric("kernels_per_s", passes * jobs.len() as f64 / rate_walls.iter().sum::<f64>(), "1/s");
    rep.metric("latency_p50_ms", percentile(&per_kernel, 50.0), "ms");
    rep.metric("latency_p99_ms", percentile(&per_kernel, 99.0), "ms");
    rep.metric("speedup_geomean", speedup, "x");
    rep.metric("vectorized_share", share, "ratio");
}
