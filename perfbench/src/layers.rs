//! Per-layer metrics of a traced run.
//!
//! Layer times are medians, over the replay passes, of each layer's
//! summed span self time in a pass. Counts come from one replay pass
//! (every pass selects the same packs, which the workloads check).

use crate::replay::Counts;
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use vegen::driver::{target_desc, PipelineConfig};
use vegen::matcher::TargetDesc;

/// Layers whose spans the replay records (the `pass` and `kernel` spans
/// are the recorder's own).
const LAYERS: [&str; 8] =
    ["serve.parse", "canon", "cache", "select", "lower", "analysis", "baseline", "verify"];

/// The offline phase, timed in-process before anything else runs.
pub struct Offline {
    pub desc: Arc<TargetDesc>,
    pub db_s: f64,
    pub table_s: f64,
    pub specs: usize,
    pub rules: usize,
}

/// Build the target description through the offline layer's public
/// calls: the instruction database first, then the target's match table
/// (which `target_desc` builds from the already-cached database).
pub fn offline(tr: &mut Tracer, pipeline: &PipelineConfig) -> Offline {
    let t = Instant::now();
    let specs = tr.span("offline.db", 0, || vegen::isa::full_database().len());
    let db_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let desc = tr
        .span("offline.table", 0, || target_desc(&pipeline.target, pipeline.canonicalize_patterns));
    let table_s = t.elapsed().as_secs_f64();
    let rules = desc.ops.len();
    Offline { desc, db_s, table_s, specs, rules }
}

/// Inputs measured outside the replay.
pub struct Outside {
    pub hit_ratio: f64,
    /// Queue waits in milliseconds.
    pub queue_waits_ms: Vec<f64>,
    /// Per-pass `serve.parse` seconds, when not taken from the replay.
    pub parse_s: Option<Vec<f64>>,
    pub pool_efficiency: f64,
    /// Traced wall ÷ untraced wall.
    pub overhead: f64,
}

/// Emit every per-layer metric.
pub fn emit(
    rep: &mut Report,
    tr: &Tracer,
    off: &Offline,
    passes: &[u32],
    counts: &[Vec<Counts>],
    outside: Outside,
) {
    let by_pass = tr.self_time_by_pass();
    let layer = |name: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| by_pass.get(p).and_then(|m| m.get(name)).copied().unwrap_or(0.0))
            .collect()
    };
    let walls: Vec<f64> =
        passes.iter().map(|p| by_pass.get(p).map_or(0.0, |m| m.values().sum::<f64>())).collect();
    let covered: Vec<f64> = passes
        .iter()
        .map(|p| {
            by_pass.get(p).map_or(0.0, |m| LAYERS.iter().filter_map(|l| m.get(l)).sum::<f64>())
        })
        .collect();
    let sum = |f: fn(&Counts) -> u64| -> f64 { counts[0].iter().map(f).sum::<u64>() as f64 };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    for name in LAYERS {
        rep.timing(format!("layer {name} (s/pass)"), &layer(name));
    }
    rep.timing("layer pass wall (s)", &walls);

    rep.metric("offline.db_s", off.db_s, "s");
    rep.metric("offline.table_s", off.table_s, "s");
    rep.metric("offline.specs", off.specs as f64, "count");
    rep.metric("offline.rules", off.rules as f64, "count");

    rep.metric("canon.s", median(&layer("canon")), "s");
    rep.metric("canon.insts_in", sum(|c| c.insts_in), "count");
    rep.metric("canon.insts_out", sum(|c| c.insts_out), "count");

    let select_s = median(&layer("select"));
    let freeze: Vec<f64> =
        counts.iter().map(|pass| pass.iter().map(|c| c.freeze_s).sum()).collect();
    let transitions = sum(|c| c.transitions);
    rep.metric("select.s", select_s, "s");
    rep.metric("select.freeze_s", median(&freeze), "s");
    rep.metric("select.states", sum(|c| c.states), "count");
    rep.metric("select.transitions", transitions, "count");
    rep.metric("select.transitions_per_s", ratio(transitions, select_s), "1/s");
    let tt_hits = sum(|c| c.tt_hits);
    rep.metric("select.tt_hit_ratio", ratio(tt_hits, tt_hits + sum(|c| c.tt_misses)), "ratio");
    rep.metric("select.dedup_ratio", ratio(sum(|c| c.dedup_hits), transitions), "ratio");
    rep.metric("select.packs", sum(|c| c.packs), "count");

    let with_packs = counts[0].iter().filter(|c| c.packs > 0).count() as f64;
    let kept = counts[0].iter().filter(|c| c.packs > 0 && c.kept).count() as f64;
    rep.metric("lower.s", median(&layer("lower")), "s");
    rep.metric("lower.vector_insts", sum(|c| c.vector_insts), "count");
    rep.metric("lower.kept_share", ratio(kept, with_packs), "ratio");

    rep.metric("analysis.s", median(&layer("analysis")), "s");
    rep.metric("analysis.lanes_proved", sum(|c| c.lanes_proved), "count");
    rep.metric("analysis.errors", sum(|c| c.analysis_errors), "count");

    rep.metric("baseline.s", median(&layer("baseline")), "s");
    rep.metric("baseline.trees", sum(|c| c.trees), "count");

    rep.metric("verify.s", median(&layer("verify")), "s");
    rep.metric("verify.trials", sum(|c| c.trials), "count");

    rep.metric("cache.hash_s", median(&layer("cache")), "s");
    rep.metric("cache.hit_ratio", outside.hit_ratio, "ratio");

    rep.timing("serve queue wait (ms)", &outside.queue_waits_ms);
    rep.metric("serve.queue_wait_p50_ms", percentile(&outside.queue_waits_ms, 50.0), "ms");
    rep.metric("serve.queue_wait_p99_ms", percentile(&outside.queue_waits_ms, 99.0), "ms");
    let parse = outside.parse_s.unwrap_or_else(|| layer("serve.parse"));
    rep.metric("serve.parse_s", median(&parse), "s");

    rep.metric("pool.efficiency", outside.pool_efficiency, "ratio");
    rep.metric("trace.overhead", outside.overhead, "ratio");
    let shares: Vec<f64> = covered.iter().zip(&walls).map(|(c, w)| ratio(*c, *w)).collect();
    rep.metric("trace.layer_share", median(&shares), "ratio");
}
