//! End-to-end compilation driver: scalar function in, three programs out
//! (scalar reference, VeGen-vectorized, baseline-SLP-vectorized).
//!
//! This is the equivalent of the paper's experimental setup — each kernel
//! compiled by "clang -O3" (our scalar lowering), "LLVM's vectorizer" (the
//! baseline SLP crate) and "the VeGen-generated vectorizer" (the core
//! pipeline) — all lowered to the same vector VM so they can be executed
//! (correctness) and costed (performance).

use crate::error::{enter_stage, CompileError, ErrorCause, Stage};
use crate::fault;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vegen_analysis::{analyze_kernel, AnalysisReport};
use vegen_baseline::{try_vectorize_baseline, BaselineConfig};
use vegen_codegen::{check_equivalence, try_lower, try_lower_scalar};
use vegen_core::{
    select_packs_reusing, BeamConfig, CostModel, SelectionResult, SelectionReuse, VectorizerCtx,
};
use vegen_ir::canon::{add_narrow_constants, canonicalize};
use vegen_ir::Function;
use vegen_isa::{InstDb, TargetIsa};
use vegen_match::TargetDesc;
use vegen_vm::{static_cycles, VmProgram};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Target ISA (AVX2 or AVX512-VNNI in the paper's evaluation).
    pub target: TargetIsa,
    /// Pack-selection configuration (beam width etc.).
    pub beam: BeamConfig,
    /// Run the §6 pattern canonicalization (ablated in Fig. 11).
    pub canonicalize_patterns: bool,
}

impl PipelineConfig {
    /// Defaults for a target, with the given beam width.
    pub fn new(target: TargetIsa, width: usize) -> PipelineConfig {
        PipelineConfig { target, beam: BeamConfig::with_width(width), canonicalize_patterns: true }
    }
}

/// One compiled kernel: the three programs plus selection statistics.
#[derive(Debug)]
pub struct CompiledKernel {
    /// The canonicalized (and constant-augmented) scalar function.
    pub function: Function,
    /// 1:1 scalar lowering (the "not vectorized" build).
    pub scalar: VmProgram,
    /// The VeGen-vectorized program.
    pub vegen: VmProgram,
    /// The baseline-SLP program.
    pub baseline: VmProgram,
    /// Pack-selection outcome.
    pub selection: SelectionResult,
    /// Number of SLP trees the baseline committed.
    pub baseline_trees: usize,
    /// Static validation of the selection and the VeGen program: pack
    /// legality, lane provenance, and VM lint.
    pub analysis: AnalysisReport,
}

/// Fetch (and cache) the generated target description for a target.
///
/// `TargetDesc::build` is the expensive offline phase (pattern generation
/// over the whole instruction database); the cache `Mutex` is held only for
/// lookups and inserts, never across the build itself, so concurrent engine
/// workers targeting *different* ISAs do not serialize on each other. Two
/// racing builders of the same key both build, and the double-checked
/// insert keeps the first — wasted work in a rare race beats a global lock
/// on every compilation.
pub fn target_desc(target: &TargetIsa, canonicalize_patterns: bool) -> Arc<TargetDesc> {
    type DescCache = Mutex<HashMap<(String, bool), Arc<TargetDesc>>>;
    static CACHE: OnceLock<DescCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (target.name.clone(), canonicalize_patterns);
    // `unwrap_or_else(into_inner)`: a worker that panicked while holding
    // this lock (caught at the engine boundary) must not poison target
    // descriptions for every later compilation — the map is only ever
    // grown, so the recovered state is always consistent.
    if let Some(desc) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return desc.clone();
    }
    let built = Arc::new(TargetDesc::build(&InstDb::for_target(target), canonicalize_patterns));
    cache.lock().unwrap_or_else(|e| e.into_inner()).entry(key).or_insert(built).clone()
}

/// Wall time of each pipeline stage of one [`compile_timed`] call.
///
/// These are the stage boundaries the engine's telemetry hooks into: the §6
/// offline phase shows up as `target_desc` (amortized to ~0 by the process
/// cache), everything else is the online phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Canonicalization + narrow-constant annotation (§6).
    pub canonicalize: Duration,
    /// Target-description fetch (builds once per (ISA, canon) per process).
    pub target_desc: Duration,
    /// Match-table construction + pack selection (§4.4, §5).
    pub selection: Duration,
    /// Lowering the pack set to the vector VM, incl. the scalar lowering
    /// and the profitability backstop.
    pub lowering: Duration,
    /// Static validation: pack legality + lane provenance + VM lint.
    pub analysis: Duration,
    /// The baseline LLVM-style SLP comparator.
    pub baseline: Duration,
}

impl StageTimes {
    /// Sum of all stages.
    pub fn total(&self) -> Duration {
        self.canonicalize
            + self.target_desc
            + self.selection
            + self.lowering
            + self.analysis
            + self.baseline
    }
}

/// Canonicalize and annotate a scalar function — the front half of the
/// pipeline, exposed so callers (the engine's content-addressed cache) can
/// hash the canonical form before deciding whether to compile at all.
pub fn prepare(f: &Function) -> Function {
    add_narrow_constants(&canonicalize(f))
}

/// Record one stage's wall time into the service metrics registry under
/// `driver_stage_<name>_us`. Unconditional (unlike trace spans): stage
/// boundaries are per-kernel, so the registry lookup is far off any hot
/// loop.
fn record_stage(stage: Stage, d: Duration) {
    static NAMES: OnceLock<Vec<&'static str>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        Stage::ALL
            .iter()
            .map(|s| &*Box::leak(format!("driver_stage_{}_us", s.name()).into_boxed_str()))
            .collect()
    });
    let i = Stage::ALL.iter().position(|&s| s == stage).expect("Stage::ALL lists every stage");
    vegen_trace::metrics::histogram(names[i]).record_duration(d);
}

/// Run one pipeline stage of kernel `kernel`: check the engine deadline
/// at the stage boundary, then run `body` under the stage's `driver` trace
/// span and attribution guard, after its fault hook. The stage's wall
/// time goes to `*time` and the registry; any failure comes back as a
/// [`CompileError`] attributed to `stage`.
fn stage<T>(
    stage: Stage,
    kernel: &str,
    deadline: Option<(Instant, Duration)>,
    time: &mut Duration,
    body: impl FnOnce() -> Result<T, ErrorCause>,
) -> Result<T, CompileError> {
    let t = Instant::now();
    let out = match deadline {
        Some((at, limit)) if t >= at => {
            vegen_trace::instant("driver", "deadline");
            Err(ErrorCause::Deadline { limit })
        }
        _ => {
            let _sp = vegen_trace::span("driver", stage.name());
            let _st = enter_stage(stage);
            fault::fire(stage, kernel).and_then(|()| body())
        }
    }
    .map_err(|c| CompileError::new(stage, kernel, c))?;
    *time = t.elapsed();
    record_stage(stage, *time);
    Ok(out)
}

/// [`prepare`] with stage attribution and fault injection — the form the
/// engine uses so canonicalize-stage faults and panics are typed.
///
/// # Errors
///
/// Returns an injected canonicalize-stage fault, if one is installed.
pub fn try_prepare(f: &Function) -> Result<Function, CompileError> {
    stage(Stage::Canonicalize, &f.name, None, &mut Duration::default(), || Ok(prepare(f)))
}

/// Compile `f` three ways (scalar / baseline / VeGen).
pub fn compile(f: &Function, cfg: &PipelineConfig) -> CompiledKernel {
    compile_timed(f, cfg).0
}

/// [`compile`], also reporting per-stage wall times.
///
/// # Panics
///
/// Panics on any pipeline failure; use [`try_prepare`] and
/// [`try_compile_prepared_reusing`] on fault-tolerant paths (the engine)
/// to get a typed [`CompileError`].
pub fn compile_timed(f: &Function, cfg: &PipelineConfig) -> (CompiledKernel, StageTimes) {
    let t = Instant::now();
    let prepared = try_prepare(f);
    let canonicalize = t.elapsed();
    let compiled = prepared
        .and_then(|p| try_compile_prepared_reusing(p, cfg, None, &mut SelectionReuse::new()));
    let (kernel, times) = compiled.unwrap_or_else(|e| panic!("{e}"));
    (kernel, StageTimes { canonicalize, ..times })
}

/// Compile an already-[`prepare`]d function, reporting per-stage wall
/// times (`canonicalize` is zero: that stage was the caller's). Every
/// stage failure comes back as a typed [`CompileError`]; panics are left
/// to the engine boundary's `catch_unwind`, with the failing stage
/// recorded via [`crate::error::StageGuard`].
///
/// `deadline` is the engine's per-job budget `(expiry, configured limit)`,
/// checked at every stage boundary; the remaining window also becomes the
/// beam search's wall budget, so the selection loop (the only unbounded
/// stage) observes it cooperatively. `reuse` carries the frozen context
/// and transposition table of a failed wide search into the engine
/// ladder's width-1 retry, which then skips the freeze pre-pass; it still
/// holds that snapshot after a typed error, but must be
/// [`SelectionReuse::reset`] after a caught panic.
///
/// # Errors
///
/// Returns the first stage failure.
pub fn try_compile_prepared_reusing(
    prepared: Function,
    cfg: &PipelineConfig,
    deadline: Option<(Instant, Duration)>,
    reuse: &mut SelectionReuse,
) -> Result<(CompiledKernel, StageTimes), CompileError> {
    let name = prepared.name.clone();
    let mut times = StageTimes::default();

    let desc = stage(Stage::TargetDesc, &name, deadline, &mut times.target_desc, || {
        Ok(target_desc(&cfg.target, cfg.canonicalize_patterns))
    })?;

    let (ctx, selection) = stage(Stage::Selection, &name, deadline, &mut times.selection, || {
        // Thread the remaining job window into the beam as a wall budget
        // (tightening any caller-set budget, never loosening it).
        let mut beam = cfg.beam.clone();
        if let Some((at, _)) = deadline {
            let remaining = at.saturating_duration_since(Instant::now());
            beam.budget.wall = Some(beam.budget.wall.map_or(remaining, |w| w.min(remaining)));
        }
        let ctx = VectorizerCtx::new(&prepared, &desc, CostModel::default());
        let selection = select_packs_reusing(&ctx, &beam, reuse).map_err(ErrorCause::Search)?;
        Ok((ctx, selection))
    })?;

    let (scalar, vegen) = stage(Stage::Lowering, &name, deadline, &mut times.lowering, || {
        let scalar = try_lower_scalar(&prepared).map_err(ErrorCause::Lowering)?;
        let mut vegen = try_lower(&ctx, &selection.packs).map_err(ErrorCause::Lowering)?;
        // Profitability backstop: like any production vectorizer, keep the
        // scalar code when the vectorized program does not actually win
        // under the (more precise) program-level cost model.
        if static_cycles(&vegen) >= static_cycles(&scalar) {
            vegen = scalar.clone();
        }
        Ok((scalar, vegen))
    })?;

    let analysis = stage(Stage::Analysis, &name, deadline, &mut times.analysis, || {
        Ok(analyze_kernel(&prepared, &desc, &selection.packs, &vegen, cfg.canonicalize_patterns))
    })?;

    let bl = stage(Stage::Baseline, &name, deadline, &mut times.baseline, || {
        let bl_cfg = BaselineConfig { max_bits: cfg.target.max_bits, ..BaselineConfig::default() };
        try_vectorize_baseline(&prepared, &bl_cfg).map_err(ErrorCause::Baseline)
    })?;

    let kernel = CompiledKernel {
        function: prepared,
        scalar,
        vegen,
        baseline: bl.program,
        selection,
        baseline_trees: bl.trees_vectorized,
        analysis,
    };
    Ok((kernel, times))
}

/// Lower `prepared` scalar-only — the bottom rung of the engine's
/// degradation ladder. No selection, no baseline, no analysis: all three
/// program slots hold the 1:1 scalar lowering, which is always correct
/// by construction and cheap to produce even for adversarial inputs.
pub fn compile_scalar_fallback(
    prepared: Function,
) -> Result<(CompiledKernel, StageTimes), CompileError> {
    let name = prepared.name.clone();
    let mut times = StageTimes::default();
    let t = Instant::now();
    let scalar = {
        let _sp = vegen_trace::span("driver", "scalar_fallback");
        let _st = enter_stage(Stage::Lowering);
        try_lower_scalar(&prepared)
            .map_err(|e| CompileError::new(Stage::Lowering, &name, ErrorCause::Lowering(e)))?
    };
    times.lowering = t.elapsed();
    let kernel = CompiledKernel {
        function: prepared,
        vegen: scalar.clone(),
        baseline: scalar.clone(),
        scalar,
        selection: SelectionResult::default(),
        baseline_trees: 0,
        analysis: AnalysisReport::default(),
    };
    Ok((kernel, times))
}

impl CompiledKernel {
    /// Check all three programs against the scalar function's semantics.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify(&self, trials: u64) -> Result<(), String> {
        let _sp = vegen_trace::span("driver", "verify");
        check_equivalence(&self.function, &self.scalar, trials)
            .map_err(|e| format!("scalar: {e}"))?;
        check_equivalence(&self.function, &self.vegen, trials)
            .map_err(|e| format!("vegen: {e}"))?;
        check_equivalence(&self.function, &self.baseline, trials)
            .map_err(|e| format!("baseline: {e}"))?;
        Ok(())
    }

    /// Estimated cycles for each program under the throughput model:
    /// `(scalar, baseline, vegen)`.
    pub fn cycles(&self) -> (f64, f64, f64) {
        (static_cycles(&self.scalar), static_cycles(&self.baseline), static_cycles(&self.vegen))
    }

    /// VeGen's speedup over the baseline ("Speedup over LLVM" in the
    /// paper's figures).
    pub fn speedup_vs_baseline(&self) -> f64 {
        let (_, bl, vg) = self.cycles();
        bl / vg
    }

    /// VeGen's speedup over scalar code.
    pub fn speedup_vs_scalar(&self) -> f64 {
        let (sc, _, vg) = self.cycles();
        sc / vg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vegen_ir::{FunctionBuilder, Type};

    #[test]
    fn driver_compiles_and_verifies_dot_kernel() {
        let mut b = FunctionBuilder::new("dot4");
        let a = b.param("A", Type::I16, 8);
        let bb = b.param("B", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let mut terms = Vec::new();
            for k in 0..2i64 {
                let x = b.load(a, lane * 2 + k);
                let y = b.load(bb, lane * 2 + k);
                let xw = b.sext(x, Type::I32);
                let yw = b.sext(y, Type::I32);
                terms.push(b.mul(xw, yw));
            }
            let s = b.add(terms[0], terms[1]);
            b.store(c, lane, s);
        }
        let f = b.finish();
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 8);
        let ck = compile(&f, &cfg);
        ck.verify(32).unwrap();
        let (sc, bl, vg) = ck.cycles();
        assert!(vg < sc, "vegen ({vg}) must beat scalar ({sc})");
        assert!(vg < bl, "vegen ({vg}) must beat baseline ({bl}) on a dot product");
        assert!(ck.vegen.vector_ops_used().iter().any(|n| n.contains("pmaddwd")));
    }

    #[test]
    fn constant_multiplier_kernel_uses_pmaddwd() {
        // The idct4-style shape: products with 16-bit constants.
        let mut b = FunctionBuilder::new("const_madd");
        let a = b.param("A", Type::I16, 8);
        let c = b.param("C", Type::I32, 4);
        for lane in 0..4i64 {
            let x = b.load(a, lane * 2);
            let y = b.load(a, lane * 2 + 1);
            let xw = b.sext(x, Type::I32);
            let yw = b.sext(y, Type::I32);
            let k83 = b.iconst(Type::I32, 83);
            let k36 = b.iconst(Type::I32, 36);
            let m0 = b.mul(xw, k83);
            let m1 = b.mul(yw, k36);
            let s = b.add(m0, m1);
            b.store(c, lane, s);
        }
        let f = b.finish();
        let cfg = PipelineConfig::new(TargetIsa::avx2(), 16);
        let ck = compile(&f, &cfg);
        ck.verify(32).unwrap();
        assert!(
            ck.vegen.vector_ops_used().iter().any(|n| n.contains("pmaddwd")),
            "constants must bind as pmaddwd live-ins; used: {:?}\n{}",
            ck.vegen.vector_ops_used(),
            vegen_vm::listing(&ck.vegen)
        );
    }
}
