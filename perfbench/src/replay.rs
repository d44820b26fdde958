//! The traced replay: the driver's stage sequence for one kernel, called
//! stage by stage through the program's public functions, each call in a
//! span named after its layer.
//!
//! The sequence mirrors what the engine does for a cache miss: parse the
//! wire form, canonicalize, hash, select packs, lower (with the
//! profitability backstop), analyze, run the baseline, verify. The
//! replay's packs and modeled cycles must equal the engine path's
//! exactly; [`Fingerprint`] is what gets compared.

use crate::trace::Tracer;
use vegen::analysis::analyze_kernel;
use vegen::baseline::{try_vectorize_baseline, BaselineConfig};
use vegen::codegen::{check_equivalence, try_lower, try_lower_scalar};
use vegen::core::{select_packs_reusing, CostModel, SelectionReuse, VectorizerCtx};
use vegen::driver::{prepare, CompiledKernel, PipelineConfig};
use vegen::matcher::TargetDesc;
use vegen::vm::static_cycles;
use vegen_engine::cache::content_hash;
use vegen_engine::json::Json;
use vegen_engine::serdes::function_from_json;

/// What must agree between the engine path and the replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    /// `Debug` rendering of the selected pack set.
    pub packs: String,
    /// Modeled cycles `(scalar, baseline, vegen)`.
    pub cycles: (f64, f64, f64),
    /// Search effort: states expanded and transitions generated.
    pub effort: (u64, u64),
}

impl Fingerprint {
    pub fn of(kernel: &CompiledKernel) -> Fingerprint {
        let st = &kernel.selection.stats;
        Fingerprint {
            packs: format!("{:?}", kernel.selection.packs),
            cycles: kernel.cycles(),
            effort: (st.states_expanded as u64, st.transitions),
        }
    }
}

/// Layer counters of one replayed kernel.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub insts_in: u64,
    pub insts_out: u64,
    pub states: u64,
    pub transitions: u64,
    pub tt_hits: u64,
    pub tt_misses: u64,
    pub dedup_hits: u64,
    pub packs: u64,
    /// Freeze pre-pass wall, from the selection's own statistics.
    pub freeze_s: f64,
    pub vector_insts: u64,
    /// Whether a vector program was produced and beat the scalar code.
    pub kept: bool,
    pub lanes_proved: u64,
    pub analysis_errors: u64,
    pub trees: u64,
    pub trials: u64,
}

/// One replayed kernel.
pub struct Replayed {
    pub hash: String,
    pub fingerprint: Fingerprint,
    pub counts: Counts,
}

/// Replay one kernel from its wire form. Spans are recorded under the
/// tracer's innermost open span; `req` tags them.
pub fn replay(
    tr: &mut Tracer,
    desc: &TargetDesc,
    pipeline: &PipelineConfig,
    trials: u64,
    wire: &Json,
    req: u64,
) -> Result<Replayed, String> {
    let f = tr.span("serve.parse", req, || function_from_json(wire))?;
    let name = f.name.clone();
    let prepared = tr.span("canon", req, || prepare(&f));
    let hash = tr.span("cache", req, || content_hash(&prepared, pipeline));
    let selection = tr.span("select", req, || {
        let ctx = VectorizerCtx::new(&prepared, desc, CostModel::default());
        select_packs_reusing(&ctx, &pipeline.beam, &mut SelectionReuse::new()).map(|sel| (ctx, sel))
    });
    let (ctx, selection) = selection.map_err(|e| format!("{name}: selection: {e}"))?;
    let lowered = tr.span("lower", req, || {
        let scalar = try_lower_scalar(&prepared)?;
        let vector = try_lower(&ctx, &selection.packs)?;
        let (scalar_cycles, vector_cycles) = (static_cycles(&scalar), static_cycles(&vector));
        let kept = vector_cycles < scalar_cycles;
        let vegen = if kept { vector } else { scalar.clone() };
        Ok::<_, vegen::codegen::LowerError>((scalar, vegen, kept))
    });
    let (scalar, vegen, kept) = lowered.map_err(|e| format!("{name}: lowering: {e}"))?;
    let analysis = tr.span("analysis", req, || {
        analyze_kernel(&prepared, desc, &selection.packs, &vegen, pipeline.canonicalize_patterns)
    });
    let bl_cfg = BaselineConfig { max_bits: pipeline.target.max_bits, ..BaselineConfig::default() };
    let baseline = tr
        .span("baseline", req, || try_vectorize_baseline(&prepared, &bl_cfg))
        .map_err(|e| format!("{name}: baseline: {e:?}"))?;
    tr.span("verify", req, || {
        check_equivalence(&prepared, &scalar, trials)
            .and_then(|()| check_equivalence(&prepared, &vegen, trials))
            .and_then(|()| check_equivalence(&prepared, &baseline.program, trials))
    })
    .map_err(|e| format!("{name}: verify: {e}"))?;
    let cycles = tr.span("lower", req, || {
        (static_cycles(&scalar), static_cycles(&baseline.program), static_cycles(&vegen))
    });

    let st = &selection.stats;
    let counts = Counts {
        insts_in: f.insts.len() as u64,
        insts_out: prepared.insts.len() as u64,
        states: st.states_expanded as u64,
        transitions: st.transitions,
        tt_hits: st.tt_hits,
        tt_misses: st.tt_misses,
        dedup_hits: st.dedup_hits,
        packs: selection.packs.len() as u64,
        freeze_s: st.freeze_wall.as_secs_f64(),
        vector_insts: vegen.vector_op_count() as u64,
        kept,
        lanes_proved: analysis.lanes_proved as u64,
        analysis_errors: analysis.error_count() as u64,
        trees: baseline.trees_vectorized as u64,
        trials: 3 * trials,
    };
    Ok(Replayed {
        hash: hash.hex(),
        fingerprint: Fingerprint {
            packs: format!("{:?}", selection.packs),
            cycles,
            effort: (counts.states, counts.transitions),
        },
        counts,
    })
}
