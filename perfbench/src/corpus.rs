//! `corpus`: generated kernels through the soak harness.
//!
//! Kernel `i` is `gen::generate(CORPUS_SEED, i)`: the corpus and its order
//! are fixed, and the run's seed draws the memory images of the
//! interpreter check. (A corpus drawn from the run's seed changes
//! composition from seed to seed: at 400 kernels the vectorized share
//! alone spread by a quarter of its median across seeds, more than any
//! bound allows.) Throughput is measured on `soak::run_soak` (compile,
//! three-way differential check, provenance audit); quality, latency and
//! the deterministic counts come from cold engine passes over the same
//! kernels.

use crate::batch::{self, Batch};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use vegen::kernels::gen::generate;
use vegen_engine::soak::{run_soak, SoakConfig, SoakStatus};

/// Kernels per corpus.
const KERNELS: u64 = 300;

/// The generator seed of the corpus (the soak harness's default corpus).
pub const CORPUS_SEED: u64 = 42;

/// Differential trials per program (the soak default).
const TRIALS: u64 = 8;

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let functions = (0..KERNELS).map(|i| generate(CORPUS_SEED, i).function).collect();
    let batch = Batch { functions, trials: TRIALS };
    let cfg = SoakConfig {
        seed: CORPUS_SEED,
        count: KERNELS,
        trials: TRIALS,
        beam: crate::BEAM_WIDTH,
        beam_threads: 1,
        minimize: false,
        ..SoakConfig::default()
    };
    let mut soak = |rep: &mut Report| -> f64 {
        let t = Instant::now();
        let report = run_soak(&cfg);
        let wall = t.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                for r in &report.results {
                    rep.ledger.check(if r.status == SoakStatus::Passed {
                        Ok(())
                    } else {
                        Err(format!("{}: soak {} ({})", r.name, r.status.name(), r.detail))
                    });
                }
            }
            Err(e) => rep.ledger.check(Err(format!("soak: {e}"))),
        }
        wall
    };
    batch::run(args, rep, tr, &batch, Some(&mut soak));
}
