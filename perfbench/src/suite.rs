//! `suite`: the paper's 33 kernels, cold, one at a time, verified.
//!
//! The kernels and their order are the paper's; the seed draws the
//! memory images of the interpreter check. The order is fixed because a
//! small kernel's compile time depends on what ran just before it.

use crate::batch::{self, Batch};
use crate::report::Report;
use crate::trace::Tracer;
use crate::Args;

/// Engine verification trials per program (the engine default).
const TRIALS: u64 = 16;

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let functions = vegen::kernels::all().iter().map(|k| (k.build)()).collect();
    let batch = Batch { functions, trials: TRIALS };
    batch::run(args, rep, tr, &batch, None);
}
