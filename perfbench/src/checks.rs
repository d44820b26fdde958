//! Output checks the benchmark runs itself, and the serve workload's
//! reordered request variants.
//!
//! The checks run the source kernel, as the benchmark built it, on the
//! scalar IR interpreter, which is independent of the compiler, on memory
//! images drawn from the run's seed. The engine's own verification and the
//! soak harness compare against the canonicalized function the compiler
//! prepared, so a wrong canonical-form rewrite shows only here. The checks
//! run outside every timed region.

use vegen::driver::CompiledKernel;
use vegen::ir::interp::{random_memory, run, Memory};
use vegen::ir::rng::XorShift;
use vegen::ir::{Function, ValueId};
use vegen::vm::run_program;

/// Seeded memory images per interpreter check.
pub const IMAGES: u64 = 4;

/// SplitMix64 finalizer: decorrelates `(seed, stream)` pairs.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = XorShift::new(seed | 1);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

fn interp(f: &Function, mem: &Memory) -> Result<Memory, String> {
    let mut out = mem.clone();
    run(f, &mut out).map_err(|e| format!("interpreter: {e}"))?;
    Ok(out)
}

/// Run all three compiled programs on seeded memory images and compare
/// every buffer with the interpreter's run of `source`, the function the
/// kernel was compiled from (before canonicalization; preparing a kernel
/// keeps its parameters, so the buffers line up).
pub fn check_kernel(source: &Function, kernel: &CompiledKernel, seed: u64) -> Result<(), String> {
    let f = source;
    if f.params != kernel.function.params {
        return Err(format!("{}: compiled kernel changed the parameters", f.name));
    }
    for image in 0..IMAGES {
        let start = random_memory(f, mix(seed, image));
        let want = interp(f, &start)?;
        for (label, prog) in
            [("scalar", &kernel.scalar), ("vegen", &kernel.vegen), ("baseline", &kernel.baseline)]
        {
            let mut got = start.clone();
            run_program(prog, &mut got).map_err(|e| format!("{label} program: {e}"))?;
            if got != want {
                return Err(format!("{}: {label} program diverges on image {image}", f.name));
            }
        }
    }
    Ok(())
}

/// A seeded, dependence-respecting reorder of `f`: every instruction
/// still follows its operands, and memory operations keep their
/// relative order, so only the placement of pure computation changes.
pub fn reorder(f: &Function, seed: u64) -> Function {
    let n = f.insts.len();
    // Predecessors of each instruction: its operands, plus the previous
    // memory operation for loads and stores.
    let mut preds: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut last_mem = None;
    for inst in &f.insts {
        let mut p: Vec<usize> = inst.operands().iter().map(|v| v.index()).collect();
        if inst.touches_memory() {
            p.extend(last_mem);
            last_mem = Some(preds.len());
        }
        preds.push(p);
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut pending: Vec<usize> = vec![0; n];
    for (i, p) in preds.iter().enumerate() {
        for &q in p {
            succs[q].push(i);
            pending[i] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut rng = XorShift::new(seed | 1);
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let i = ready.swap_remove(rng.below(ready.len()));
        order.push(i);
        for &s in &succs[i] {
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    let mut new_id = vec![0u32; n];
    for (pos, &old) in order.iter().enumerate() {
        new_id[old] = pos as u32;
    }
    let mut out = f.clone();
    out.insts = order
        .iter()
        .map(|&old| {
            let mut inst = f.insts[old].clone();
            inst.map_operands(|v| ValueId::from_raw(new_id[v.index()]));
            inst
        })
        .collect();
    out
}

/// Check a reordered variant against its original on the interpreter.
pub fn check_variant(original: &Function, variant: &Function, seed: u64) -> Result<(), String> {
    if variant.insts.len() != original.insts.len() {
        return Err(format!("{}: variant changed the instruction count", original.name));
    }
    for image in 0..IMAGES {
        let start = random_memory(original, mix(seed, image));
        if interp(original, &start)? != interp(variant, &start)? {
            return Err(format!("{}: reordered variant diverges on image {image}", original.name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_keeps_semantics_and_memory_order() {
        for index in 0..20 {
            let f = vegen::kernels::gen::generate(7, index).function;
            let v = reorder(&f, index + 1);
            check_variant(&f, &v, 3).unwrap();
            let mem = |g: &Function| -> Vec<_> {
                g.insts.iter().filter_map(|i| i.mem_loc().map(|l| (l, i.is_pure()))).collect()
            };
            assert_eq!(mem(&f), mem(&v));
        }
    }
}
