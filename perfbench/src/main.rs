//! The benchmark of record for the VeGen reproduction.
//!
//! ```text
//! perfbench --workload <suite|corpus|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>] [--build-id <id>]
//! ```
//!
//! Every workload compiles for AVX2 at beam width 16 (the paper's
//! configuration) and drives the program only through its public
//! functions. With `--trace 0` the run prints the end-to-end metrics;
//! with `--trace 1` it replays the same work with its own spans around
//! the public calls and prints the per-layer metrics. The last line of
//! standard output is the result object; the exit code is nonzero when
//! any output check failed. See `README.md` next to this crate for what
//! each workload is for.

mod batch;
mod checks;
mod corpus;
mod layers;
mod replay;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use vegen::driver::{target_desc, PipelineConfig};
use vegen::isa::TargetIsa;

/// Beam width of every workload (the paper's configuration).
pub const BEAM_WIDTH: usize = 16;

/// Fresh processes whose first `target_desc` call gives `setup_s`.
const SETUP_PROCESSES: usize = 5;

/// When the process started (for progress lines).
static STARTED: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

/// Progress line on standard error: what finished, and when.
pub fn progress(what: &str) {
    let t = STARTED.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench: {what} at {t:.1}s");
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    pub build_id: String,
}

impl Args {
    /// The measured part of the run, starting now.
    pub fn budget(&self) -> Budget {
        Budget { start: Instant::now(), seconds: self.seconds }
    }
}

/// The measured part of a run: units of work (passes, epochs) repeat
/// until the next one would end further past `--seconds` than short of
/// it.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Whether to start another unit after `done` units, the last of
    /// which took `last` seconds. The first `min` units always run.
    pub fn another(&self, done: usize, min: usize, last: f64) -> bool {
        done < min || self.start.elapsed().as_secs_f64() + last / 2.0 < self.seconds
    }
}

/// The pipeline every workload compiles with.
pub fn pipeline() -> PipelineConfig {
    PipelineConfig::new(TargetIsa::avx2(), BEAM_WIDTH)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
        build_id: String::from("unknown"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--build-id" => args.build_id = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !["suite", "corpus", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("--workload must be suite, corpus or serve, not {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Child-process mode: time the first `target_desc` of a fresh process.
fn probe_setup() -> ExitCode {
    let p = pipeline();
    let t = Instant::now();
    let desc = target_desc(&p.target, p.canonicalize_patterns);
    let secs = t.elapsed().as_secs_f64();
    println!("{secs:?} {}", desc.ops.len());
    ExitCode::SUCCESS
}

/// `setup_s`: the median, over fresh child processes, of the first
/// `target_desc` call (the offline phase runs once per process).
fn measure_setup(rep: &mut Report) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..SETUP_PROCESSES {
        let out = Command::new(&exe)
            .arg("--probe-setup")
            .output()
            .map_err(|e| format!("setup probe: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let secs = text.split_whitespace().next().and_then(|s| s.parse::<f64>().ok());
        match (out.status.success(), secs) {
            (true, Some(s)) => samples.push(s),
            _ => {
                return Err(format!("setup probe failed: {}", String::from_utf8_lossy(&out.stderr)))
            }
        }
    }
    rep.timing("setup target_desc (s)", &samples);
    Ok(stats::median(&samples))
}

extern "C" {
    /// glibc: return free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Start a fresh peak-memory window: return freed heap memory to the
/// system, then reset VmHWM to the current resident set. Without a
/// writable `/proc/self/clear_refs` VmHWM keeps counting from the start
/// of the process.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free pages; no Rust object is
    // affected.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--probe-setup") {
        return probe_setup();
    }
    STARTED.get_or_init(Instant::now);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut rep = Report::default();
    let setup_s = if args.trace {
        None
    } else {
        match measure_setup(&mut rep) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    };
    progress("set-up done");
    let mut tracer = trace::Tracer::new();
    match args.workload.as_str() {
        "suite" => suite::run(&args, &mut rep, &mut tracer),
        "corpus" => corpus::run(&args, &mut rep, &mut tracer),
        _ => serve::run(&args, &mut rep, &mut tracer),
    }
    progress("workload done");
    let record = args.out.join(format!("counts-{}-seed{}.json", args.workload, args.seed));
    rep.check_determinism(&record, &args.build_id);
    if let Some(s) = setup_s {
        rep.metric("setup_s", s, "s");
        let rss = rep.peak_rss_mb.unwrap_or_else(peak_rss_mb);
        rep.metric("peak_rss_mb", rss, "MB");
        let attempted = rep.ledger.attempted.max(1) as f64;
        rep.metric("pass_share", (attempted - rep.ledger.failed as f64) / attempted, "ratio");
    }

    if args.trace {
        let spans = format!("spans-{}-seed{}.json", args.workload, args.seed);
        if let Err(e) = tracer.write(&args.out.join(spans)) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    print!("{}", rep.human());
    println!("{}", rep.result_line());
    if rep.ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
