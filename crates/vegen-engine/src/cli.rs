//! Command-line front end of the `vegen-engine` binary, with eight entry
//! points:
//!
//! * the default **suite** mode — batch-compile the `vegen-kernels` suite
//!   (cold + warm runs) and emit an [`EngineReport`], optionally traced
//!   (`--trace`, `--folded`) and cached on disk (`--cache-dir`);
//! * **`soak`** — compile a seeded generated-kernel corpus with
//!   differential checking and failure minimization ([`crate::soak`]);
//! * **`serve`** — the resident compile daemon ([`crate::serve`]), and
//!   **`stats`**, which scrapes a running daemon's metrics registry;
//! * **`explain <kernel>`** — recompile one kernel with the beam search's
//!   decision log on and print why each pack was committed;
//! * **`lint`** — run the static validators over the suite, for CI gating
//!   without execution;
//! * **`check-specs`** — audit the offline pseudocode → VIDL → match-table
//!   chain ([`vegen_analysis::speccheck`]), optionally after injecting a
//!   corruption the audit must reject;
//! * **`diff <old.json> <new.json>`** — compare two reports with
//!   regression thresholds.
//!
//! Every flag is declared once, in one table of (name, value placeholder,
//! default, help line); each subcommand lists the flags it takes. One
//! parser reads every command line against that list, and the usage text
//! is generated from it. [`parse`] builds a [`Command`] and [`run`]
//! executes it, so tests can check what a command line configures
//! without running it.

use crate::report::{EngineReport, RunReport, TraceSummary};
use crate::serve::{self, ServeConfig};
use crate::soak::{run_soak, SoakConfig, SoakStatus};
use crate::{Engine, EngineConfig, Job, JobResult, Rung};
use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};
use vegen::driver::{prepare, target_desc, PipelineConfig};
use vegen::fault::FaultPlan;
use vegen_analysis::MatchTableStats;
use vegen_core::slp::SlpCost;
use vegen_core::{select_packs, BeamConfig, CostModel, VectorizerCtx};
use vegen_isa::TargetIsa;
use vegen_trace::json::Json;

// ---------------------------------------------------------------------------
// flag table
// ---------------------------------------------------------------------------

/// One `--flag`: (name, value placeholder in the usage text, value used
/// when the flag is absent, help line). A switch has an empty
/// placeholder and takes no value; an empty default means none.
type Flag = (&'static str, &'static str, &'static str, &'static str);

static FLAGS: &[Flag] = &[
    ("--target", "T", "avx2", "target ISA: sse4, avx2 or avx512vnni"),
    ("--beam", "N", "16", "beam width"),
    ("--threads", "N", "0", "compile worker threads, 0 = auto"),
    ("--beam-threads", "N", "0", "beam-search threads per kernel, 0 = auto"),
    ("--deadline-ms", "N", "", "per-kernel compile deadline"),
    ("--no-verify", "", "", "skip randomized equivalence checking"),
    ("--cache-dir", "DIR", "", "persistent compile cache directory"),
    ("--cache-max-bytes", "N", "", "disk cache size bound (oldest entries evicted)"),
    ("--warm-start", "", "", "load the disk cache into memory first"),
    ("--event-log", "FILE", "", "append job lifecycle events (NDJSON)"),
    ("--flight-dir", "DIR", "", "write flight-recorder dumps here"),
    ("--out", "FILE", "", "write the JSON report to FILE"),
    ("--compact", "", "", "render the report on one line"),
    ("--json", "", "", "print JSON instead of the human-readable form"),
    ("--runs", "N", "2", "passes over the suite (cold, then warm)"),
    ("--trace", "FILE", "", "write a Chrome trace of the runs"),
    ("--folded", "FILE", "", "write folded stacks of the runs"),
    ("--decisions", "", "", "record beam-search decision summaries"),
    ("--fail-fast", "", "", "fail any kernel below the primary rung"),
    ("--faults", "SPEC", "", "inject the faults in SPEC"),
    ("--fault-seed", "N", "", "inject a seeded fault plan"),
    ("--fault-count", "N", "3", "faults in a seeded plan"),
    ("--seed", "N", "42", "corpus seed"),
    ("--count", "N", "100", "corpus size, before sharding"),
    ("--shard", "I/N", "0/1", "run only the indices congruent to I mod N"),
    ("--trials", "N", "8", "random-memory trials per differential check"),
    ("--fault-every", "K", "0", "inject a seeded fault on every Kth job, 0 = off"),
    ("--seeds-out", "DIR", "", "write replayable seed files of failures here"),
    ("--no-minimize", "", "", "do not minimize failing kernels"),
    ("--minimize-budget", "N", "600", "candidate budget per minimization"),
    ("--inject-miscompile", "N", "", "test only: corrupt every compiled program"),
    ("--stdio", "", "", "serve requests on stdin/stdout"),
    ("--socket", "PATH", "", "the daemon's Unix socket"),
    ("--queue", "N", "64", "admission queue capacity"),
    ("--prometheus", "", "", "print raw Prometheus text"),
    ("--max-iters", "N", "", "beam-search iteration cap"),
    ("--corrupt", "KIND", "", "inject a corruption the audit must reject"),
    ("--no-canon", "", "", "audit without pattern canonicalization"),
    ("--max-regress", "PCT", "2", "allowed worsening of cycles and speedups"),
    ("--strict-counters", "", "", "gate on search-effort counter growth too"),
];

/// Flags read from an environment variable when absent from the command
/// line, before their default.
const ENV_FALLBACKS: [(&str, &str); 2] =
    [("--beam-threads", "VEGEN_BEAM_THREADS"), ("--faults", "VEGEN_FAULTS")];

/// A subcommand: its word (empty for the default suite mode), its
/// synopsis — `<operand>`s, then the flags it takes, where a `=value`
/// suffix overrides a flag's default for this subcommand — and extra
/// usage text.
struct Spec {
    name: &'static str,
    synopsis: &'static str,
    note: &'static str,
}

static SPECS: [Spec; 8] = [
    Spec {
        name: "",
        synopsis: "--target --beam --threads --beam-threads --runs --no-verify --compact --out \
                   --trace --folded --decisions --deadline-ms --fail-fast --faults --fault-seed \
                   --fault-count --cache-dir --cache-max-bytes --warm-start --event-log \
                   --flight-dir",
        note: "fault SPEC is kernel:stage:kind[,...], kind = panic|error|delay=<ms>; a `!` \
               suffix fires on\nevery ladder attempt; --faults wins over --fault-seed, then \
               VEGEN_FAULTS",
    },
    Spec {
        name: "soak",
        synopsis: "--seed --count --shard --trials --fault-every --target --beam --beam-threads \
                   --deadline-ms --cache-dir --cache-max-bytes --seeds-out --no-minimize \
                   --minimize-budget --inject-miscompile --out --compact",
        note: "kernel i is generate(seed, i): any kernel replays from the two integers",
    },
    Spec {
        name: "serve",
        synopsis: "--stdio --socket --cache-dir --cache-max-bytes --warm-start --threads \
                   --beam-threads --queue --target --beam --deadline-ms --no-verify \
                   --event-log --flight-dir",
        note: "pass exactly one of --stdio or --socket",
    },
    Spec { name: "stats", synopsis: "--socket --prometheus --json", note: "--socket is required" },
    Spec { name: "explain", synopsis: "<kernel> --target --beam=64 --max-iters", note: "" },
    Spec { name: "lint", synopsis: "--target --beam --threads --out", note: "" },
    Spec {
        name: "check-specs",
        synopsis: "--target=all --json --out --corrupt --no-canon",
        note: "--target all audits every target; corruption KIND is \
               lane-swap|widen|flip-cmp|dup-rule|neg-cost|rename-op",
    },
    Spec { name: "diff", synopsis: "<old> <new> --max-regress --strict-counters", note: "" },
];

/// Prefix of subcommand `name`'s messages.
fn tag(name: &str) -> String {
    format!("vegen-engine {name}").trim_end().to_string()
}

impl Spec {
    fn operands(&self) -> impl Iterator<Item = &'static str> {
        self.synopsis.split_whitespace().filter(|w| w.starts_with('<'))
    }

    /// The flags this subcommand takes, with its own defaults applied.
    fn flags(&self) -> impl Iterator<Item = Flag> {
        self.synopsis.split_whitespace().filter(|w| w.starts_with("--")).map(|entry| {
            let (name, own_default) = entry.split_once('=').unwrap_or((entry, ""));
            let &(name, value, default, help) =
                FLAGS.iter().find(|f| f.0 == name).expect("flag is in FLAGS");
            (name, value, if own_default.is_empty() { default } else { own_default }, help)
        })
    }

    /// The usage text, generated from the flag table.
    fn usage(&self) -> String {
        use std::fmt::Write as _;
        let operands: Vec<&str> = self.operands().collect();
        let mut s = format!("usage: {} [FLAGS] {}", tag(self.name), operands.join(" "))
            .trim_end()
            .to_string();
        for (name, value, default, help) in self.flags() {
            let _ = write!(s, "\n  {:<24}{help}", format!("{name} {value}").trim_end());
            if !default.is_empty() {
                let _ = write!(s, " (default {default})");
            }
            if let Some((_, var)) = ENV_FALLBACKS.iter().find(|(n, _)| *n == name) {
                let _ = write!(s, " [env {var}]");
            }
        }
        if self.name.is_empty() {
            let names: Vec<&str> = SPECS[1..].iter().map(|s| s.name).collect();
            let _ = write!(s, "\nsubcommands (each takes --help): {}", names.join(", "));
        }
        if !self.note.is_empty() {
            let _ = write!(s, "\n{}", self.note);
        }
        s
    }
}

type Res<T> = Result<T, String>;

/// A command line checked against a [`Spec`]: the flags given, in order,
/// with their values (empty for switches), the operands, and the
/// environment lookup (injected so tests need not mutate the process
/// environment).
struct Args<'a> {
    spec: &'static Spec,
    given: Vec<(&'static str, &'a str)>,
    operands: Vec<&'a str>,
    env: &'a dyn Fn(&str) -> Option<String>,
}

fn from_str<T: FromStr<Err: Display>>(v: &str) -> Res<T> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn parse_target(s: &str) -> Res<TargetIsa> {
    match s.to_ascii_lowercase().as_str() {
        "avx2" => Ok(TargetIsa::avx2()),
        "avx512vnni" | "avx512-vnni" | "vnni" => Ok(TargetIsa::avx512vnni()),
        "sse4" | "sse4.1" => Ok(TargetIsa::sse4()),
        other => Err(format!("unknown target {other:?}")),
    }
}

impl<'a> Args<'a> {
    /// Check `args` against `spec`; `Ok(None)` when `--help` was asked for.
    fn parse(
        spec: &'static Spec,
        args: &'a [String],
        env: &'a dyn Fn(&str) -> Option<String>,
    ) -> Res<Option<Self>> {
        let mut parsed = Args { spec, given: Vec::new(), operands: Vec::new(), env };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            if !arg.starts_with('-') {
                parsed.operands.push(arg);
                continue;
            }
            let Some((name, placeholder, ..)) = spec.flags().find(|f| f.0 == arg) else {
                return Err(format!("unknown argument {arg:?}"));
            };
            let value = match placeholder {
                "" => "",
                _ => args.next().ok_or_else(|| format!("{name} needs a value"))?,
            };
            parsed.given.push((name, value));
        }
        let wanted = spec.operands().count();
        if let Some(extra) = parsed.operands.get(wanted) {
            return Err(format!("unknown argument {extra:?}"));
        }
        if let Some(missing) = spec.operands().nth(parsed.operands.len()) {
            return Err(format!("missing operand {missing}"));
        }
        Ok(Some(parsed))
    }

    fn has(&self, name: &str) -> bool {
        self.cli(name).is_some()
    }

    /// The value of `name`'s last occurrence on the command line.
    fn cli(&self, name: &str) -> Option<&'a str> {
        self.given.iter().rev().find(|&&(n, _)| n == name).map(|&(_, v)| v)
    }

    /// `name`'s environment variable and its value, when set and non-empty.
    fn env(&self, name: &str) -> Option<(&'static str, String)> {
        let &(_, var) = ENV_FALLBACKS.iter().find(|(n, _)| *n == name)?;
        (self.env)(var).filter(|v| !v.is_empty()).map(|v| (var, v))
    }

    /// The value of `name`, parsed: from the command line, else from its
    /// environment variable (a value there that does not parse reads as
    /// unset), else its default. `None` when none applies, including for
    /// a flag this subcommand does not take.
    fn get_with<T>(&self, name: &str, parse: impl Fn(&str) -> Res<T>) -> Res<Option<T>> {
        let Some((_, _, default, _)) = self.spec.flags().find(|f| f.0 == name) else {
            return Ok(None);
        };
        match self.cli(name) {
            Some(v) => parse(v).map(Some),
            None => match self.env(name).and_then(|(_, v)| parse(&v).ok()) {
                Some(v) => Ok(Some(v)),
                None if default.is_empty() => Ok(None),
                None => parse(default).map(Some),
            },
        }
        .map_err(|e| format!("{name}: {e}"))
    }

    /// [`Args::get_with`] for a flag that always has a value.
    fn value<T>(&self, name: &str, parse: impl Fn(&str) -> Res<T>) -> Res<T> {
        self.get_with(name, parse)?.ok_or_else(|| format!("{name} needs a value"))
    }

    fn get<T: FromStr<Err: Display>>(&self, name: &str) -> Res<Option<T>> {
        self.get_with(name, from_str)
    }

    fn num<T: FromStr<Err: Display>>(&self, name: &str) -> Res<T> {
        self.value(name, from_str)
    }

    fn text(&self, name: &str) -> Option<String> {
        self.get_with(name, |v| Ok(v.to_string())).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------------
// parsed commands
// ---------------------------------------------------------------------------

/// A parsed command line, ready to [`run`].
#[derive(Debug)]
pub enum Command {
    /// `--help`: the usage text to print.
    Help(String),
    /// The default mode: compile the kernel suite and report.
    Suite(SuiteConfig),
    /// `soak`: the corpus to run, and where the report goes.
    Soak(SoakConfig, Output),
    /// `serve`: the engine, the service, the socket to listen on (`None`
    /// serves stdin/stdout), and whether to warm-start from disk.
    Serve(EngineConfig, ServeConfig, Option<String>, bool),
    /// `stats`: the daemon's socket, and the output format (`"table"`,
    /// `"prometheus"` or `"json"`).
    Stats(String, &'static str),
    /// `explain`: the kernel, its pipeline, and the iteration cap.
    Explain(String, PipelineConfig, Option<usize>),
    /// `lint`: the engine, the pipeline, and the artifact path.
    Lint(EngineConfig, PipelineConfig, Output),
    /// `check-specs`: the targets to audit, the corruption to inject,
    /// whether to canonicalize patterns, whether to print the JSON report
    /// in place of the verdicts, and the artifact path.
    CheckSpecs(Vec<TargetIsa>, Option<String>, bool, bool, Output),
    /// `diff`: the old and new report paths, and the thresholds.
    Diff(String, String, DiffConfig),
}

/// Where a JSON report goes: a file (`None` prints it to stdout), and
/// whether it is rendered on one line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Output {
    /// Report file.
    pub path: Option<String>,
    /// Render on one line.
    pub compact: bool,
}

/// The default mode's parameters.
#[derive(Debug)]
pub struct SuiteConfig {
    /// Engine construction.
    pub engine: EngineConfig,
    /// Target and beam search for every kernel.
    pub pipeline: PipelineConfig,
    /// Passes over the suite (cold, then warm).
    pub runs: usize,
    /// Faults to inject.
    pub faults: Option<FaultPlan>,
    /// Chrome trace and folded-stacks paths.
    pub trace: (Option<String>, Option<String>),
    /// Load the disk cache into memory before the first run.
    pub warm_start: bool,
    /// Where the report goes.
    pub out: Output,
}

/// Parse a command line (everything after the program name), reading
/// environment fallbacks through `env`.
///
/// # Errors
///
/// Returns the usage error, prefixed with the subcommand: an unknown
/// flag, a missing or malformed value, or a missing operand.
pub fn parse(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> Result<Command, String> {
    let (spec, rest) = match args.first().and_then(|a| SPECS[1..].iter().find(|s| s.name == a)) {
        Some(spec) => (spec, &args[1..]),
        None => (&SPECS[0], args),
    };
    let build = |a: Args| -> Res<Command> {
        Ok(match spec.name {
            "soak" => Command::Soak(soak_config(&a)?, output(&a)),
            "serve" => {
                let socket = a.text("--socket");
                if a.has("--stdio") == socket.is_some() {
                    return Err("pass exactly one of --stdio or --socket PATH".into());
                }
                let queue_capacity = a.value("--queue", |v| match from_str(v)? {
                    0 => Err("capacity must be at least 1".to_string()),
                    n => Ok(n),
                })?;
                let target = a.value("--target", parse_target)?;
                let cfg = ServeConfig { queue_capacity, target, beam_width: a.num("--beam")? };
                Command::Serve(engine_config(&a)?, cfg, socket, a.has("--warm-start"))
            }
            "stats" => {
                let format = match (a.has("--prometheus"), a.has("--json")) {
                    (true, true) => return Err("pass at most one of --prometheus or --json".into()),
                    (true, false) => "prometheus",
                    (false, true) => "json",
                    (false, false) => "table",
                };
                Command::Stats(a.text("--socket").ok_or("--socket PATH is required")?, format)
            }
            "explain" => {
                Command::Explain(a.operands[0].into(), pipeline(&a)?, a.get("--max-iters")?)
            }
            // Verification trials off: this gate is purely static; the
            // suite mode covers dynamic checking.
            "lint" => Command::Lint(
                EngineConfig { verify_trials: 0, ..engine_config(&a)? },
                pipeline(&a)?,
                output(&a),
            ),
            "check-specs" => Command::CheckSpecs(
                a.value("--target", |v| match v.eq_ignore_ascii_case("all") {
                    true => Ok(vec![TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()]),
                    false => parse_target(v).map(|t| vec![t]),
                })?,
                a.text("--corrupt"),
                !a.has("--no-canon"),
                a.has("--json"),
                output(&a),
            ),
            "diff" => {
                let max_regress_pct = a.value("--max-regress", |v| match from_str::<f64>(v)? {
                    pct if pct >= 0.0 => Ok(pct),
                    _ => Err("must be a non-negative percentage".to_string()),
                })?;
                let cfg =
                    DiffConfig { max_regress_pct, strict_counters: a.has("--strict-counters") };
                Command::Diff(a.operands[0].into(), a.operands[1].into(), cfg)
            }
            _ => Command::Suite(suite_config(&a)?),
        })
    };
    let parsed = Args::parse(spec, rest, env)
        .and_then(|a| a.map_or_else(|| Ok(Command::Help(spec.usage())), build));
    parsed.map_err(|e| format!("{}: {e}", tag(spec.name)))
}

/// Run the CLI with pre-split arguments (everything after the program
/// name) and return the process exit code: `0` success, `1` verification
/// failure or regression, `2` usage/I-O error.
pub fn main_with_args(args: &[String]) -> i32 {
    match parse(args, &|var| std::env::var(var).ok()) {
        Ok(cmd) => run(cmd),
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}

/// Execute a parsed command and return its exit code.
pub fn run(cmd: Command) -> i32 {
    let (name, result) = match cmd {
        Command::Help(usage) => {
            eprintln!("{usage}");
            return 0;
        }
        Command::Suite(cfg) => ("", run_suite(cfg)),
        Command::Soak(cfg, out) => ("soak", run_soak_cmd(&cfg, &out)),
        Command::Serve(e, cfg, socket, warm) => ("serve", run_serve(e, &cfg, socket, warm)),
        Command::Stats(socket, format) => ("stats", run_stats(&socket, format)),
        Command::Explain(kernel, p, iters) => ("explain", run_explain(&kernel, &p, iters)),
        Command::Lint(engine, pipeline, out) => ("lint", run_lint(engine, &pipeline, &out)),
        Command::CheckSpecs(targets, corrupt, canonicalize, json, out) => {
            ("check-specs", run_check_specs(&targets, corrupt.as_deref(), canonicalize, json, &out))
        }
        Command::Diff(old, new, cfg) => ("diff", run_diff(&old, &new, &cfg)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{}: {e}", tag(name));
        2
    })
}

/// The engine configuration the shared flags describe; flags a
/// subcommand does not take keep [`EngineConfig::default`].
fn engine_config(a: &Args) -> Res<EngineConfig> {
    let d = EngineConfig::default();
    Ok(EngineConfig {
        threads: a.get("--threads")?.unwrap_or(d.threads),
        verify_trials: if a.has("--no-verify") { 0 } else { d.verify_trials },
        deadline: a.get("--deadline-ms")?.map(Duration::from_millis),
        fail_fast: a.has("--fail-fast"),
        cache_dir: a.text("--cache-dir").map(Into::into),
        cache_max_bytes: a.get("--cache-max-bytes")?,
        beam_threads: a.get("--beam-threads")?.unwrap_or(d.beam_threads),
        event_log: a.text("--event-log").map(Into::into),
        flight_dir: a.text("--flight-dir").map(Into::into),
        ..d
    })
}

fn pipeline(a: &Args) -> Res<PipelineConfig> {
    let mut p = PipelineConfig::new(a.value("--target", parse_target)?, a.num("--beam")?);
    p.beam.log_decisions = a.has("--decisions");
    Ok(p)
}

fn output(a: &Args) -> Output {
    Output { path: a.text("--out"), compact: a.has("--compact") }
}

/// The fault plan: `--faults`, else a `--fault-seed` plan over the suite,
/// else `VEGEN_FAULTS`. `None` means no injection.
fn fault_plan(a: &Args) -> Res<Option<FaultPlan>> {
    let seed = a.get::<u64>("--fault-seed")?;
    let count = a.num("--fault-count")?;
    let spec = match a.cli("--faults") {
        Some(v) => Some(("--faults", v.to_string())),
        None if seed.is_none() => a.env("--faults"),
        None => None,
    };
    if let Some((source, spec)) = spec {
        return FaultPlan::parse(&spec).map(Some).map_err(|e| format!("{source}: {e}"));
    }
    let names: Vec<&str> = vegen_kernels::all().iter().map(|k| k.name).collect();
    Ok(seed.map(|seed| FaultPlan::seeded(&names, seed, count)))
}

fn suite_config(a: &Args) -> Res<SuiteConfig> {
    let trace = (a.text("--trace"), a.text("--folded"));
    // When `--trace`/`--folded` own the trace session, the flight
    // recorder must not reset it out from under them.
    let flight_rotate = trace == (None, None);
    Ok(SuiteConfig {
        engine: EngineConfig { flight_rotate, ..engine_config(a)? },
        pipeline: pipeline(a)?,
        runs: a.num::<usize>("--runs")?.max(1),
        faults: fault_plan(a)?,
        trace,
        warm_start: a.has("--warm-start"),
        out: output(a),
    })
}

fn soak_config(a: &Args) -> Res<SoakConfig> {
    let (shard_index, shard_count) = a.value("--shard", |v| {
        let (i, n) = v.split_once('/').ok_or_else(|| format!("want I/N, got {v:?}"))?;
        Ok((from_str(i)?, from_str(n)?))
    })?;
    Ok(SoakConfig {
        seed: a.num("--seed")?,
        count: a.num("--count")?,
        shard_index,
        shard_count,
        trials: a.num("--trials")?,
        fault_every: a.num("--fault-every")?,
        target: a.value("--target", parse_target)?,
        beam: a.num("--beam")?,
        beam_threads: a.num("--beam-threads")?,
        deadline: a.get("--deadline-ms")?.map(Duration::from_millis),
        cache_dir: a.text("--cache-dir").map(Into::into),
        cache_max_bytes: a.get("--cache-max-bytes")?,
        minimize: !a.has("--no-minimize"),
        minimize_budget: a.num("--minimize-budget")?,
        seeds_out: a.text("--seeds-out").map(Into::into),
        corrupt_vegen: a.get("--inject-miscompile")?,
    })
}

// ---------------------------------------------------------------------------
// shared run steps
// ---------------------------------------------------------------------------

/// Build the engine, reporting each optional sink that failed to open,
/// and load the disk cache into memory when `warm_start` is set.
fn start_engine(tag: &str, cfg: EngineConfig, warm_start: bool) -> Engine {
    let engine = Engine::new(cfg);
    for (sink, err) in [
        ("disk cache", engine.disk_open_error()),
        ("event log", engine.event_open_error()),
        ("flight recorder", engine.flight_open_error()),
    ] {
        if let Some(e) = err {
            eprintln!("{tag}: {sink} disabled: {e}");
        }
    }
    if warm_start {
        let loaded = engine.warm_start();
        eprintln!("{tag}: warm start loaded {loaded} cached compile(s)");
    }
    engine
}

/// One job per suite kernel.
fn suite_jobs(pipeline: &PipelineConfig) -> Vec<Job> {
    vegen_kernels::all()
        .into_iter()
        .map(|k| Job::new(k.name, (k.build)(), pipeline.clone()))
        .collect()
}

/// Publish a match table's structural statistics to the metrics registry.
fn publish_match_table(stats: &MatchTableStats) {
    vegen_trace::metrics::counter("speccheck_rules_total").add(stats.rules as u64);
    vegen_trace::metrics::gauge("speccheck_dead_rules").set(stats.dead_rules as f64);
    vegen_trace::metrics::gauge("speccheck_max_overlap_class").set(stats.max_overlap_class as f64);
}

fn write_file(path: &str, text: &str) -> Res<()> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Write a JSON report where `out` says: to its file, or to stdout.
fn emit_report(tag: &str, doc: &Json, out: &Output) -> Res<()> {
    let text = if out.compact { doc.render() } else { doc.render_pretty() };
    match &out.path {
        Some(path) => {
            write_file(path, &text)?;
            eprintln!("{tag}: report written to {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// suite
// ---------------------------------------------------------------------------

/// Names of jobs whose compiled kernels failed verification, in input
/// order (the suite prints each to stderr and exits nonzero).
pub fn failing_kernels(results: &[JobResult]) -> Vec<String> {
    results.iter().filter(|r| r.verify_error.is_some()).map(|r| r.name.clone()).collect()
}

/// Print the per-kernel failure table: every job that completed below
/// [`Rung::Primary`], with its rung and the faults collected on the way
/// down. Silent when the batch was entirely clean. Returns how many jobs
/// produced no program at all.
fn print_failure_table(results: &[JobResult]) -> usize {
    let troubled: Vec<&JobResult> = results.iter().filter(|r| r.rung != Rung::Primary).collect();
    if !troubled.is_empty() {
        eprintln!("vegen-engine: {} kernel(s) below primary rung:", troubled.len());
        eprintln!("  {:<24} {:<8} faults", "kernel", "rung");
    }
    for r in &troubled {
        let first = r.faults.first().map(|e| e.to_string()).unwrap_or_default();
        eprintln!("  {:<24} {:<8} {first}", r.name, r.rung.name());
        for fault in r.faults.iter().skip(1) {
            eprintln!("  {:<24} {:<8} {fault}", "", "");
        }
    }
    troubled.iter().filter(|r| r.rung == Rung::Failed).count()
}

fn run_suite(cfg: SuiteConfig) -> Res<i32> {
    const TAG: &str = "vegen-engine";
    let (trace, folded) = &cfg.trace;
    let tracing = trace.is_some() || folded.is_some();
    if tracing {
        vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    }
    let engine = start_engine(TAG, cfg.engine.clone(), cfg.warm_start);
    if let Some(plan) = cfg.faults {
        let targets: Vec<String> =
            plan.specs().map(|s| format!("{}:{}:{}", s.kernel, s.stage, s.kind.tag())).collect();
        eprintln!("{TAG}: fault injection active — {}", targets.join(", "));
        vegen::fault::install(plan);
    }
    let resolved_threads = match cfg.engine.threads {
        0 => crate::pool::default_threads(vegen_kernels::all().len()),
        n => n,
    };

    let mut runs = Vec::new();
    let mut failed = false;
    let mut hard_failures = 0usize;
    for i in 0..cfg.runs {
        let label = match i {
            0 => "cold".to_string(),
            1 => "warm".to_string(),
            n => format!("warm{n}"),
        };
        let _run_span = vegen_trace::enabled()
            .then(|| vegen_trace::span_owned("engine", format!("run:{label}")));
        // Jobs are rebuilt per run (not cloned across runs) so every
        // execution gets its own correlation id in the event log.
        let jobs = suite_jobs(&cfg.pipeline);
        let t0 = Instant::now();
        let results = engine.compile_batch(&jobs);
        let wall = t0.elapsed();
        for r in &results {
            if let Some(e) = &r.verify_error {
                eprintln!("{TAG}: kernel {} FAILED verification: {e}", r.name);
                failed = true;
            }
        }
        let hits = results.iter().filter(|r| r.cache_hit).count();
        eprintln!(
            "{TAG}: {label} run — {} kernels in {wall:.2?} on {resolved_threads} threads, \
             {hits}/{} cache hits",
            results.len(),
            results.len(),
        );
        // Degraded kernels (width-1 / scalar rungs) are reported, not
        // fatal: graceful degradation is the whole point. Only a kernel
        // with *no* program at all (or a fail-fast abort) gates.
        hard_failures += print_failure_table(&results);
        if cfg.engine.fail_fast && results.iter().any(|r| r.rung != Rung::Primary) {
            hard_failures += 1;
        }
        runs.push(RunReport::new(label, wall, &results));
    }
    vegen::fault::clear();

    let mut trace_summary = TraceSummary::default();
    if tracing {
        let data = vegen_trace::drain();
        vegen_trace::disable();
        trace_summary = TraceSummary {
            enabled: true,
            events: data.event_count(),
            dropped: data.dropped(),
            threads: data.threads.len(),
            file: trace.clone(),
            folded_file: folded.clone(),
        };
        if let Some(path) = trace {
            write_file(path, &vegen_trace::export::chrome_trace(&data).render())?;
            eprintln!(
                "{TAG}: trace written to {path} ({} events, {} dropped)",
                trace_summary.events, trace_summary.dropped
            );
        }
        if let Some(path) = folded {
            write_file(path, &vegen_trace::export::folded_stacks(&data))?;
            eprintln!("{TAG}: folded stacks written to {path}");
        }
    }

    // Structural match-table statistics (cheap: the table is already
    // cached process-wide after the first compile). The full speccheck
    // audit stays out of the suite path — that is `check-specs`' job.
    let table = vegen_analysis::match_table_stats(&target_desc(&cfg.pipeline.target, true));
    publish_match_table(&table);

    let report = EngineReport {
        target: cfg.pipeline.target.name.clone(),
        beam_width: cfg.pipeline.beam.width,
        threads: resolved_threads,
        beam_threads: cfg.engine.beam_threads,
        verify_trials: cfg.engine.verify_trials,
        runs,
        cache: engine.cache_stats(),
        disk: engine.disk_stats(),
        counters: engine.counters(),
        trace: trace_summary,
        match_table: table,
        soak: None,
    };
    emit_report(TAG, &report.to_json(), &cfg.out)?;
    Ok(i32::from(failed || hard_failures > 0))
}

// ---------------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------------

/// Run the generated-kernel soak harness (see [`crate::soak`]). Exit
/// code 0 when every non-faulted kernel passes the differential check
/// and provenance audit (degradations allowed), 1 on any unexplained
/// failure.
fn run_soak_cmd(cfg: &SoakConfig, out: &Output) -> Res<i32> {
    const TAG: &str = "vegen-engine soak";
    let report = run_soak(cfg)?;
    let count = |s: SoakStatus| report.results.iter().filter(|r| r.status == s).count();
    eprintln!(
        "{TAG}: seed {} — {} kernel(s) (shard {}/{}) in {:.2?}: \
         {} passed, {} faulted-degraded, {} degraded, {} diff failure(s), \
         {} provenance failure(s), {} aborted; vectorization rate {:.1}%",
        cfg.seed,
        report.results.len(),
        cfg.shard_index,
        cfg.shard_count,
        report.wall,
        count(SoakStatus::Passed),
        count(SoakStatus::Faulted),
        count(SoakStatus::Degraded),
        count(SoakStatus::DiffFailed),
        count(SoakStatus::ProvenanceFailed),
        count(SoakStatus::Aborted),
        report.vectorization_rate() * 100.0,
    );
    for r in report.results.iter().filter(|r| r.status.is_failure()) {
        eprintln!("{TAG}: {} [{}] {}: {}", r.name, r.shape, r.status.name(), r.detail);
        if let Some(m) = &r.minimized {
            eprintln!(
                "{TAG}:   minimized {} -> {} inst(s){}:\n{}",
                m.from_insts,
                m.insts,
                m.seed_file.as_deref().map(|p| format!(" (seed file {p})")).unwrap_or_default(),
                m.listing
            );
        }
    }

    let doc = EngineReport {
        target: cfg.target.name.clone(),
        beam_width: cfg.beam,
        threads: 1,
        beam_threads: cfg.beam_threads,
        verify_trials: cfg.trials,
        runs: Vec::new(),
        cache: report.cache,
        disk: report.disk,
        counters: report.counters,
        trace: TraceSummary::default(),
        match_table: vegen_analysis::match_table_stats(&target_desc(&cfg.target, true)),
        soak: Some(report.soak_json()),
    };
    emit_report(TAG, &doc.to_json(), out)?;
    Ok(i32::from(report.unexplained_failures() > 0))
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// Run the resident compile daemon over stdio or a Unix socket until it
/// drains.
fn run_serve(
    engine: EngineConfig,
    cfg: &ServeConfig,
    socket: Option<String>,
    warm_start: bool,
) -> Res<i32> {
    const TAG: &str = "vegen-engine serve";
    let engine = start_engine(TAG, engine, warm_start);
    // Publish the match table's structural statistics up front so
    // `vegen-engine stats` can read them live (and the first compile
    // finds the table already built).
    publish_match_table(&vegen_analysis::match_table_stats(&target_desc(&cfg.target, true)));

    let summary = match socket {
        None => serve::serve_lines(&engine, cfg, std::io::stdin().lock(), std::io::stdout()),
        Some(path) => {
            eprintln!("{TAG}: listening on {path}");
            serve::serve_socket(&engine, cfg, std::path::Path::new(&path))?
        }
    };
    eprintln!(
        "{TAG}: drained — {} request(s), {} compile(s), {} shed, {} expired, \
         {} rejected while draining, {} protocol error(s)",
        summary.requests,
        summary.compiles,
        summary.shed,
        summary.expired,
        summary.rejected_draining,
        summary.protocol_errors
    );
    Ok(0)
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

/// Pretty-print one metrics-registry snapshot (the `stats` op's JSON
/// body) as a human-readable table: histograms with their percentiles,
/// then counters, then gauges.
fn render_stats_table(snapshot: &Json) -> String {
    use std::fmt::Write as _;
    let entries = |key: &str| -> Vec<(&str, &Json)> {
        match snapshot.get(key) {
            Some(Json::Obj(pairs)) => pairs.iter().map(|(k, v)| (k.as_str(), v)).collect(),
            _ => Vec::new(),
        }
    };
    let mut out = String::new();
    let histograms = entries("histograms");
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
    }
    for (name, h) in &histograms {
        let field = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let _ = writeln!(
            out,
            "{name:<32} {:>8} {:>10} {:>10} {:>10} {:>10}",
            field("count"),
            field("p50"),
            field("p90"),
            field("p99"),
            field("max"),
        );
    }
    for (kind, width, precision) in [("counter", 8, 0), ("gauge", 12, 4)] {
        let values = entries(&format!("{kind}s"));
        if !values.is_empty() {
            let _ = writeln!(out, "{kind:<32} {:>width$}", "value");
        }
        for (name, v) in &values {
            let _ = writeln!(out, "{name:<32} {:>width$.precision$}", v.as_f64().unwrap_or(0.0));
        }
    }
    out
}

/// Scrape a running serve daemon's metrics registry over its Unix socket
/// and print it: a human table by default, raw Prometheus text with
/// `--prometheus`, or the JSON snapshot with `--json`.
fn run_stats(path: &str, format: &str) -> Res<i32> {
    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::os::unix::net::UnixStream::connect(path)
        .map_err(|e| format!("cannot connect to {path}: {e}"))?;
    let mut request = vec![("op", Json::str("stats")), ("id", Json::str("stats-cli"))];
    if format == "prometheus" {
        request.push(("format", Json::str("prometheus")));
    }
    writeln!(stream.try_clone().map_err(|e| e.to_string())?, "{}", Json::obj(request).render())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let response = Json::parse(&line).map_err(|e| format!("malformed response: {e}"))?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("daemon error: {}", response.render()));
    }
    let result = response.get("result").ok_or("response has no result")?;
    let text = match format {
        "prometheus" => result
            .get("prometheus")
            .and_then(Json::as_str)
            .ok_or("response has no prometheus text")?
            .to_string(),
        "json" => format!("{}\n", result.render_pretty()),
        _ => render_stats_table(result),
    };
    // Ignore write errors: `stats | head` must exit cleanly when stdout
    // is a closed pipe — this is the command built to be piped.
    let _ = std::io::stdout().write_all(text.as_bytes());
    Ok(0)
}

// ---------------------------------------------------------------------------
// explain
// ---------------------------------------------------------------------------

fn run_explain(name: &str, pipeline: &PipelineConfig, max_iters: Option<usize>) -> Res<i32> {
    let Some(kernel) = vegen_kernels::find(name) else {
        let available: Vec<String> =
            vegen_kernels::all().iter().map(|k| format!("  {} ({:?})", k.name, k.suite)).collect();
        return Err(format!("unknown kernel {name:?}; available:\n{}", available.join("\n")));
    };
    let (target, beam) = (&pipeline.target, pipeline.beam.width);

    let f = prepare(&(kernel.build)());
    let desc = target_desc(target, true);
    let ctx = VectorizerCtx::new(&f, &desc, CostModel::default());

    println!("explain {} (target {}, beam {beam})", kernel.name, target.name);
    println!("function: {} instructions, {} stores", f.insts.len(), f.stores().len());

    // costSLP of each store chain's value operand — the Σ costSLP(v) terms
    // the search starts from (this is the diagnostic the old scratch `dbg`
    // binary printed for fft8's output chunks, generalized).
    let slp = SlpCost::new(&ctx);
    for chain in ctx.store_chain_packs() {
        if let Some(x) = chain.store_operand() {
            println!("costSLP({}) = {:.1}", vegen_core::describe_pack(&ctx, &chain), slp.cost(&x));
        }
    }

    let cfg = BeamConfig { log_decisions: true, max_iters, ..BeamConfig::with_width(beam) };
    let t0 = Instant::now();
    // No budget is set here, so the search cannot fail — but surface a
    // typed error cleanly rather than panicking if that ever changes.
    let r = select_packs(&ctx, &cfg).map_err(|e| format!("selection failed: {e}"))?;
    let wall = t0.elapsed();
    println!(
        "selection: scalar {:.1} → vector {:.1} ({:.2}x estimated), {} states expanded in {wall:.2?}",
        r.scalar_cost,
        r.vector_cost,
        r.scalar_cost / r.vector_cost.max(1e-9),
        r.states_expanded,
    );

    let log = r.decisions.as_ref().expect("log_decisions was set");
    println!("committed packs ({}):", log.committed.len());
    for c in &log.committed {
        println!("  {:>3}. {:<40} costop {:.1}", c.step, c.pack, c.cost);
    }
    println!("iterations ({}):", log.iterations.len());
    for it in &log.iterations {
        println!(
            "  iter {:>3}: beam {} → pool {} → dedup {} → kept {}",
            it.index, it.beam_in, it.pool, it.deduped, it.kept
        );
        for c in &it.candidates {
            println!(
                "    {} {:<44} g={:<8.1} est={:<8.1} score={:<8.1} packs={}",
                if c.kept { "KEEP " } else { "PRUNE" },
                c.action,
                c.g,
                c.est,
                c.score,
                c.packs
            );
        }
    }

    // Static validation of the full compilation, run through the engine
    // (so the profitability backstop and lowering are the real ones, and
    // the printed job carries the correlation id and cache source that
    // cross-reference the event log and any flight dump).
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 0, ..Default::default() });
    let result = engine.compile_one(kernel.name, &(kernel.build)(), pipeline);
    let (corr, rung, cache) = (&result.corr, result.rung.name(), result.cache_source());
    println!("job: corr {corr} rung {rung} cache {cache}");
    let Some(compiled) = result.kernel.as_deref() else {
        eprintln!("vegen-engine explain: compilation produced no program:");
        for fault in &result.faults {
            eprintln!("  {fault}");
        }
        return Ok(1);
    };
    println!("static validation: {}", compiled.analysis.verdict());
    for d in compiled.analysis.all() {
        println!("  {d}");
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

/// Run the static validators over the whole suite. Exit code 1 when any
/// kernel has an error-severity finding; warnings are reported but do not
/// gate. `--out` writes the diagnostics as a JSON artifact.
fn run_lint(engine: EngineConfig, pipeline: &PipelineConfig, out: &Output) -> Res<i32> {
    let engine = Engine::new(engine);
    let t0 = Instant::now();
    let results = engine.compile_batch(&suite_jobs(pipeline));
    let wall = t0.elapsed();

    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut rows = Vec::new();
    for r in &results {
        let (name, corr, cache, rung) = (&r.name, &r.corr, r.cache_source(), r.rung.name());
        // A job that produced no program at all is an error-severity
        // finding in its own right; degraded rungs still carry a real
        // analysis (or an empty one for the scalar rung) and lint it.
        let (errors, warnings, packs_checked, lanes_proved, diagnostics) = match &r.kernel {
            Some(kernel) => {
                let a = &kernel.analysis;
                println!("{name:<24} {corr:<8} {cache:<6} {}", a.verdict());
                let diagnostics: Vec<String> = a.all().map(|d| d.to_string()).collect();
                for d in &diagnostics {
                    println!("    {d}");
                }
                (a.error_count(), a.warning_count(), a.packs_checked, a.lanes_proved, diagnostics)
            }
            None => {
                let diagnostics: Vec<String> = r.faults.iter().map(|e| e.to_string()).collect();
                let fault = diagnostics.first().map_or("no program", String::as_str);
                println!("{name:<24} {corr:<8} {cache:<6} {rung} — {fault}");
                (1, 0, 0, 0, diagnostics)
            }
        };
        total_errors += errors;
        total_warnings += warnings;
        rows.push(Json::obj([
            ("name", Json::str(name)),
            ("corr", Json::str(corr)),
            ("cache", Json::str(cache)),
            ("rung", Json::str(rung)),
            ("errors", Json::int(errors as u64)),
            ("warnings", Json::int(warnings as u64)),
            ("packs_checked", Json::int(packs_checked as u64)),
            ("lanes_proved", Json::int(lanes_proved as u64)),
            ("diagnostics", Json::Arr(diagnostics.into_iter().map(Json::str).collect())),
        ]));
    }
    print_failure_table(&results);
    let (target, beam) = (&pipeline.target.name, pipeline.beam.width);
    println!(
        "vegen-engine lint: {} kernels in {wall:.2?} (target {target}, beam {beam}) — \
         {total_errors} error(s), {total_warnings} warning(s)",
        results.len(),
    );
    if out.path.is_some() {
        let doc = Json::obj([
            ("schema", Json::str("vegen-engine-lint/v1")),
            ("target", Json::str(target)),
            ("beam_width", Json::int(beam as u64)),
            ("errors", Json::int(total_errors as u64)),
            ("warnings", Json::int(total_warnings as u64)),
            ("kernels", Json::Arr(rows)),
        ]);
        emit_report("vegen-engine lint", &doc, out)?;
    }
    Ok(i32::from(total_errors > 0))
}

// ---------------------------------------------------------------------------
// check-specs
// ---------------------------------------------------------------------------

/// Audit the offline spec chain (pseudocode → VIDL → match table) for one
/// or all targets. Exit code 1 when any target has an error-severity
/// finding; warnings are reported but do not gate. A `corrupt` kind
/// injects a deliberate corruption first, so CI can assert the gate
/// rejects a broken database and names the mutated instruction.
fn run_check_specs(
    targets: &[TargetIsa],
    corrupt: Option<&str>,
    canonicalize: bool,
    json: bool,
    out: &Output,
) -> Res<i32> {
    use vegen_analysis::speccheck::{check_database, corrupt_database};
    use vegen_isa::{specs::all_specs, InstDb};
    const TAG: &str = "vegen-engine check-specs";

    let t0 = Instant::now();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut rows = Vec::new();
    for target in targets {
        let specs: Vec<_> = all_specs()
            .iter()
            .filter(|s| target.has(s.ext) && s.bits <= target.max_bits)
            .cloned()
            .collect();
        let mut db = InstDb::for_target(target);
        let mut corrupted_inst: Option<String> = None;
        if let Some(kind) = corrupt {
            let (bad, name) =
                corrupt_database(&db, kind).map_err(|e| format!("--corrupt {kind}: {e}"))?;
            eprintln!("{TAG}: injected {kind} corruption into {name} ({})", target.name);
            db = bad;
            corrupted_inst = Some(name);
        }
        let report = check_database(&target.name, &specs, &db, canonicalize);
        total_errors += report.error_count();
        total_warnings += report.warning_count();
        if !json {
            println!("{}", report.verdict());
            for d in &report.diagnostics {
                println!("    {d}");
            }
        }
        publish_match_table(&report.stats);
        rows.push(Json::obj([
            ("target", Json::str(&report.target)),
            ("insts_checked", Json::int(report.insts_checked as u64)),
            ("lanes_proved", Json::int(report.lanes_proved as u64)),
            ("lanes_validated", Json::int(report.lanes_validated as u64)),
            ("rules", Json::int(report.stats.rules as u64)),
            ("ops", Json::int(report.stats.ops as u64)),
            ("dead_rules", Json::int(report.stats.dead_rules as u64)),
            ("max_overlap_class", Json::int(report.stats.max_overlap_class as u64)),
            ("errors", Json::int(report.error_count() as u64)),
            ("warnings", Json::int(report.warning_count() as u64)),
            ("corrupted_inst", corrupted_inst.as_deref().map_or(Json::Null, Json::str)),
            (
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(|d| Json::str(d.to_string())).collect()),
            ),
        ]));
    }
    let doc = Json::obj([
        ("schema", Json::str("vegen-engine-speccheck/v1")),
        ("corruption", corrupt.map_or(Json::Null, Json::str)),
        ("errors", Json::int(total_errors as u64)),
        ("warnings", Json::int(total_warnings as u64)),
        ("targets", Json::Arr(rows)),
    ]);
    if json {
        emit_report(TAG, &doc, &Output::default())?;
    }
    if out.path.is_some() {
        emit_report(TAG, &doc, out)?;
    }
    if !json {
        println!(
            "{TAG}: {} target(s) in {:.2?} — {total_errors} error(s), {total_warnings} warning(s)",
            targets.len(),
            t0.elapsed(),
        );
    }
    Ok(i32::from(total_errors > 0))
}

// ---------------------------------------------------------------------------
// diff
// ---------------------------------------------------------------------------

struct KernelRow {
    vegen_cycles: f64,
    speedup_vs_baseline: f64,
    states_expanded: f64,
    transitions: f64,
}

/// A report regression found by [`diff_reports`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Kernel name (or `"<suite>"` for report-level findings).
    pub kernel: String,
    /// What regressed, with old → new values.
    pub what: String,
}

/// Thresholds for [`diff_reports`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Allowed relative worsening, in percent, of cycles and speedups.
    pub max_regress_pct: f64,
    /// Treat search-effort counter growth beyond the threshold as a
    /// regression too (off by default: counters are informational).
    pub strict_counters: bool,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig { max_regress_pct: 2.0, strict_counters: false }
    }
}

/// The kernel rows of a report's cold run (else its first run).
fn kernel_rows(report: &Json, which: &str) -> Res<Vec<(String, KernelRow)>> {
    let schema = report
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which}: missing schema field"))?;
    // `BENCH_suite.json` (the suite bench artifact) embeds the same
    // per-run kernel rows, so diff accepts either document.
    if !schema.starts_with("vegen-engine-report/") && !schema.starts_with("vegen-bench-suite/") {
        return Err(format!("{which}: unrecognized schema {schema:?}"));
    }
    let runs = report.get("runs").and_then(Json::as_arr).ok_or("report has no runs")?;
    let run = runs
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some("cold"))
        .or_else(|| runs.first())
        .ok_or("report has zero runs")?;
    let kernels = run.get("kernels").and_then(Json::as_arr).ok_or("run has no kernels")?;
    let row = |k: &Json| -> Res<(String, KernelRow)> {
        let name = k.get("name").and_then(Json::as_str).ok_or("kernel without a name")?;
        let num = |key: &str| k.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let beam = k.get("beam").and_then(|b| b.get("transitions")).and_then(Json::as_f64);
        let row = KernelRow {
            vegen_cycles: num("vegen_cycles"),
            speedup_vs_baseline: num("speedup_vs_baseline"),
            states_expanded: num("states_expanded"),
            transitions: beam.unwrap_or(0.0),
        };
        Ok((name.to_string(), row))
    };
    kernels.iter().map(row).collect()
}

/// Compare two parsed engine reports. Returns the regressions (empty =
/// gate passes) and informational lines describing non-gating changes.
///
/// # Errors
///
/// Returns a message when either document is not an engine report.
pub fn diff_reports(
    old: &Json,
    new: &Json,
    cfg: &DiffConfig,
) -> Result<(Vec<Regression>, Vec<String>), String> {
    let old_rows = kernel_rows(old, "old")?;
    let new_rows = kernel_rows(new, "new")?;
    let factor = 1.0 + cfg.max_regress_pct / 100.0;

    let mut regressions = Vec::new();
    let mut info = Vec::new();
    for (name, o) in &old_rows {
        let mut regress = |what| regressions.push(Regression { kernel: name.clone(), what });
        let Some((_, n)) = new_rows.iter().find(|(nn, _)| nn == name) else {
            regress("kernel missing from new report".to_string());
            continue;
        };
        if n.vegen_cycles > o.vegen_cycles * factor {
            let (ov, nv) = (o.vegen_cycles, n.vegen_cycles);
            regress(format!("vegen_cycles {ov:.1} → {nv:.1} (+{:.1}%)", (nv / ov - 1.0) * 100.0));
        }
        if n.speedup_vs_baseline * factor < o.speedup_vs_baseline {
            let (ov, nv) = (o.speedup_vs_baseline, n.speedup_vs_baseline);
            regress(format!("speedup_vs_baseline {ov:.3} → {nv:.3}"));
        }
        for (label, ov, nv) in [
            ("states_expanded", o.states_expanded, n.states_expanded),
            ("transitions", o.transitions, n.transitions),
        ] {
            if nv > ov * factor && ov > 0.0 {
                let line =
                    format!("{name}: {label} {ov:.0} → {nv:.0} (+{:.1}%)", (nv / ov - 1.0) * 100.0);
                if cfg.strict_counters {
                    regress(line);
                } else {
                    info.push(line);
                }
            }
        }
    }
    for (name, _) in &new_rows {
        if !old_rows.iter().any(|(on, _)| on == name) {
            info.push(format!("{name}: new kernel (not in old report)"));
        }
    }
    Ok((regressions, info))
}

fn run_diff(old_path: &str, new_path: &str, cfg: &DiffConfig) -> Res<i32> {
    let load = |path: &str| -> Res<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (regressions, info) = diff_reports(&load(old_path)?, &load(new_path)?, cfg)?;
    for line in &info {
        println!("info: {line}");
    }
    for r in &regressions {
        println!("REGRESSION {}: {}", r.kernel, r.what);
    }
    if regressions.is_empty() {
        println!("vegen-engine diff: no regressions (threshold {:.1}%)", cfg.max_regress_pct);
    } else {
        println!("vegen-engine diff: {} regression(s)", regressions.len());
    }
    Ok(i32::from(!regressions.is_empty()))
}
