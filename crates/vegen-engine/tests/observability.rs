//! Observability integration tests: verification-failure reporting, the
//! v4 report round-trip, trace capture across the engine's layers, the
//! decision log, the `diff`/`explain`/`lint` subcommands (library and
//! binary), and the command-line contract shared by every subcommand.

use std::sync::Arc;
use vegen::driver::{compile, PipelineConfig};
use vegen_core::BeamConfig;
use vegen_engine::cli::{
    diff_reports, failing_kernels, main_with_args, parse, Command, DiffConfig, Output,
};
use vegen_engine::json::Json;
use vegen_engine::report::EngineReport;
use vegen_engine::serve::ServeConfig;
use vegen_engine::soak::SoakConfig;
use vegen_engine::{Engine, EngineConfig, Job};
use vegen_isa::TargetIsa;
use vegen_vm::listing;

fn pipeline(width: usize) -> PipelineConfig {
    PipelineConfig {
        target: TargetIsa::avx2(),
        beam: BeamConfig::with_width(width),
        canonicalize_patterns: true,
    }
}

fn jobs_for(names: &[&str], pipeline: &PipelineConfig) -> Vec<Job> {
    names
        .iter()
        .map(|n| {
            let k = vegen_kernels::find(n).unwrap_or_else(|| panic!("kernel {n} must exist"));
            Job::new(k.name, (k.build)(), pipeline.clone())
        })
        .collect()
}

fn small_report(decisions: bool) -> EngineReport {
    let engine = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() });
    let mut pipeline = pipeline(4);
    pipeline.beam.log_decisions = decisions;
    let jobs = jobs_for(&["pmaddwd", "int32x8", "hadd_i16"], &pipeline);
    let t0 = std::time::Instant::now();
    let results = engine.compile_batch(&jobs);
    EngineReport {
        target: "avx2".to_string(),
        beam_width: 4,
        threads: 2,
        beam_threads: 0,
        verify_trials: 4,
        runs: vec![vegen_engine::report::RunReport::new("cold", t0.elapsed(), &results)],
        cache: engine.cache_stats(),
        disk: engine.disk_stats(),
        counters: engine.counters(),
        trace: Default::default(),
        match_table: Default::default(),
        soak: None,
    }
}

/// Two functions with identical buffer layouts but different semantics
/// (lane-wise add vs mul), so grafting one's program onto the other is a
/// genuine, runnable wrong answer.
fn lanewise(name: &str, mul: bool) -> vegen_ir::Function {
    let mut b = vegen_ir::FunctionBuilder::new(name);
    let a = b.param("A", vegen_ir::Type::I32, 8);
    let bb = b.param("B", vegen_ir::Type::I32, 8);
    let c = b.param("C", vegen_ir::Type::I32, 8);
    for i in 0..8i64 {
        let x = b.load(a, i);
        let y = b.load(bb, i);
        let r = if mul { b.mul(x, y) } else { b.add(x, y) };
        b.store(c, i, r);
    }
    b.finish()
}

#[test]
fn verification_failure_is_surfaced_with_kernel_name() {
    // A genuine failure: graft the mul kernel's vectorized program onto
    // the add kernel — equivalence checking must catch the divergence.
    let mut ck_add = compile(&lanewise("vadd", false), &pipeline(4));
    let ck_mul = compile(&lanewise("vmul", true), &pipeline(4));
    assert!(ck_add.verify(8).is_ok());
    ck_add.vegen = ck_mul.vegen;
    let err = ck_add.verify(8).expect_err("foreign program must fail verification");
    assert!(err.contains("vegen"), "failure must name the diverging program: {err}");

    // The engine surfaces failures per job; `failing_kernels` is the list
    // the suite prints to stderr (exiting nonzero) — check it selects
    // exactly the failed job, by name.
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 4, ..Default::default() });
    let results = engine.compile_batch(&jobs_for(&["pmaddwd", "int32x8"], &pipeline(4)));
    assert!(failing_kernels(&results).is_empty());
    let mut results = results;
    results[1].verify_error = Some(err);
    assert_eq!(failing_kernels(&results), vec!["int32x8".to_string()]);
}

#[test]
fn engine_report_v6_round_trips_through_the_parser() {
    let report = small_report(true);
    let doc = report.to_json();
    // Render pretty, hand-parse, and walk the fields back out.
    let parsed = Json::parse(&doc.render_pretty()).expect("report must be valid JSON");
    assert_eq!(parsed, doc, "render → parse must be lossless");
    assert_eq!(parsed.get("schema").unwrap().as_str(), Some("vegen-engine-report/v10"));
    // The v10 soak block: absent (null) in a plain suite report.
    assert_eq!(parsed.get("soak"), Some(&Json::Null));
    // The v8 metrics-registry block: the process-wide registry snapshot.
    let metrics = parsed.get("metrics").expect("v8 report embeds the metrics registry");
    assert!(metrics.get("histograms").is_some() && metrics.get("counters").is_some());
    // The v9 match-table block: structural statistics of the audited table.
    let table = parsed.get("match_table").expect("v9 report embeds match-table stats");
    assert!(table.get("rules").is_some() && table.get("max_overlap_class").is_some());
    let trace = parsed.get("trace").expect("report has trace metadata");
    assert_eq!(trace.get("enabled").unwrap().as_bool(), Some(false));
    assert_eq!(trace.get("file"), Some(&Json::Null));
    let run = &parsed.get("runs").unwrap().as_arr().unwrap()[0];
    let kernel = &run.get("kernels").unwrap().as_arr().unwrap()[0];
    assert_eq!(kernel.get("name").unwrap().as_str(), Some("pmaddwd"));
    assert!(kernel.get("vegen_cycles").unwrap().as_f64().unwrap() > 0.0);
    let decisions = kernel.get("decisions").expect("log_decisions run has summaries");
    assert!(decisions.get("iterations").unwrap().as_f64().unwrap() >= 1.0);
    assert!(!decisions.get("committed_packs").unwrap().as_arr().unwrap().is_empty());
    // The v4 static-validation block: clean suite kernels prove all lanes.
    let analysis = kernel.get("analysis").expect("v4 has an analysis block");
    assert_eq!(analysis.get("errors").unwrap().as_f64(), Some(0.0));
    assert!(analysis.get("lanes_proved").unwrap().as_f64().unwrap() > 0.0);
    // The v5 fault-tolerance fields: a clean run is all primary-rung,
    // fault-free, with zeroed failure counters.
    assert_eq!(kernel.get("rung").unwrap().as_str(), Some("primary"));
    assert_eq!(kernel.get("failed").unwrap().as_bool(), Some(false));
    assert!(kernel.get("faults").unwrap().as_arr().unwrap().is_empty());
    let counters = parsed.get("counters").unwrap();
    assert!(counters.get("analyses").unwrap().as_f64().unwrap() >= 3.0);
    assert_eq!(counters.get("analysis_errors").unwrap().as_f64(), Some(0.0));
    for c in ["failures", "retries", "degradations", "deadline_hits"] {
        assert_eq!(counters.get(c).unwrap().as_f64(), Some(0.0), "{c}");
    }
    // The v6 persistent-cache fields: no --cache-dir here, so every kernel
    // is a memory-or-miss compile, the run counts zero disk hits, and the
    // disk block is null.
    assert_eq!(kernel.get("cache").unwrap().as_str(), Some("miss"));
    assert_eq!(run.get("disk_hits").unwrap().as_f64(), Some(0.0));
    for c in ["disk_hits", "disk_stores", "cache_io_errors"] {
        assert_eq!(counters.get(c).unwrap().as_f64(), Some(0.0), "{c}");
    }
    assert_eq!(parsed.get("disk"), Some(&Json::Null));
    let stage = kernel.get("stage_times").unwrap();
    assert!(stage.get("analysis_us").unwrap().as_f64().unwrap() >= 0.0);
    // And the compact rendering parses to the same tree.
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
}

#[test]
fn decision_summaries_are_absent_without_the_flag() {
    let report = small_report(false);
    let doc = report.to_json();
    let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
    for kernel in run.get("kernels").unwrap().as_arr().unwrap() {
        assert_eq!(kernel.get("decisions"), Some(&Json::Null));
    }
}

#[test]
fn diff_of_identical_reports_is_clean_and_regressions_are_caught() {
    let doc = small_report(false).to_json();
    let (regressions, _) = diff_reports(&doc, &doc, &DiffConfig::default()).unwrap();
    assert!(regressions.is_empty(), "a report must not regress against itself: {regressions:?}");

    // Worsen one kernel's cycles by 10% — past the 2% default threshold.
    let mut worse = doc.clone();
    bump_first_kernel_field(&mut worse, "vegen_cycles", 1.10);
    let (regressions, _) = diff_reports(&doc, &worse, &DiffConfig::default()).unwrap();
    assert_eq!(regressions.len(), 1, "{regressions:?}");
    assert!(regressions[0].what.contains("vegen_cycles"));

    // The same delta passes under a looser threshold.
    let cfg = DiffConfig { max_regress_pct: 15.0, ..Default::default() };
    let (regressions, _) = diff_reports(&doc, &worse, &cfg).unwrap();
    assert!(regressions.is_empty());

    // Counter growth is informational by default, gating under strict.
    let mut churn = doc.clone();
    bump_first_kernel_field(&mut churn, "states_expanded", 3.0);
    let (regressions, info) = diff_reports(&doc, &churn, &DiffConfig::default()).unwrap();
    assert!(regressions.is_empty());
    assert!(info.iter().any(|l| l.contains("states_expanded")), "{info:?}");
    let strict = DiffConfig { strict_counters: true, ..Default::default() };
    let (regressions, _) = diff_reports(&doc, &churn, &strict).unwrap();
    assert!(!regressions.is_empty());

    // A kernel disappearing is always a regression.
    let mut missing = doc.clone();
    drop_first_kernel(&mut missing);
    let (regressions, _) = diff_reports(&doc, &missing, &DiffConfig::default()).unwrap();
    assert!(regressions.iter().any(|r| r.what.contains("missing")), "{regressions:?}");
}

fn with_first_kernel(doc: &mut Json, f: impl FnOnce(&mut Vec<Json>)) {
    let Json::Obj(top) = doc else { panic!("report is an object") };
    let runs = &mut top.iter_mut().find(|(k, _)| k == "runs").unwrap().1;
    let Json::Arr(runs) = runs else { panic!() };
    let Json::Obj(run) = &mut runs[0] else { panic!() };
    let kernels = &mut run.iter_mut().find(|(k, _)| k == "kernels").unwrap().1;
    let Json::Arr(kernels) = kernels else { panic!() };
    f(kernels);
}

fn bump_first_kernel_field(doc: &mut Json, field: &str, factor: f64) {
    with_first_kernel(doc, |kernels| {
        let Json::Obj(kernel) = &mut kernels[0] else { panic!() };
        let v = &mut kernel.iter_mut().find(|(k, _)| k == field).unwrap().1;
        let Json::Num(n) = v else { panic!() };
        *n *= factor;
    });
}

fn drop_first_kernel(doc: &mut Json) {
    with_first_kernel(doc, |kernels| {
        kernels.remove(0);
    });
}

#[test]
fn trace_session_captures_all_three_layers_without_perturbing_codegen() {
    let batch_names = ["pmaddwd", "int32x8", "hadd_i16", "max_pd"];
    // Reference run, tracing off.
    let plain = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() })
        .compile_batch(&jobs_for(&batch_names, &pipeline(4)));

    vegen_trace::enable(vegen_trace::DEFAULT_CAPACITY);
    let traced = Engine::new(EngineConfig { threads: 2, verify_trials: 4, ..Default::default() })
        .compile_batch(&jobs_for(&batch_names, &pipeline(4)));
    let data = vegen_trace::drain();
    vegen_trace::disable();

    // Observation only: identical programs with tracing on.
    for (p, t) in plain.iter().zip(&traced) {
        let (pk, tk) = (p.kernel.as_deref().unwrap(), t.kernel.as_deref().unwrap());
        assert_eq!(listing(&pk.vegen), listing(&tk.vegen), "{}", p.name);
        assert_eq!(p.hash, t.hash);
    }

    // All three instrumented layers show up.
    let events: Vec<_> = data.threads.iter().flat_map(|t| &t.events).collect();
    let has = |cat: &str, name: &str| events.iter().any(|e| e.cat == cat && e.name == name);
    assert!(has("driver", "selection") && has("driver", "lowering"), "driver stage spans");
    assert!(has("engine", "cache_miss") && has("engine", "verify"), "engine cache/verify events");
    assert!(has("pool", "job"), "pool job spans");
    assert!(has("beam", "select_packs") && has("beam", "frontier"), "beam spans + counters");

    // Both exports are well-formed.
    let chrome = vegen_trace::export::chrome_trace(&data);
    let reparsed = Json::parse(&chrome.render()).unwrap();
    assert!(!reparsed.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
    let folded = vegen_trace::export::folded_stacks(&data);
    assert!(
        folded.lines().any(|l| l.contains("select_packs")),
        "folded stacks must contain beam frames:\n{folded}"
    );
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_subcommand_honours_the_usage_contract() {
    // (leading words, a flag that takes a value) per subcommand; the
    // leading words include any operand so only the flag is at fault.
    let table: [(&[&str], &str); 8] = [
        (&[], "--beam"),
        (&["soak"], "--seed"),
        (&["serve", "--stdio"], "--queue"),
        (&["stats"], "--socket"),
        (&["explain", "pmaddwd"], "--beam"),
        (&["lint"], "--out"),
        (&["check-specs"], "--corrupt"),
        (&["diff", "a.json", "b.json"], "--max-regress"),
    ];
    for (lead, value_flag) in table {
        let with = |extra: &[&str]| args(&[lead, extra].concat());
        assert_eq!(main_with_args(&with(&["--help"])), 0, "{lead:?} --help");
        assert_eq!(main_with_args(&with(&["-h"])), 0, "{lead:?} -h");
        assert_eq!(main_with_args(&with(&["--bogus"])), 2, "{lead:?} --bogus");
        assert_eq!(main_with_args(&with(&[value_flag])), 2, "{lead:?} {value_flag}");
        let err = parse(&with(&[value_flag]), &no_env).unwrap_err();
        assert!(err.ends_with(&format!(": {value_flag} needs a value")), "{err}");
        let err = parse(&with(&["--bogus"]), &no_env).unwrap_err();
        assert!(err.ends_with(": unknown argument \"--bogus\""), "{err}");
    }
    assert_eq!(main_with_args(&args(&["explain", "pmaddwd", "--beam", "4"])), 0);
    assert_eq!(main_with_args(&args(&["explain", "no-such-kernel"])), 2);
    assert_eq!(main_with_args(&args(&["explain"])), 2);
    assert_eq!(main_with_args(&args(&["diff", "only-one.json"])), 2);
    assert_eq!(main_with_args(&args(&["--beam", "wide"])), 2);
}

fn no_env(_: &str) -> Option<String> {
    None
}

#[test]
fn command_lines_from_ci_and_the_readme_parse_to_the_intended_configs() {
    let parse_ok = |v: &[&str], env: &dyn Fn(&str) -> Option<String>| {
        parse(&args(v), env).unwrap_or_else(|e| panic!("{v:?}: {e}"))
    };
    let debug = |x: &dyn std::fmt::Debug| format!("{x:?}");

    // Defaults come from the flag table and must match the config types'.
    let Command::Suite(cfg) = parse_ok(&[], &no_env) else { panic!("suite") };
    assert_eq!(debug(&cfg.engine), debug(&EngineConfig::default()));
    assert_eq!(debug(&cfg.pipeline), debug(&PipelineConfig::new(TargetIsa::avx2(), 16)));
    assert_eq!((cfg.runs, cfg.faults.is_none(), cfg.out.path), (2, true, None));

    let ci = ["--beam", "16", "--fault-seed", "42", "--fault-count", "3", "--runs", "1"];
    let Command::Suite(cfg) = parse_ok(&ci, &no_env) else { panic!("suite") };
    assert_eq!((cfg.runs, cfg.faults.map(|p| p.len())), (1, Some(3)));

    let line = ["soak", "--seed", "42", "--count", "400", "--shard", "1/2", "--fault-every", "17"];
    let Command::Soak(cfg, out) = parse_ok(&line, &no_env) else { panic!("soak") };
    let want = SoakConfig {
        seed: 42,
        count: 400,
        shard_index: 1,
        shard_count: 2,
        fault_every: 17,
        ..SoakConfig::default()
    };
    assert_eq!(debug(&cfg), debug(&want));
    assert_eq!(out, Output::default());

    let line = ["serve", "--stdio", "--cache-dir", "D", "--warm-start"];
    let Command::Serve(engine, cfg, socket, warm) = parse_ok(&line, &no_env) else {
        panic!("serve")
    };
    let want = EngineConfig { cache_dir: Some("D".into()), ..EngineConfig::default() };
    assert_eq!(debug(&engine), debug(&want));
    assert_eq!(debug(&cfg), debug(&ServeConfig::default()));
    assert_eq!((socket, warm), (None, true));

    let Command::CheckSpecs(targets, corrupt, canonicalize, json, _) =
        parse_ok(&["check-specs", "--target", "all"], &no_env)
    else {
        panic!("check-specs")
    };
    assert_eq!(targets, vec![TargetIsa::sse4(), TargetIsa::avx2(), TargetIsa::avx512vnni()]);
    assert_eq!((corrupt, canonicalize, json), (None, true, false));

    let line = ["diff", "a", "b", "--max-regress", "0", "--strict-counters"];
    let Command::Diff(old, new, cfg) = parse_ok(&line, &no_env) else { panic!("diff") };
    assert_eq!((old.as_str(), new.as_str()), ("a", "b"));
    assert_eq!((cfg.max_regress_pct, cfg.strict_counters), (0.0, true));
    let Command::Diff(_, _, cfg) = parse_ok(&["diff", "a", "b"], &no_env) else { panic!("diff") };
    assert_eq!(cfg.max_regress_pct, DiffConfig::default().max_regress_pct);

    // Environment fallbacks: the command line wins, an unparseable
    // VEGEN_BEAM_THREADS reads as auto, and a seeded plan wins over
    // VEGEN_FAULTS.
    let env = |threads: &'static str, faults: &'static str| {
        move |var: &str| match var {
            "VEGEN_BEAM_THREADS" => Some(threads.to_string()),
            "VEGEN_FAULTS" => Some(faults.to_string()),
            _ => None,
        }
    };
    let beam_threads = |v: &[&str], threads| match parse_ok(v, &env(threads, "")) {
        Command::Suite(cfg) => cfg.engine.beam_threads,
        Command::Soak(cfg, _) => cfg.beam_threads,
        Command::Serve(engine, ..) | Command::Lint(engine, ..) => engine.beam_threads,
        other => panic!("{other:?}"),
    };
    assert_eq!(beam_threads(&[], "4"), 4);
    assert_eq!(beam_threads(&["soak"], "4"), 4);
    assert_eq!(beam_threads(&["serve", "--stdio"], "4"), 4);
    assert_eq!(beam_threads(&["--beam-threads", "2"], "4"), 2);
    assert_eq!(beam_threads(&[], "many"), 0);
    assert_eq!(beam_threads(&["lint"], "4"), 0, "lint takes no --beam-threads");
    let faults = |v: &[&str], spec| match parse(&args(v), &env("", spec)) {
        Ok(Command::Suite(cfg)) => Ok(cfg.faults.map(|p| p.len())),
        Ok(other) => panic!("{other:?}"),
        Err(e) => Err(e),
    };
    assert_eq!(faults(&[], "pmaddwd:selection:panic"), Ok(Some(1)));
    assert_eq!(faults(&["--fault-seed", "7"], "pmaddwd:selection:panic"), Ok(Some(3)));
    assert!(faults(&[], "nonsense").unwrap_err().contains("VEGEN_FAULTS"));
    assert_eq!(faults(&["--faults", "idct4:lowering:error"], "nonsense"), Ok(Some(1)));
}

#[test]
fn check_specs_subcommand_gates_on_corruption() {
    // The in-tree chain audits clean; a corrupted database gates with
    // exit 1; a bogus corruption kind is a usage error.
    assert_eq!(main_with_args(&args(&["check-specs", "--target", "sse4"])), 0);
    assert_eq!(
        main_with_args(&args(&["check-specs", "--target", "sse4", "--corrupt", "neg-cost"])),
        1
    );
    assert_eq!(main_with_args(&args(&["check-specs", "--corrupt", "bogus"])), 2);
}

#[test]
fn diff_binary_reports_exit_codes() {
    let dir = std::env::temp_dir().join(format!("vegen-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let doc = small_report(false).to_json();
    let old = dir.join("old.json");
    std::fs::write(&old, doc.render_pretty()).unwrap();
    let mut worse_doc = doc.clone();
    bump_first_kernel_field(&mut worse_doc, "vegen_cycles", 1.5);
    let worse = dir.join("worse.json");
    std::fs::write(&worse, worse_doc.render_pretty()).unwrap();

    let run = |a: &std::path::Path, b: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
            .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
            .output()
            .expect("binary must run")
    };
    let same = run(&old, &old);
    assert_eq!(same.status.code(), Some(0), "{}", String::from_utf8_lossy(&same.stdout));
    assert!(String::from_utf8_lossy(&same.stdout).contains("no regressions"));

    let regressed = run(&old, &worse);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("REGRESSION"));

    let bad = run(&old, &dir.join("does-not-exist.json"));
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shared_cache_arc_survives_decision_logging() {
    // log_decisions is part of the content hash (it rides in BeamConfig's
    // Debug form), so logged and unlogged runs must not collide in the
    // cache.
    let engine = Engine::new(EngineConfig { threads: 1, verify_trials: 0, ..Default::default() });
    let mut logged = pipeline(4);
    logged.beam.log_decisions = true;
    let a = engine.compile_batch(&jobs_for(&["pmaddwd"], &pipeline(4)));
    let b = engine.compile_batch(&jobs_for(&["pmaddwd"], &logged));
    assert_ne!(a[0].hash, b[0].hash, "configs differ, addresses must differ");
    assert!(!Arc::ptr_eq(a[0].kernel.as_ref().unwrap(), b[0].kernel.as_ref().unwrap()));
    let (ak, bk) = (a[0].kernel.as_deref().unwrap(), b[0].kernel.as_deref().unwrap());
    assert!(bk.selection.decisions.is_some());
    assert!(ak.selection.decisions.is_none());
    // Identical generated code either way.
    assert_eq!(listing(&ak.vegen), listing(&bk.vegen));
}

#[test]
fn lint_subcommand_gates_and_writes_artifact() {
    let dir = std::env::temp_dir().join(format!("vegen-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("lint.json");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["lint", "--beam", "4", "--out", out.to_str().unwrap()])
        .output()
        .expect("binary must run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "lint must pass on the suite:\n{stdout}");
    assert!(stdout.contains("0 error(s)"), "{stdout}");
    let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("vegen-engine-lint/v1"));
    assert_eq!(doc.get("errors").unwrap().as_f64(), Some(0.0));
    let kernels = doc.get("kernels").unwrap().as_arr().unwrap();
    assert_eq!(kernels.len(), vegen_kernels::all().len());
    for k in kernels {
        assert_eq!(k.get("errors").unwrap().as_f64(), Some(0.0), "{k:?}");
    }
    // Bad usage still exits 2.
    let bad = std::process::Command::new(env!("CARGO_BIN_EXE_vegen-engine"))
        .args(["lint", "--bogus"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}
