//! `serve`: a resident service driven by `serve_lines` over in-process
//! pipes, one closed-loop client keeping `nproc` requests outstanding.
//!
//! The request stream is a fixed sequence (an *epoch*), replayed against a
//! cold cache until the measured time is up, so every epoch does the same
//! work. Requests come from a universe of the suite kernels (sent by name)
//! and generated kernels of the fixed corpus (sent as serialized
//! functions). Half are first requests, half repeat an earlier kernel,
//! and a third of the repeats are dependence-respecting reorders of
//! generated kernels, checked against the original on the interpreter
//! before anything is sent. Suite kernels travel by name, so their
//! repeats are exact. Which kernel each request asks for is fixed; the
//! run's seed draws the reorders and the check images. (With the whole
//! sequence drawn from the seed, throughput spread by a fifth of its
//! median across five seeds: the seed changed the work, not the noise.)

use crate::checks::{check_kernel, check_variant, mix, reorder, shuffle};
use crate::corpus::CORPUS_SEED;
use crate::layers::{self, Outside};
use crate::replay::{replay, Counts};
use crate::report::Report;
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::Args;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;
use vegen::driver::target_desc;
use vegen::ir::rng::XorShift;
use vegen::ir::Function;
use vegen::kernels::gen::generate;
use vegen_engine::json::Json;
use vegen_engine::serdes::{function_from_json, function_to_json};
use vegen_engine::serve::{serve_lines, ServeConfig};
use vegen_engine::{Engine, EngineConfig};

/// Requests per epoch (p99 needs at least 1,000).
const REQUESTS: usize = 1000;
/// Kernels in the universe: the 33 suite kernels and the first kernels
/// of the fixed corpus. Every one is requested fresh exactly once per
/// epoch, so half the requests are first requests and half repeat an
/// earlier kernel.
const UNIVERSE: usize = REQUESTS / 2;
/// Repeats sent as a reordered variant: a third of them.
const VARIANTS: usize = (REQUESTS - UNIVERSE) / 3;
/// Seed of the request sequence's structure (which kernel each position
/// asks for). The run's seed draws the variants' reorders and the check
/// images.
const SEQUENCE_SEED: u64 = 7;
/// Epochs every run makes at least (a traced run needs one untraced and
/// one traced epoch); the peak memory comes from these.
const MIN_EPOCHS: usize = 2;
/// Zipf exponent of the popularity of exact repeats.
const ZIPF: f64 = 1.0;

/// One request of the epoch.
struct Request {
    line: String,
    /// Universe index of the kernel.
    key: usize,
    /// The function as sent, when sent serialized.
    wire: Option<Json>,
    /// The reordered function, when the request is a variant.
    variant: Option<Function>,
}

/// What one position of the epoch asks for.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    Repeat,
    Variant,
}

fn uniform(rng: &mut XorShift) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    shuffle(&mut v, seed);
    v
}

/// Build the epoch's request sequence, checking every variant.
///
/// The counts are exact: each universe kernel once fresh, exact repeats
/// drawn by Zipf popularity over a fixed ranking, and variants of
/// generated kernels already seen, drawn uniformly (suite kernels travel
/// by name and cannot be reordered). Which kernel each position asks for
/// comes from `SEQUENCE_SEED`; `seed` draws the reorders and the images
/// of the variant checks.
fn requests(seed: u64, rep: &mut Report) -> (Vec<Request>, Vec<Function>) {
    let suite = vegen::kernels::all();
    let mut universe: Vec<Function> = suite.iter().map(|k| (k.build)()).collect();
    let generated = (UNIVERSE - suite.len()) as u64;
    universe.extend((0..generated).map(|i| generate(CORPUS_SEED, i).function));
    let weight: Vec<f64> = {
        let rank = shuffled(UNIVERSE, mix(SEQUENCE_SEED, 0x7a4c));
        let mut w = vec![0.0; UNIVERSE];
        for (r, &k) in rank.iter().enumerate() {
            w[k] = 1.0 / ((r + 1) as f64).powf(ZIPF);
        }
        w
    };
    let mut fresh = shuffled(UNIVERSE, mix(SEQUENCE_SEED, 0xf7e5)).into_iter();
    // The first request is fresh; the other positions are shuffled.
    let mut kinds = vec![Kind::Fresh; UNIVERSE - 1];
    kinds.extend(std::iter::repeat_n(Kind::Repeat, REQUESTS - UNIVERSE - VARIANTS));
    kinds.extend(std::iter::repeat_n(Kind::Variant, VARIANTS));
    shuffle(&mut kinds, mix(SEQUENCE_SEED, 0x6b1d));
    kinds.insert(0, Kind::Fresh);

    let mut rng = XorShift::new(mix(SEQUENCE_SEED, 0x5e7e) | 1);
    let (mut seen, mut seen_generated) = (Vec::new(), Vec::new());
    let mut out = Vec::with_capacity(REQUESTS);
    for (id, &kind) in kinds.iter().enumerate() {
        let key = match kind {
            Kind::Fresh => {
                let k = fresh.next().expect("one fresh position per universe kernel");
                seen.push(k);
                if k >= suite.len() {
                    seen_generated.push(k);
                }
                k
            }
            Kind::Variant if !seen_generated.is_empty() => {
                seen_generated[rng.below(seen_generated.len())]
            }
            _ => {
                let total: f64 = seen.iter().map(|&k| weight[k]).sum();
                let mut x = uniform(&mut rng) * total;
                let pick = seen.iter().find(|&&k| {
                    x -= weight[k];
                    x <= 0.0
                });
                *pick.unwrap_or(&seen[seen.len() - 1])
            }
        };
        let variant = (kind == Kind::Variant && key >= suite.len()).then(|| {
            let v = reorder(&universe[key], mix(seed, id as u64));
            rep.ledger.check(check_variant(&universe[key], &v, mix(seed, 0xa000 + id as u64)));
            v
        });
        let (payload, wire) = if key < suite.len() {
            (("kernel", Json::str(suite[key].name)), None)
        } else {
            let wire = function_to_json(variant.as_ref().unwrap_or(&universe[key]));
            (("function", wire.clone()), Some(wire))
        };
        let line = Json::obj([("op", Json::str("compile")), ("id", Json::int(id as u64)), payload])
            .render();
        out.push(Request { line, key, wire, variant });
    }
    (out, universe)
}

/// What the client saw of one response.
#[derive(Clone)]
struct Seen {
    latency_ms: f64,
    wall_ms: f64,
    hash: String,
    /// `(scalar, baseline, vegen)` modeled cycles.
    cycles: (f64, f64, f64),
}

fn parse_response(line: &str) -> Result<(usize, Seen), String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    let id = doc.get("id").and_then(Json::as_f64).ok_or("response without id")? as usize;
    let fail = |why: String| Err(format!("request {id}: {why}"));
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return fail(format!("error response {}", line.trim()));
    }
    let r = doc.get("result").ok_or("response without result")?;
    let field = |k: &str| r.get(k).cloned().unwrap_or(Json::Null);
    if field("failed").as_bool() != Some(false) || field("rung").as_str() != Some("primary") {
        return fail(format!("rung {:?}", field("rung").as_str()));
    }
    if !matches!(field("verify_error"), Json::Null) {
        return fail(format!("engine verification: {:?}", field("verify_error").as_str()));
    }
    let c = field("cycles");
    let cyc = |k: &str| c.get(k).and_then(Json::as_f64);
    let (Some(s), Some(b), Some(v)) = (cyc("scalar"), cyc("baseline"), cyc("vegen")) else {
        return fail("response without cycles".into());
    };
    Ok((
        id,
        Seen {
            latency_ms: 0.0,
            wall_ms: field("wall_us").as_f64().unwrap_or(0.0) / 1e3,
            hash: field("hash").as_str().unwrap_or("").to_string(),
            cycles: (s, b, v),
        },
    ))
}

/// One epoch's outcome.
struct Epoch {
    wall: f64,
    /// Peak resident set during the epoch (MB).
    peak_rss_mb: f64,
    seen: Vec<Option<Seen>>,
    hit_ratio: f64,
    /// Client-side parse time of the serialized requests (traced only).
    parse_s: f64,
}

/// The client's half of an epoch.
struct Client<'a> {
    reqs: &'a [Request],
    pipe: Option<std::io::PipeWriter>,
    sent: Vec<Option<Instant>>,
    parse_s: f64,
    checks: Vec<Result<(), String>>,
}

impl Client<'_> {
    /// Send request `i`. Traced, first parse its serialized function the
    /// way the service will and check that it round-trips.
    fn send(&mut self, i: usize, tr: &mut Option<&mut Tracer>) -> std::io::Result<()> {
        if let (Some(tr), Some(wire)) = (tr.as_deref_mut(), &self.reqs[i].wire) {
            let t = Instant::now();
            let back = tr.span("serve.parse", i as u64, || function_from_json(wire));
            self.parse_s += t.elapsed().as_secs_f64();
            self.checks.push(match back {
                Ok(f) if function_to_json(&f).render() == wire.render() => Ok(()),
                Ok(_) => Err(format!("request {i}: serialized function does not round-trip")),
                Err(e) => Err(format!("request {i}: {e}")),
            });
        }
        self.sent[i] = Some(Instant::now());
        match &mut self.pipe {
            Some(pipe) => pipe.write_all(format!("{}\n", self.reqs[i].line).as_bytes()),
            None => Err(std::io::Error::other("request pipe already closed")),
        }
    }
}

/// Run one cold epoch: the whole request sequence through `serve_lines`,
/// `window` requests outstanding. A traced epoch also records a span per
/// request.
fn epoch(
    engine: &Engine,
    reqs: &[Request],
    window: usize,
    rep: &mut Report,
    mut tr: Option<&mut Tracer>,
) -> std::io::Result<Epoch> {
    engine.clear_cache();
    crate::reset_peak_rss();
    let before = engine.cache_stats();
    let (req_r, req_w) = std::io::pipe()?;
    let (resp_r, resp_w) = std::io::pipe()?;
    let mut client = Client {
        reqs,
        pipe: Some(req_w),
        sent: vec![None; reqs.len()],
        parse_s: 0.0,
        checks: Vec::new(),
    };
    let mut seen: Vec<Option<Seen>> = vec![None; reqs.len()];
    let cfg = ServeConfig::default();
    let t0 = Instant::now();
    let io = std::thread::scope(|s| -> std::io::Result<()> {
        let cfg = &cfg;
        let server = s.spawn(move || serve_lines(engine, cfg, BufReader::new(req_r), resp_w));
        let talk = || -> std::io::Result<()> {
            let mut next = 0;
            while next < window.min(reqs.len()) {
                client.send(next, &mut tr)?;
                next += 1;
            }
            let mut reader = BufReader::new(resp_r);
            let mut line = String::new();
            for _ in 0..reqs.len() {
                line.clear();
                if reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other("service closed its output early"));
                }
                let now = Instant::now();
                client.checks.push(match parse_response(&line) {
                    Ok((id, mut s)) if id < reqs.len() && seen[id].is_none() => {
                        let at = client.sent[id].unwrap_or(now);
                        s.latency_ms = now.duration_since(at).as_secs_f64() * 1e3;
                        if let Some(tr) = tr.as_deref_mut() {
                            tr.record("serve.request", at, now, id as u64);
                        }
                        seen[id] = Some(s);
                        Ok(())
                    }
                    Ok((id, _)) => Err(format!("unexpected response id {id}")),
                    Err(e) => Err(e),
                });
                if next < reqs.len() {
                    client.send(next, &mut tr)?;
                    next += 1;
                }
            }
            Ok(())
        };
        let result = talk();
        // Closing the request pipe is the service's EOF: it drains and
        // returns.
        drop(client.pipe.take());
        let _ = server.join();
        result
    });
    let wall = t0.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb();
    for c in client.checks.drain(..) {
        rep.ledger.check(c);
    }
    io?;
    let after = engine.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    Ok(Epoch { wall, peak_rss_mb, seen, hit_ratio, parse_s: client.parse_s })
}

/// What must agree between answers to one kernel: content hash and
/// `(scalar, baseline, vegen)` cycles.
type Answer = (String, (f64, f64, f64));

/// Per request, what every epoch must agree on.
fn outputs(e: &Epoch) -> Vec<Option<Answer>> {
    e.seen.iter().map(|s| s.as_ref().map(|s| (s.hash.clone(), s.cycles))).collect()
}

pub fn run(args: &Args, rep: &mut Report, tr: &mut Tracer) {
    let p = crate::pipeline();
    let off = if args.trace {
        Some(layers::offline(tr, &p))
    } else {
        target_desc(&p.target, p.canonicalize_patterns);
        None
    };
    let (reqs, universe) = requests(args.seed, rep);
    crate::progress("requests built");
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() });
    let budget = args.budget();

    let mut epochs: Vec<Epoch> = Vec::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut epoch_id = 0u32;
    while budget.another(epochs.len(), MIN_EPOCHS, epochs.last().map_or(0.0, |e| e.wall)) {
        // A traced run alternates untraced and traced epochs, so the
        // recorder's overhead is measured on the same work.
        let traced = args.trace && epoch_id % 2 == 1;
        epoch_id += 1;
        tr.set_pass(epoch_id);
        let e = if traced {
            tr.enter("epoch", u64::from(epoch_id));
            let e = epoch(&engine, &reqs, threads, rep, Some(tr));
            tr.exit();
            e
        } else {
            epoch(&engine, &reqs, threads, rep, None)
        };
        let e = match e {
            Ok(e) => e,
            Err(err) => {
                rep.ledger.check(Err(format!("serve epoch: {err}")));
                return;
            }
        };
        if let Some(first) = epochs.first() {
            let same = outputs(first) == outputs(&e);
            rep.ledger.check(if same {
                Ok(())
            } else {
                Err("responses changed between epochs".to_string())
            });
        }
        if traced { &mut traced_walls } else { &mut untraced_walls }.push(e.wall);
        epochs.push(e);
        crate::progress("epoch done");
    }
    let first = &epochs[0];
    // Exact repeats of one kernel must get one answer.
    let mut by_key: BTreeMap<usize, Answer> = BTreeMap::new();
    for (r, s) in reqs.iter().zip(&first.seen) {
        let Some(s) = s else { continue };
        if r.variant.is_some() {
            continue;
        }
        let want = by_key.entry(r.key).or_insert((s.hash.clone(), s.cycles));
        rep.ledger.check(if *want == (s.hash.clone(), s.cycles) {
            Ok(())
        } else {
            Err(format!("kernel {}: repeats answered differently", universe[r.key].name))
        });
    }
    // Latency percentiles pool every request of every untraced epoch,
    // each request timed from when it was sent, so a hit that waited
    // behind large misses of its micro-batch counts as often as it
    // happens.
    let untraced: Vec<&Epoch> = epochs
        .iter()
        .enumerate()
        .filter(|(n, _)| !args.trace || n % 2 == 0)
        .map(|(_, e)| e)
        .collect();
    let pooled = |f: fn(&Seen) -> f64| -> Vec<f64> {
        untraced.iter().flat_map(|e| e.seen.iter().flatten().map(f)).collect()
    };
    let latencies = pooled(|s| s.latency_ms);
    let waits = pooled(|s| (s.latency_ms - s.wall_ms).max(0.0));
    // The peak memory is the lower of the first two epochs' peaks:
    // whether two large compilations overlap moves one epoch's peak by a
    // fifth. The count is fixed so that a faster build fitting in more
    // epochs does not read lower for that reason.
    let peaks = epochs[..MIN_EPOCHS].iter().map(|e| e.peak_rss_mb);
    rep.peak_rss_mb = Some(peaks.fold(f64::INFINITY, f64::min));
    let efficiency: Vec<f64> = epochs
        .iter()
        .map(|e| {
            e.seen.iter().flatten().map(|s| s.wall_ms / 1e3).sum::<f64>()
                / (threads as f64 * e.wall)
        })
        .collect();
    let hit_ratio = median(&epochs.iter().map(|e| e.hit_ratio).collect::<Vec<_>>());
    rep.timing("epoch wall (s)", &untraced_walls);
    rep.timing("request latency (ms)", &latencies);

    // Distinct kernels, by content hash: the interpreter check of what
    // the service compiled, and (traced) the replay.
    let mut hashes = HashSet::new();
    let distinct: Vec<usize> = (0..reqs.len())
        .filter(|&i| first.seen[i].as_ref().is_some_and(|s| hashes.insert(s.hash.as_str())))
        .collect();
    // Quality over the universe: one answer per kernel (its exact
    // requests all agree, checked above), as the responses report it
    // (whether VeGen's program is vector shows as beating scalar).
    let answered: Vec<(f64, f64, f64)> = by_key.values().map(|(_, c)| *c).collect();
    let speedup = geomean(&answered.iter().map(|c| c.1 / c.2).collect::<Vec<_>>());
    let share = answered.iter().filter(|c| c.2 < c.0).count() as f64 / answered.len().max(1) as f64;
    rep.count("kernels", answered.len() as f64);
    rep.count("distinct_compiles", distinct.len() as f64);
    rep.count("cycles.vegen", answered.iter().map(|c| c.2).sum());
    rep.count("cycles.baseline", answered.iter().map(|c| c.1).sum());
    rep.count("speedup_geomean", speedup);
    rep.count("vectorized_share", share);
    let function = |i: usize| reqs[i].variant.as_ref().unwrap_or(&universe[reqs[i].key]);
    // Newest first: the service's LRU cache still holds them, and an
    // evicted early kernel recompiled here only displaces checked ones.
    // The recompile must give the answer the client received (content
    // hash and cycles), which ties the checked programs to the response.
    for &i in distinct.iter().rev() {
        let f = function(i);
        let r = engine.compile_one(&f.name, f, &p);
        let s = first.seen[i].as_ref().expect("distinct requests were answered");
        rep.ledger.check(match &r.kernel {
            Some(_) if r.hash.map(|h| h.hex()).as_deref() != Some(s.hash.as_str()) => {
                Err(format!("request {i}: recompile hashes differently from the response"))
            }
            Some(k) if k.cycles() != s.cycles => {
                Err(format!("request {i}: recompile's cycles differ from the response"))
            }
            Some(k) => check_kernel(f, k, mix(args.seed, 0xc000 + i as u64)),
            None => Err(format!("request {i}: recompiling for the check failed")),
        });
    }

    crate::progress("interpreter checks done");
    if let Some(off) = off {
        let pass = epoch_id + 1;
        tr.set_pass(pass);
        tr.enter("pass", u64::from(pass));
        let mut counts: Vec<Counts> = Vec::new();
        for &i in &distinct {
            let wire = reqs[i].wire.clone().unwrap_or_else(|| function_to_json(function(i)));
            tr.enter("kernel", i as u64);
            let out =
                replay(tr, &off.desc, &p, EngineConfig::default().verify_trials, &wire, i as u64);
            tr.exit();
            let s = first.seen[i].as_ref().expect("distinct requests were answered");
            rep.ledger.check(match out {
                Ok(r) if r.hash == s.hash && r.fingerprint.cycles == s.cycles => {
                    counts.push(r.counts);
                    Ok(())
                }
                Ok(_) => Err(format!("request {i}: replay differs from the service's answer")),
                Err(e) => Err(e),
            });
        }
        tr.exit();
        if counts.len() == distinct.len() {
            let parse: Vec<f64> =
                epochs.iter().filter(|e| e.parse_s > 0.0).map(|e| e.parse_s).collect();
            let outside = Outside {
                hit_ratio,
                queue_waits_ms: waits,
                parse_s: Some(parse),
                pool_efficiency: median(&efficiency),
                overhead: median(&traced_walls) / median(&untraced_walls),
            };
            layers::emit(rep, tr, &off, &[pass], &[counts], outside);
        }
    } else {
        let served = (untraced_walls.len() * reqs.len()) as f64;
        rep.metric("kernels_per_s", served / untraced_walls.iter().sum::<f64>(), "1/s");
        rep.metric("latency_p50_ms", percentile(&latencies, 50.0), "ms");
        rep.metric("latency_p99_ms", percentile(&latencies, 99.0), "ms");
        rep.metric("speedup_geomean", speedup, "x");
        rep.metric("vectorized_share", share, "ratio");
        rep.timing("serve queue wait (ms)", &waits);
    }
}
