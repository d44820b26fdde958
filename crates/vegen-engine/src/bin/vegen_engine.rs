//! `vegen-engine` — the suite runner and its `soak`, `serve`, `stats`,
//! `explain`, `lint`, `check-specs` and `diff` subcommands (see
//! [`vegen_engine::cli`] for the full usage; all logic lives in the
//! library so tests can drive it).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(vegen_engine::cli::main_with_args(&args));
}
