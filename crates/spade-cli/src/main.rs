//! `spade` — command-line fraud detection on transaction edge lists.
//!
//! ```text
//! spade detect <edges.txt> [--metric dg|dw|fd] [--top N] [--shards N]
//! spade stream <edges.txt> [--metric ...] [--initial 0.9] [--batch N | --grouping]
//! spade serve  <edges.txt> [--shards N] [--metric ...] [--grouping]
//!              [--queue N] [--coalesce N] [--repair]
//! spade serve  --listen <addr> [--shards N] [--metric ...] [--metrics <addr>]
//! spade ingest <addr> <edges.txt> [--batch N] [--pipeline N]
//!              [--detect] [--stats] [--shutdown]
//! spade watch  <addr> [--interval ms] [--count N]
//! spade shard-serve [--listen <addr>] [--metric ...] [--queue N]   (N edges)
//! spade route  <edges.txt> <addr>... [--batch N] [--shutdown]
//! spade gen    [--dataset Grab1] [--scale 0.01] [--seed N] [--out FILE]
//! spade snapshot <edges.txt> --out <file.spade> [--metric ...]
//! spade resume  <file.spade> [--metric ...] [--top N]
//! spade help
//! ```
//!
//! Edge-list lines are `src dst [raw] [timestamp]` (whitespace separated,
//! `#`/`%` comments), as read by `spade_graph::io`.

mod args;
mod commands;

use args::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            commands::print_help();
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "detect" => commands::detect(&args),
        "stream" => commands::stream(&args),
        "serve" => commands::serve(&args),
        "ingest" => commands::ingest(&args),
        "watch" => commands::watch(&args),
        "shard-serve" => commands::shard_serve(&args),
        "route" => commands::route(&args),
        "gen" => commands::generate(&args),
        "snapshot" => commands::snapshot(&args),
        "resume" => commands::resume(&args),
        "help" | "--help" | "-h" => {
            commands::print_help();
            Ok(())
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}");
            commands::print_help();
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
