//! `bench_stack` — one repeatable end-to-end + per-layer benchmark for
//! the whole Spade stack. See `benchmark/README.md` for every metric,
//! workload and sizing decision.
//!
//! ```text
//! bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bench_stack --workload all [--repeat N] [--out results.json]
//! bench_stack --smoke
//! bench_stack --compare base.json candidate.json
//! ```

mod input;
mod json;
mod pace;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Manifest, ResultSet};
use stats::{median, pass_percentile};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{Ctx, Pass, PassFn, WORKLOADS};

/// The smoke mode's shrink factor: ≈0.1 s of work per pass.
const SMOKE_SCALE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: {v:?} is no number"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--repeat" => args.repeat = (number(value()?)? as usize).max(1),
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run_cli() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench_stack: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run_cli() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let manifest = Manifest::load()?;
    if let Some((base, candidate)) = &args.compare {
        let worse = report::compare(
            &manifest,
            &ResultSet::from_file(base)?,
            &ResultSet::from_file(candidate)?,
        );
        return Ok(if worse { ExitCode::FAILURE } else { ExitCode::SUCCESS });
    }
    if args.workload == "all" {
        return run_all(&args, &manifest).map(|()| ExitCode::SUCCESS);
    }
    let &(name, pass) = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let seconds = args.seconds.unwrap_or(if args.smoke { 0.0 } else { manifest.run_seconds });
    let line = run_workload(name, pass, &args, seconds, &manifest)?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Runs every workload in a fresh process each (so peak RSS is per
/// workload), plain then traced, `--repeat` times, and prints or saves
/// the collected values.
fn run_all(args: &Args, manifest: &Manifest) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut results = ResultSet::default();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            for _ in 0..args.repeat {
                let mut child = Command::new(&exe);
                child.args(["--workload", workload, "--trace", trace]);
                child.args(["--seed", &args.seed.to_string()]);
                if let Some(seconds) = args.seconds {
                    child.args(["--seconds", &seconds.to_string()]);
                }
                if args.smoke {
                    child.arg("--smoke");
                }
                let output = child.output().map_err(|e| format!("spawn {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                if !output.status.success() {
                    eprint!("{stdout}{}", String::from_utf8_lossy(&output.stderr));
                    return Err(format!("{workload} (trace {trace}) failed: {}", output.status));
                }
                let line = stdout.lines().last().ok_or("child printed nothing")?;
                let result = json::parse(line)?;
                results.add(workload, result.get("metrics").ok_or("result without metrics")?);
                let failed = result.get("failed").and_then(json::Value::as_f64);
                if failed != Some(0.0) {
                    return Err(format!("{workload} (trace {trace}): failed = {failed:?}"));
                }
                eprintln!("{workload} (trace {trace}): ok");
            }
        }
    }
    if args.smoke {
        println!("smoke: every workload ran and passed its correctness checks");
        return Ok(());
    }
    for (workload, rows) in &results.workloads {
        println!("{workload}");
        for report::MetricRuns { name, unit, values } in rows {
            let spread = if values.len() >= 2 { stats::spread(values) * 100.0 } else { 0.0 };
            println!("  {name:<34} {:>16.4} {unit:<6} spread {spread:>5.1}%", median(values));
        }
    }
    if let Some(path) = &args.out {
        let seconds = args.seconds.unwrap_or(manifest.run_seconds);
        let text = results.to_json(args.seed, seconds).render();
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// One run of one workload: passes until `seconds` of timed work are
/// done, then the result line. A traced run alternates plain and traced
/// passes, so the tracing overhead is measured inside one process.
fn run_workload(
    name: &str,
    pass: PassFn,
    args: &Args,
    seconds: f64,
    manifest: &Manifest,
) -> Result<String, String> {
    let scale = if args.smoke { SMOKE_SCALE } else { 1.0 };
    let jiffies_before = cpu_jiffies();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut measured_ns = 0u64;
    while (measured_ns as f64) < seconds * 1e9
        || plain.is_empty()
        || (args.trace && traced.is_empty())
    {
        // A traced pass replays the input of the plain pass before it.
        let trace_this = args.trace && plain.len() > traced.len();
        let index = if trace_this { traced.len() } else { plain.len() } as u64;
        let done = pass(&Ctx { seed: args.seed, pass: index, scale, traced: trace_this })
            .map_err(|e| format!("{name}: {e}"))?;
        measured_ns += done.wall_ns;
        if trace_this { &mut traced } else { &mut plain }.push(done);
    }
    if !args.smoke {
        input::check_pinned(name, args.seed, plain[0].input_digest)?;
    }
    if let (Some((steal_0, all_0)), Some((steal_1, all_1))) = (jiffies_before, cpu_jiffies()) {
        // Not a metric: it says whether the host let this run measure the program.
        let share = (steal_1 - steal_0) as f64 / (all_1 - all_0).max(1) as f64;
        println!("host: the hypervisor withheld {:.1} % of the CPU time (steal)", share * 100.0);
    }

    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let failed: u64 = all().map(|p| p.failed).sum();
    let values = if args.trace {
        let mut values = layer_values(&plain, &traced);
        if !args.smoke {
            write_trace(name, traced.last().expect("a traced run has a traced pass"))?;
        }
        // A layer that does no work on this workload reports 0.
        for def in &manifest.per_layer {
            if !values.iter().any(|(n, _)| *n == def.name) {
                values.push((def.name.clone(), 0.0));
            }
        }
        values
    } else {
        end_to_end_values(&plain)
    };
    let defs = if args.trace { &manifest.per_layer } else { &manifest.end_to_end };
    for (metric, value) in &values {
        let unit = defs.iter().find(|d| d.name == *metric).map_or("", |d| d.unit.as_str());
        println!("{metric:<34} {value:>18.4} {unit}");
    }
    report::result_line(defs, &values, attempted, failed)
}

/// (steal, all) CPU time of the machine since boot in clock ticks, from
/// the first line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Quantile `q` of the detection latency, in µs: the median over passes
/// of each pass's own quantile.
fn detect_us(passes: &[Pass], q: f64) -> f64 {
    let samples: Vec<&[u64]> = passes.iter().map(|p| p.latencies_ns.as_slice()).collect();
    pass_percentile(&samples, q) / 1e3
}

fn end_to_end_values(passes: &[Pass]) -> Vec<(String, f64)> {
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_ns as f64 / 1e9).collect();
    let throughput: Vec<f64> =
        passes.iter().map(|p| p.applied as f64 / (p.wall_ns as f64 / 1e9)).collect();
    for (k, (pass, eps)) in passes.iter().zip(&throughput).enumerate() {
        println!(
            "pass {k:>2}: setup {:>8.2} ms, timed {:>8.2} ms, {eps:>10.0} edges/s",
            pass.setup_ns as f64 / 1e6,
            pass.wall_ns as f64 / 1e6
        );
    }
    println!(
        "{} passes; {} detection-latency samples",
        passes.len(),
        passes.iter().map(|p| p.latencies_ns.len()).sum::<usize>(),
    );
    vec![
        ("setup_s".into(), median(&setup)),
        ("throughput_eps".into(), median(&throughput)),
        ("detect_p50_us".into(), detect_us(passes, 0.50)),
        ("detect_p90_us".into(), detect_us(passes, 0.90)),
        // The first pass is the one that ran in a fresh process; later
        // passes add allocator residue of the benchmark's own repetition.
        ("peak_rss_mb".into(), passes[0].memory.peak as f64 / 1024.0),
    ]
}

/// Per-layer values: the median over traced passes of what each pass
/// measured, plus what only the run as a whole can say (overhead of
/// tracing, coverage of the spans, memory per resident edge).
fn layer_values(plain: &[Pass], traced: &[Pass]) -> Vec<(String, f64)> {
    let mut values: Vec<(String, f64)> = Vec::new();
    let mut names: Vec<&'static str> = Vec::new();
    for (layer, _) in traced.iter().flat_map(|p| &p.layers) {
        if !names.contains(layer) {
            names.push(layer);
        }
    }
    for layer in names {
        let samples: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.layers.iter().filter(|(n, _)| *n == layer).map(|&(_, v)| v))
            .collect();
        // Counts of reorder work depend only on the input, so they are
        // read from one fixed pass and repeat exactly for a given seed;
        // a median over however many passes fit would not.
        let exact = layer.starts_with("reorder.");
        values.push((layer.to_string(), if exact { samples[0] } else { median(&samples) }));
    }

    let first = &plain[0];
    let wall =
        |passes: &[Pass]| median(&passes.iter().map(|p| p.wall_ns as f64).collect::<Vec<_>>());
    let coverage: Vec<f64> = traced.iter().map(|p| trace::coverage(&p.spans)).collect();
    let grown_kb = first.memory.now.saturating_sub(first.inputs_rss_kb);
    values.extend([
        ("gen.input_edges".to_string(), first.attempted as f64),
        ("gen.input_digest".to_string(), first.input_digest as f64),
        // Too unsteady between runs for a bound; read from the plain passes.
        ("e2e.detect_p99_us".to_string(), detect_us(plain, 0.99)),
        (
            "graph.bytes_per_edge".to_string(),
            grown_kb as f64 * 1024.0 / first.resident_edges as f64,
        ),
        ("trace.overhead_share".to_string(), wall(traced) / wall(plain) - 1.0),
        ("trace.coverage".to_string(), median(&coverage)),
    ]);
    if !values.iter().any(|(n, _)| n == "gen.rounds") {
        values.push(("gen.rounds".to_string(), first.latencies_ns.len() as f64));
    }
    values
}

/// Writes the last traced pass's spans and prints their self times.
fn write_trace(name: &str, pass: &Pass) -> Result<(), String> {
    let path = PathBuf::from(format!("{}/out/trace_{name}.jsonl", env!("CARGO_MANIFEST_DIR")));
    trace::write_jsonl(&path, &pass.spans).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{} spans of the last traced pass written to {}", pass.spans.len(), path.display());
    for (layer, t) in trace::self_times(&pass.spans) {
        println!(
            "  span {layer:<24} calls {:>8} total {:>12} ns self {:>12} ns",
            t.calls, t.total_ns, t.self_ns
        );
    }
    Ok(())
}
