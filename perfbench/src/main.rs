//! `haqjsk-perfbench` — the repository's wire-level benchmark.
//!
//! Builds and spawns the release `haqjsk-serve` (plus two `haqjsk-worker`s
//! for `fit-dist`), drives one seeded workload over the JSON-lines wire,
//! checks every answer against an in-process `HaqjskModel`, and prints
//! the metrics `BENCHMARK.json` names as the last line of standard output.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit-batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures with tracing off everywhere and reports the
//! end-to-end metrics. `--trace 1` runs the workload once untraced and
//! once traced, replays a sample of the traced requests in-process with
//! one span per layer call, writes every span (the server's included) to
//! `perfbench/out/trace-<workload>-<seed>.jsonl`, prints a self-time
//! table, and reports the per-layer metrics.

mod catalogue;
mod gate;
mod inputs;
mod layers;
mod load;
mod procs;
mod stats;

use catalogue::{result_line, END_TO_END, PER_LAYER};
use layers::{Scrape, Traced};
use load::{set_up, Op, Phase, Plan, Ready, Reply, Snapshot, Workload, SERVER_THREADS, SETUPS};
use procs::{command, Conn};
use std::collections::BTreeMap;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: haqjsk-perfbench --workload fit-batch|fit-dist|query-skewed|stream-rw --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or(format!("missing {flag}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    };
    if flags.len() != 4 || !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("expected exactly the four flags, with --seconds > 0".to_string());
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let bins = procs::build_binaries()?;
    let plan = Plan::new(args.workload, args.seed);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    // At most nproc load-generator threads and connections.
    let clients = nproc.min(2);
    let measure = |ready: &Ready, traced: bool| {
        load::measure(
            &plan,
            &ready.fleet,
            args.seconds,
            clients,
            args.seed,
            traced,
        )
    };
    let result = if args.trace {
        let untraced = {
            let ready = set_up(&bins, &plan, false, 0)?;
            measure(&ready, false)?
        };
        let ready = set_up(&bins, &plan, true, 0)?;
        let mut control = Conn::connect(&ready.fleet.server.addr)?;
        let stats_before = stats(&mut control)?;
        let before = Scrape::take(&mut control)?;
        let setup_spans = trace_dump(&mut control)?;
        let phase = measure(&ready, true)?;
        let after = Scrape::take(&mut control)?;
        let stats_after = stats(&mut control)?;
        let phase_spans = trace_dump(&mut control)?;
        drop(control);
        drop(ready.fleet);
        println!("{}", provenance(args, nproc, &after));

        let refs = gate::references(&plan)?;
        let gates = [
            gate::verify(&plan, &refs, &untraced.records),
            gate::verify(&plan, &refs, &phase.records),
        ];
        let replay = layers::replay(&plan, &refs, &phase, args.seed);
        let fit_request_bytes: Vec<usize> = phase
            .of(&[Op::Fit])
            .map(|r| phase.lines.fits[r.item].len())
            .collect();
        let values = layers::per_layer(&Traced {
            plan: &plan,
            phase: &phase,
            untraced: &untraced,
            before: &before,
            after: &after,
            stats_before: &stats_before,
            stats_after: &stats_after,
            gate: &gates[1],
            replay: &replay,
            setup_fit_bytes: ready.setup_fit_bytes,
            fit_request_bytes: &fit_request_bytes,
        });
        let path = write_trace(args, [setup_spans, phase_spans], &replay.recorder.spans)?;
        print_ops(args.workload, &phase, &gates[1]);
        print_self_times(&replay.recorder.spans);
        for drift in &replay.drift {
            println!("replay drift: {drift}");
        }
        println!("spans written to {path}");
        for metric in PER_LAYER {
            let (name, unit, better) = (metric.name, metric.unit, metric.better);
            println!(
                "  {name:<32} {:>14.4} {unit} ({better} is better)",
                values[name]
            );
        }
        let phases = [&untraced, &phase];
        result_line(
            gates.iter().all(gate::Gate::passed) && phases.iter().all(|p| p.failed() == 0),
            phases.iter().map(|p| p.records.len()).sum(),
            phases.iter().map(|p| p.failed()).sum(),
            PER_LAYER,
            &values,
        )?
    } else {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut ready = None;
        for k in 0..SETUPS {
            // The previous fleet stops before the next one starts.
            drop(ready.take());
            let next = set_up(&bins, &plan, false, k)?;
            setups.push(next.setup_s);
            ready = Some(next);
        }
        let ready = ready.expect("at least one set-up");
        let phase = measure(&ready, false)?;
        let scrape = Scrape::take(&mut Conn::connect(&ready.fleet.server.addr)?)?;
        drop(ready);
        println!("{}", provenance(args, nproc, &scrape));

        let refs = gate::references(&plan)?;
        let gate = gate::verify(&plan, &refs, &phase.records);
        print_ops(args.workload, &phase, &gate);
        let values = end_to_end(args.workload, &setups, &phase)?;
        for metric in END_TO_END {
            let (name, unit, better) = (metric.name, metric.unit, metric.better);
            println!(
                "  {name:<20} {:>14.4} {unit} ({better} is better)",
                values[name]
            );
        }
        result_line(
            gate.passed() && phase.failed() == 0,
            phase.records.len(),
            phase.failed(),
            END_TO_END,
            &values,
        )?
    };
    println!("{result}");
    Ok(())
}

fn stats(control: &mut Conn) -> Result<Snapshot, String> {
    Ok(Snapshot::from_stats(&control.call(&command("stats"))?))
}

/// Drains the server's span rings; returns their JSON lines.
fn trace_dump(control: &mut Conn) -> Result<String, String> {
    let dump = control.call(&command("trace_dump"))?;
    Ok(dump
        .get("jsonl")
        .and_then(haqjsk::engine::Json::as_str)
        .unwrap_or("")
        .to_string())
}

fn end_to_end(
    workload: Workload,
    setups: &[f64],
    phase: &Phase,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // Each headline latency, and each throughput completion, at the time
    // its reply arrived.
    let latencies: Vec<(f64, f64)> = phase
        .of(workload.latency_ops())
        .filter(|r| r.ok())
        .map(|r| (r.done, r.latency_ms()))
        .collect();
    if latencies.len() < stats::MIN_P90_SAMPLES {
        return Err(format!(
            "only {} headline samples; a p90 needs {}",
            latencies.len(),
            stats::MIN_P90_SAMPLES
        ));
    }
    let completions: Vec<(f64, f64)> = phase
        .of(workload.throughput_ops())
        .filter(|r| r.ok())
        .map(|r| (r.done, 1.0))
        .collect();
    let window_s = phase.wall_s / stats::WINDOWS as f64;
    let windowed = |samples: &[(f64, f64)], summary: &dyn Fn(&[f64]) -> Option<f64>| {
        stats::windowed(samples, phase.wall_s, stats::WINDOWS, summary)
            .ok_or("no window holds a sample")
    };
    let completed = phase.records.iter().filter(|r| r.ok()).count();
    Ok(BTreeMap::from([
        ("setup_s", stats::p50(setups).unwrap_or(0.0)),
        ("p50_ms", windowed(&latencies, &stats::p50)?),
        (
            "p90_ms",
            windowed(&latencies, &|s| stats::quantile(s, 0.9))?,
        ),
        (
            "requests_per_s",
            windowed(&completions, &|s| Some(s.len() as f64 / window_s))?,
        ),
        ("cpu_ms_per_request", phase.cpu_ms / completed.max(1) as f64),
        ("peak_rss_mb", phase.peak_rss_mb),
    ]))
}

/// Per operation: counts, and every latency the sample supports, each
/// printed as `<op>_<stat>_ms`; then the error ratio and the accuracy.
fn print_ops(workload: Workload, phase: &Phase, gate: &gate::Gate) {
    println!(
        "{:<11} {:>7} {:>7} {:>7} {:>8}",
        "op", "sent", "ok", "failed", "rejected"
    );
    for op in Op::ALL {
        let records: Vec<_> = phase.of(&[op]).collect();
        if records.is_empty() {
            continue;
        }
        let ok: Vec<f64> = records
            .iter()
            .filter(|r| r.ok())
            .map(|r| r.latency_ms())
            .collect();
        let rejected = records
            .iter()
            .filter(|r| r.reply == Reply::Failed { rejected: true })
            .count();
        println!(
            "{:<11} {:>7} {:>7} {:>7} {:>8}",
            op.name(),
            records.len(),
            ok.len(),
            records.len() - ok.len(),
            rejected
        );
        for (stat, value) in [("p50", stats::p50(&ok)), ("p90", stats::p90(&ok))] {
            if let Some(value) = value {
                println!("  {}_{stat}_ms = {value:.4} ms", op.name());
            }
        }
    }
    let attempted = phase.records.len().max(1) as f64;
    println!(
        "  error_ratio = {} (of {} attempted; gate checked {}, {} mismatches)",
        phase.failed() as f64 / attempted,
        phase.records.len(),
        gate.checked,
        gate.mismatches.len()
    );
    for mismatch in gate.mismatches.iter().take(5) {
        println!("  MISMATCH {mismatch}");
    }
    if let Some(accuracy) = gate.accuracy() {
        println!(
            "  predict_accuracy = {accuracy:.4} ratio ({} predictions)",
            gate.predictions
        );
    }
    println!(
        "  headline ({}): {} ok in {:.3} s",
        workload
            .latency_ops()
            .iter()
            .map(|op| op.name())
            .collect::<Vec<_>>()
            .join("+"),
        phase.of(workload.latency_ops()).filter(|r| r.ok()).count(),
        phase.wall_s
    );
}

fn print_self_times(spans: &[layers::Span]) {
    let table = layers::self_time_table(spans);
    let total: f64 = table.values().map(|(_, ms)| ms).sum();
    println!(
        "{:<28} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "self_ms", "mean_ms", "share"
    );
    for (name, (calls, ms)) in &table {
        println!(
            "{name:<28} {calls:>7} {ms:>12.3} {:>12.4} {:>6.1}%",
            ms / *calls as f64,
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
}

/// Writes the server's drained spans and the replay's spans as JSON lines.
fn write_trace(
    args: &Args,
    server: [String; 2],
    replay: &[layers::Span],
) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut text: String = server.concat();
    for span in replay {
        text.push_str(&span.jsonl());
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Where and on what this run measured.
fn provenance(args: &Args, nproc: usize, scrape: &Scrape) -> String {
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(procs::repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={nproc} HAQJSK_THREADS={SERVER_THREADS} worker_threads=1 simd_path={} revision={revision}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        scrape.build_label("simd_path").unwrap_or_else(|| "unknown".to_string()),
    )
}
