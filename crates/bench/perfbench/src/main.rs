//! End-to-end and per-layer benchmark of the real replicated-database
//! stack (client → server → gcs → net → db → sim), driven only through
//! its public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--control <name>]
//! ```
//!
//! One invocation runs one workload in this process, single-threaded:
//!
//! 1. set-up samples (`SystemBuilder::build` through `Run::start`);
//! 2. untraced runs (`ObsConfig::disabled()`, generator wrapped) repeated
//!    for `--seconds` of host time — host metrics are their medians, and
//!    every repeat must reproduce the first one's fingerprint;
//! 3. one run without the generator wrapper and one traced run
//!    (`ObsConfig::stream()`), both of which must match that fingerprint
//!    too; simulated metrics are read from the traced run;
//! 4. with `--trace 1`, the isolated layer probes.
//!
//! Every run must pass the correctness gate (nothing lost, replicas
//! converged, scenario audit clean). The last stdout line is a JSON
//! object: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Any failed check exits non-zero.

// Wall-clock measurement is this benchmark's purpose: GS-D02 exempts
// `crates/bench`, and the clippy mirror of that ban is waived here for
// the same reason.
#![allow(clippy::disallowed_types)]

mod layers;
mod run;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use groupsafe::sim::Histogram;

use run::{Control, Outcome, RunSpec};
use spans::Spans;
use workloads::Workload;

/// Env profiles that would silently reconfigure a run.
const FORBIDDEN_ENV: [&str; 6] = [
    "GROUPSAFE_OBS",
    "GROUPSAFE_BATCHING",
    "GROUPSAFE_SHARDS",
    "GROUPSAFE_CROSS_SHARD",
    "GROUPSAFE_READS",
    "GROUPSAFE_TXN",
];

/// Set-up samples (build and start, then drop) taken before any run.
const SETUP_SAMPLES: usize = 101;

/// Untraced repeats made however short `--seconds` is: the same-seed
/// rerun check needs two.
const MIN_REPEATS: usize = 2;

/// The end-to-end metrics the final JSON line carries (the gated ones,
/// as listed in `BENCHMARK.json`); the others are printed only.
const GATED_E2E: [&str; 6] = [
    "setup_s",
    "sim_s_per_wall_s",
    "peak_rss_mb",
    "commit_p50_ms",
    "commit_p99_ms",
    "goodput_tps",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    control: Option<Control>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut control = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            "--control" => {
                control =
                    Some(Control::parse(value).ok_or_else(|| format!("unknown control {value}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        control,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile, as the simulator's own histograms compute it.
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut h = Histogram::new();
    for &x in v {
        h.record(x);
    }
    h.quantile(q)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One named metric with its unit and the sample count behind it.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Longest interval inside the measurement window without an
/// acknowledgement, ms.
fn max_gap_ms(acks: &[groupsafe::sim::SimTime], w: Workload) -> f64 {
    let len = w.lengths();
    let mut prev = len.measure_start();
    let mut gap = 0.0f64;
    for &t in acks.iter().chain(std::iter::once(&len.measure_end())) {
        gap = gap.max(t.since(prev).as_millis_f64());
        prev = t;
    }
    gap
}

fn end_to_end(
    w: Workload,
    untraced: &[Outcome],
    setup_samples: &[f64],
    rss_mb: f64,
    traced: &Outcome,
) -> Vec<Metric> {
    let s = traced
        .stream
        .as_ref()
        .expect("the traced run records a stream");
    let sim_rate: Vec<f64> = untraced.iter().map(|o| o.sim_s / o.wall_s).collect();
    let gen = traced.gen.generated.max(1);
    let len = w.lengths();
    let mut m = vec![
        metric("setup_s", median(setup_samples), "s", setup_samples.len()),
        metric(
            "sim_s_per_wall_s",
            median(&sim_rate),
            "ratio",
            sim_rate.len(),
        ),
        metric("peak_rss_mb", rss_mb, "MB", 1),
        metric(
            "commit_p50_ms",
            quantile(&s.update_ms, 0.5),
            "ms",
            s.update_ms.len(),
        ),
        metric(
            "commit_p99_ms",
            quantile(&s.update_ms, 0.99),
            "ms",
            s.update_ms.len(),
        ),
    ];
    // A p99 needs at least 10 samples beyond it.
    if s.read_ms.len() >= 1000 {
        m.push(metric(
            "read_p99_ms",
            quantile(&s.read_ms, 0.99),
            "ms",
            s.read_ms.len(),
        ));
    }
    m.extend([
        metric(
            "goodput_tps",
            traced.window_commits as f64 / len.measure.as_secs_f64(),
            "tps",
            traced.window_commits as usize,
        ),
        metric(
            "abort_rate",
            traced.report.abort_rate,
            "ratio",
            (traced.report.aborts + traced.counters.commit_acks) as usize,
        ),
        metric(
            "failed_frac",
            (gen - traced.acked_total.min(gen)) as f64 / gen as f64,
            "ratio",
            gen as usize,
        ),
        metric(
            "max_ack_gap_ms",
            max_gap_ms(&traced.window_acks, w),
            "ms",
            traced.window_acks.len(),
        ),
    ]);
    m
}

fn per_layer(untraced: &[Outcome], traced: &Outcome, costs: &layers::UnitCosts) -> Vec<Metric> {
    let c = &traced.counters;
    let s = traced
        .stream
        .as_ref()
        .expect("the traced run records a stream");
    let r = &traced.report;
    let wall = median(&untraced.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let audit = median(&untraced.iter().map(|o| o.audit_s).collect::<Vec<_>>());
    let commits = traced.acked_updates.max(1) as f64;
    let delivered = c.gcs_delivered.max(1) as f64;
    let db_ops = c.db_reads + c.db_commits;
    let gen_ns = traced.gen.gen_ns as f64 / traced.gen.generated.max(1) as f64;
    let n = untraced.len();
    vec![
        metric("sim.events", c.events as f64, "count", 1),
        metric(
            "sim.events_per_commit",
            c.events as f64 / commits,
            "ratio",
            1,
        ),
        metric("sim.events_per_wall_s", c.events as f64 / wall, "1/s", n),
        metric(
            "sim.kernel_ns_per_event",
            costs.kernel_ns_per_event,
            "ns",
            1,
        ),
        metric(
            "sim.kernel_share",
            c.events as f64 * costs.kernel_ns_per_event / 1e9 / wall,
            "ratio",
            n,
        ),
        metric("sim.obs_overhead", traced.wall_s / wall, "ratio", n),
        metric(
            "net.deliveries_per_commit",
            c.net_sent as f64 / commits,
            "ratio",
            1,
        ),
        metric(
            "net.transmissions_per_commit",
            c.net_transmissions as f64 / commits,
            "ratio",
            1,
        ),
        metric("net.dropped", c.net_dropped as f64, "count", 1),
        metric("gcs.mean_batch", c.mean_batch, "msgs", 1),
        metric("gcs.votes_per_delivery", c.votes_per_delivery, "ratio", 1),
        metric(
            "gcs.persists_per_delivery",
            c.gcs_persists as f64 / delivered,
            "ratio",
            1,
        ),
        metric("gcs.view_changes", c.gcs_view_changes as f64, "count", 1),
        metric("gcs.order_ms", mean(&s.order_ms), "ms", s.order_ms.len()),
        metric(
            "gcs.abcast_us_per_delivery",
            costs.abcast_us_per_delivery,
            "us",
            1,
        ),
        metric(
            "gcs.abcast_share",
            delivered * costs.abcast_us_per_delivery / 1e6 / wall,
            "ratio",
            n,
        ),
        metric(
            "db.read_miss_ratio",
            c.db_read_misses as f64 / c.db_reads.max(1) as f64,
            "ratio",
            c.db_reads as usize,
        ),
        metric(
            "db.wal_sync_ms",
            mean(&s.wal_sync_ms),
            "ms",
            s.wal_sync_ms.len(),
        ),
        metric("db.mvcc_retained", s.mvcc_peak as f64, "count", 1),
        metric("db.mvcc_evictions", c.mvcc_evictions as f64, "count", 1),
        metric("db.ns_per_op", costs.db_ns_per_op, "ns", 1),
        metric(
            "db.op_share",
            db_ops as f64 * costs.db_ns_per_op / 1e9 / wall,
            "ratio",
            n,
        ),
        metric("core.exec_ms", s.exec_ms, "ms", 1),
        metric("core.commit_phase_ms", s.commit_phase_ms, "ms", 1),
        metric(
            "core.retries_per_commit",
            (r.aborts + r.timeouts) as f64 / traced.acked_total.max(1) as f64,
            "ratio",
            1,
        ),
        metric(
            "core.cert_abort_ratio",
            s.cert_aborts as f64 / s.certified.max(1) as f64,
            "ratio",
            s.certified as usize,
        ),
        metric("core.xg_commits", r.cross_group_commits as f64, "count", 1),
        metric("core.read_redirects", r.read_redirects as f64, "count", 1),
        metric("core.read_staleness", r.read_staleness, "seqs", 1),
        metric("core.certify_ns", costs.certify_ns, "ns", 1),
        metric(
            "core.certify_share",
            s.certified as f64 * costs.certify_ns / 1e9 / wall,
            "ratio",
            n,
        ),
        metric("core.audit_s", audit, "s", n),
        metric("core.audit_share", audit / wall, "ratio", n),
        metric(
            "workload.txns_generated",
            traced.gen.generated as f64,
            "count",
            1,
        ),
        metric(
            "workload.gen_ns_per_txn",
            gen_ns,
            "ns",
            traced.gen.generated as usize,
        ),
        metric(
            "workload.gen_share",
            traced.gen.generated as f64 * gen_ns / 1e9 / wall,
            "ratio",
            n,
        ),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<30} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "  {:<30} {:>16.6} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            v,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a check failed.
fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let set: Vec<&str> = FORBIDDEN_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: env profiles would reconfigure the workload",
            set.join(", ")
        ));
    }
    let w = args.workload;
    let seed = args.seed;
    let mut spans = Spans::new();
    let mut failures: Vec<String> = Vec::new();
    let spec = |traced: bool, wrapped: bool, seed: u64| RunSpec {
        seed,
        traced,
        wrapped,
        control: args.control,
    };

    let mut setup_samples = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (run, _, s) = run::setup(w, &spec(false, true, seed), &mut spans)
            .map_err(|e| format!("build: {e}"))?;
        drop(run);
        setup_samples.push(s);
    }

    // The unwrapped run goes first: it also lets the allocator and the
    // caches warm up before the timed repeats.
    let unwrapped = run::execute(w, &spec(false, false, seed), &mut spans)
        .map_err(|e| format!("build: {e}"))?;
    // Repeat while the next run, taking as long as the last one, still
    // ends inside `--seconds`.
    let t0 = Instant::now();
    let mut untraced: Vec<Outcome> = Vec::new();
    while untraced.len() < MIN_REPEATS
        || t0.elapsed().as_secs_f64() + untraced.last().map_or(0.0, |o| o.wall_s) <= args.seconds
    {
        let rerun_seed = if args.control == Some(Control::RerunSeed) && untraced.len() == 1 {
            seed ^ 1
        } else {
            seed
        };
        untraced.push(
            run::execute(w, &spec(false, true, rerun_seed), &mut spans)
                .map_err(|e| format!("build: {e}"))?,
        );
    }
    let rss_mb = peak_rss_mb()?;
    let traced_seed = if args.control == Some(Control::TracedSeed) {
        seed ^ 1
    } else {
        seed
    };
    let traced = run::execute(w, &spec(true, true, traced_seed), &mut spans)
        .map_err(|e| format!("build: {e}"))?;

    let fp = untraced[0].fingerprint;
    if let Some(o) = untraced.iter().find(|o| o.fingerprint != fp) {
        failures.push(format!(
            "same-seed rerun diverged: fingerprint {:#018x} != {fp:#018x}",
            o.fingerprint
        ));
    }
    if unwrapped.fingerprint != fp {
        failures.push(format!(
            "generator wrapper is visible: unwrapped fingerprint {:#018x} != wrapped {fp:#018x}",
            unwrapped.fingerprint
        ));
    }
    if traced.fingerprint != fp {
        failures.push(format!(
            "tracing is visible: traced fingerprint {:#018x} != untraced {fp:#018x}",
            traced.fingerprint
        ));
    }
    for (what, o) in untraced
        .iter()
        .map(|o| ("untraced", o))
        .chain([("unwrapped", &unwrapped), ("traced", &traced)])
    {
        for f in o.gate_failures() {
            failures.push(format!("{what} run: {f}"));
        }
    }

    println!(
        "perfbench {} seed {seed}: fingerprint {fp:#018x} ({} untraced repeats, unwrapped, traced)",
        w.name(),
        untraced.len()
    );
    let walls: Vec<String> = untraced
        .iter()
        .map(|o| format!("{:.3}", o.wall_s))
        .collect();
    println!(
        "untraced run wall s: [{}]; unwrapped {:.3}; traced {:.3}",
        walls.join(", "),
        unwrapped.wall_s,
        traced.wall_s
    );
    let e2e = end_to_end(w, &untraced, &setup_samples, rss_mb, &traced);
    print_table("end-to-end", &e2e);
    let mut layer = Vec::new();
    if args.trace {
        let costs = layers::measure(w, seed, &mut spans);
        layer = per_layer(&untraced, &traced, &costs);
        print_table("per-layer", &layer);
        let dir = std::path::Path::new("crates/bench/perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{seed}.spans.json", w.name()));
        std::fs::write(&path, spans.chrome_trace())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("host spans: {}", path.display());
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
        eprintln!("perfbench: check failed: {f}");
    }

    // An operation is a generated transaction; it failed when it was
    // acknowledged and then lost. Transactions still unanswered when
    // the drain ends are open-loop backlog, reported by `failed_frac`.
    let correct = failures.is_empty();
    let attempted = traced.gen.generated;
    let failed = untraced
        .iter()
        .chain([&unwrapped, &traced])
        .map(|o| o.report.lost as u64)
        .max()
        .unwrap_or(0);
    let shown: Vec<&Metric> = if args.trace {
        layer.iter().collect()
    } else {
        GATED_E2E
            .iter()
            .map(|name| {
                e2e.iter()
                    .find(|m| m.name == *name)
                    .expect("every gated metric is computed")
            })
            .collect()
    };
    println!("{}", json_line(correct, attempted, failed, &shown));
    Ok(correct)
}
