//! End-to-end benchmark of the routed Gem serving stack.
//!
//! ```sh
//! bash perfbench/run.sh --workload embed_hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run starts two `gem-served` replicas behind one `gem-routed` (the shipped
//! binaries, as child processes), fits the workload's models through the router,
//! drives the workload over loopback for `--seconds`, checks every answer, and prints
//! one metric per line followed by a JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics instead (a traced
//! window, a replay of sampled requests through each layer's public functions, and
//! daemon counters scraped around the window). See README.md for the definitions.

mod calibrate;
mod cluster;
mod layers;
mod loadgen;
mod rng;
mod stats;
mod trace;
mod workload;

use calibrate::HostSpeed;
use cluster::{connect, cpu_ticks, fresh_dir, steal_share, Exposition, Topology};
use gem_core::{GemColumn, GemModel};
use gem_numeric::Matrix;
use gem_proto::{RequestBody, WireStats};
use gem_serve::{GemClient, ModelHandle, ServedFrom};
use gem_store::{decode_snapshot, model_key, updated_model_key};
use layers::{Fitted, Layers};
use loadgen::{fixed_rate_schedule, open_loop, Answer, WireConn};
use stats::{median, ms, percentile, Timing};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{
    model_config, setup_corpora, EmbedRequest, EmbedStream, FitOp, FitStream, Kind, Pools, Spec,
    PROBE_COLD_FITS,
};

/// Closed loops keep going past `--seconds` (up to `MAX_STRETCH` times as long) until
/// they have this many samples, so a slowed host cannot leave a run without the
/// samples its tail percentiles need.
const MIN_EMBEDS: usize = 1000;
const MIN_COLD_FITS: usize = 100;
const MAX_STRETCH: f64 = 3.0;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Every `BIT_CHECK_EVERY`-th embed answer is compared bit for bit with an in-process
/// transform after the window.
const BIT_CHECK_EVERY: usize = 16;
/// Cold fits per run re-fitted in-process and compared bit for bit.
const FIT_BIT_CHECKS: usize = 2;
/// Sampled embeds and writer ops replayed layer by layer in the traced run.
const REPLAY_EMBEDS: usize = 40;
const REPLAY_FIT_OPS: usize = 28;
/// Generated columns per corpus kind.
const FIT_POOL: usize = 1500;
const QUERY_POOL: usize = 800;
/// How long an open-loop run waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(10);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut bin_dir = None;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => trace = value()? == "1",
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload embed_hot|embed_bulk|fit_mixed \
                 --seed N --seconds S --trace 0|1 --bin-dir DIR"
            );
            return ExitCode::FAILURE;
        }
    };
    loadgen::tighten_timer_slack();
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: correctness violated: {}",
                    report.problems.join("; ")
                );
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What one run prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// One embed, however it was driven.
struct EmbedRecord {
    request: EmbedRequest,
    timing: Timing,
    /// The answer, kept only for requests chosen for the bit check.
    matrix: Option<Matrix>,
    ok: bool,
    error: Option<String>,
}

/// One writer op.
struct FitRecord {
    op: FitOp,
    timing: Timing,
    handle: Option<ModelHandle>,
    served_from: Option<ServedFrom>,
    /// For updates: the parent handle the op grew.
    parent: Option<ModelHandle>,
    error: Option<String>,
}

struct Inputs {
    fit_pools: Pools,
    query_pools: Pools,
    setup: Vec<Vec<(usize, usize)>>,
}

/// Tally of failures and correctness violations.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn problem(&mut self, text: String) {
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = Spec::named(&args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    for bin in ["gem-served", "gem-routed"] {
        if !args.bin_dir.join(bin).is_file() {
            return Err(format!("{} not found in {}", bin, args.bin_dir.display()));
        }
    }
    let fit_pools = Pools::generate(args.seed, 1, FIT_POOL, workload::FIT_VALUES);
    let inputs = Inputs {
        setup: setup_corpora(&spec, args.seed, &fit_pools),
        query_pools: Pools::generate(args.seed, 2, QUERY_POOL, spec.query_values),
        fit_pools,
    };
    let run_root = fresh_dir(&format!("{}-{}", spec.name, std::process::id()))?;
    let result = measure(args, &spec, &inputs, &run_root);
    let _ = std::fs::remove_dir_all(&run_root);
    result
}

/// What one set-up cost: the CPU time of the fresh daemons once it is done, and
/// its wall time.
struct SetupCost {
    cpu_s: f64,
    wall_s: f64,
}

/// Start the topology and fit the workload's models through the router.
fn setup(
    spec: &Spec,
    inputs: &Inputs,
    bin_dir: &Path,
    dir: &Path,
) -> Result<(Topology, Vec<ModelHandle>, SetupCost), String> {
    let started = Instant::now();
    let topo = Topology::start(bin_dir, dir, &spec.replica)?;
    let mut client = connect(&topo.router.addr)?;
    let config = model_config();
    let mut handles = Vec::new();
    for corpus in &inputs.setup {
        let columns = inputs.fit_pools.columns(corpus);
        let fitted = client
            .fit(&columns, &config, spec.features)
            .map_err(|e| format!("set-up fit: {e}"))?;
        if fitted.served_from != ServedFrom::ColdFit {
            return Err("a set-up corpus was not a cold fit".to_string());
        }
        handles.push(fitted.handle);
    }
    let cost = SetupCost {
        cpu_s: topo.cpu_seconds()?,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok((topo, handles, cost))
}

fn replica_stats(topo: &Topology) -> Result<Vec<WireStats>, String> {
    topo.replicas
        .iter()
        .map(|r| connect(&r.addr)?.stats().map_err(|e| e.to_string()))
        .collect()
}

fn scrape_all(topo: &Topology) -> Result<(Vec<Exposition>, Exposition), String> {
    let replicas = topo
        .replicas
        .iter()
        .map(|r| r.scrape())
        .collect::<Result<_, _>>()?;
    Ok((replicas, topo.router.scrape()?))
}

fn measure(args: &Args, spec: &Spec, inputs: &Inputs, run_root: &Path) -> Result<Report, String> {
    let (mut setup_cpu_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut kept = None;
    let speed = HostSpeed::start();
    let mut setup_spans = Vec::new();
    for round in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (topo, handles, cost) = setup(
            spec,
            inputs,
            &args.bin_dir,
            &run_root.join(format!("setup{round}")),
        )?;
        setup_spans.push((started, Instant::now()));
        setup_cpu_s.push(cost.cpu_s);
        setup_wall_s.push(cost.wall_s);
        if round + 1 == SETUP_REPEATS {
            kept = Some((topo, handles));
        } else {
            topo.stop();
        }
    }
    let (topo, handles) = kept.ok_or("no set-up ran")?;

    // The models as the cluster holds them, for the bit checks and the replay.
    let mut router = connect(&topo.router.addr)?;
    let mut fitted = Fitted {
        handles: handles.clone(),
        models: Vec::new(),
    };
    for handle in &handles {
        let pulled = router
            .pull_model(*handle)
            .map_err(|e| format!("pull: {e}"))?;
        let (_, model) =
            decode_snapshot(&pulled.snapshot, Some(handle.key())).map_err(|e| e.to_string())?;
        fitted.models.push(Arc::new(model));
    }

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut ledger = Ledger::default();
    let stats_before = replica_stats(&topo)?;
    let (replicas_before, router_before) = scrape_all(&topo)?;

    let ticks_start = cpu_ticks();
    let cpu_start = topo.cpu_seconds()?;
    let window_from = Instant::now();
    let mut window = drive(args, spec, inputs, &topo, &fitted, epoch, &mut tracer)?;
    let window_span = (window_from, Instant::now());
    let window_cpu_s = topo.cpu_seconds()? - cpu_start;
    let window_steal = match (ticks_start, cpu_ticks()) {
        (Some(before), Some(after)) => steal_share(before, after),
        _ => 0.0,
    };

    let stats_after = replica_stats(&topo)?;
    let (replicas_after, router_after) = scrape_all(&topo)?;

    // Fit metrics on the embed workloads come from a probe after the window; on
    // fit_mixed the fits share the window's CPU with the reads.
    let (fits, fit_cpu_s, fit_span) = if spec.is_embed_workload() {
        let cpu_start = topo.cpu_seconds()?;
        let from = Instant::now();
        let fits = fit_probe(args, spec, inputs, &topo, epoch)?;
        (
            fits,
            topo.cpu_seconds()? - cpu_start,
            (from, Instant::now()),
        )
    } else {
        (std::mem::take(&mut window.fits), window_cpu_s, window_span)
    };
    // Daemon CPU times at the host's nominal speed (see calibrate.rs).
    let readings = speed.finish()?;
    let scale = |(from, to): (Instant, Instant)| readings.scale(from, to);
    let setup_scaled: Vec<f64> = setup_cpu_s
        .iter()
        .zip(&setup_spans)
        .map(|(cpu, span)| Ok(cpu * scale(*span)?))
        .collect::<Result<_, String>>()?;
    let (window_scale, fit_scale) = (scale(window_span)?, scale(fit_span)?);
    let mut embeds = window.embeds;
    embeds.sort_by_key(|r| r.timing.intended_ns);

    check_embeds(inputs, &fitted, &embeds, &mut ledger);
    check_fits(spec, inputs, &topo, &fits, &mut ledger)?;
    let delta = |f: fn(&WireStats) -> u64| -> u64 {
        stats_before
            .iter()
            .zip(&stats_after)
            .map(|(b, a)| f(a).saturating_sub(f(b)))
            .sum()
    };
    if spec.is_embed_workload() {
        let (refit_us, misses) = (delta(|s| s.fit_micros), delta(|s| s.misses));
        if refit_us != 0 || misses != 0 {
            ledger.failed += 1;
            ledger.problem(format!(
                "a model was refit or missed during the embed window (fit_micros +{refit_us}, misses +{misses})"
            ));
        }
    }
    let peak_rss_mb = topo.peak_rss_mib()?;

    let embed_ok: Vec<&EmbedRecord> = embeds.iter().filter(|r| r.ok).collect();
    let embed_ms: Vec<f64> = embed_ok.iter().map(|r| ms(r.timing.latency_ns())).collect();
    let cold: Vec<&FitRecord> = fits
        .iter()
        .filter(|f| matches!(f.op, FitOp::Cold { .. }) && f.error.is_none())
        .collect();
    let updates: Vec<&FitRecord> = fits
        .iter()
        .filter(|f| matches!(f.op, FitOp::Update { .. }) && f.error.is_none())
        .collect();
    let latencies_ms = |records: &[&FitRecord]| -> Vec<f64> {
        records.iter().map(|f| ms(f.timing.latency_ns())).collect()
    };
    let (fit_ms, update_ms) = (latencies_ms(&cold), latencies_ms(&updates));
    ledger.attempted += (embeds.len() + window.unsent + fits.len()) as u64;
    ledger.failed += (embeds.len() - embed_ok.len() + window.unsent) as u64;
    ledger.failed += (fits.len() - cold.len() - updates.len()) as u64;
    // Over every embed scheduled: a failed, shed or unsent request is a miss.
    let in_slo = embed_ms.iter().filter(|&&l| l <= spec.slo_ms).count();
    let embed_slo_frac = in_slo as f64 / (embeds.len() + window.unsent).max(1) as f64;
    let cols: usize = embed_ok.iter().map(|r| r.request.queries.len()).sum();
    let fail_frac = ledger.failed as f64 / ledger.attempted.max(1) as f64;

    let mut lines = vec![format!(
        "workload {} seed {} window {:.3} s: {} embeds ({} scheduled), {} cold fits, {} fit_updates",
        spec.name,
        args.seed,
        window.wall_s,
        embeds.len(),
        embeds.len() + window.unsent,
        cold.len(),
        updates.len()
    )];
    // Wall-clock latencies are reported, by the traced run as per-layer metrics, but
    // not gated: on a shared VM they follow CPU steal more than the software does
    // (see README.md). The gated costs are the daemons' CPU time per operation.
    let latencies = [
        ("loadgen.embed_p50_ms", median(&embed_ms)?),
        ("loadgen.embed_p90_ms", percentile(&embed_ms, 0.9)?),
        ("loadgen.embed_p99_ms", percentile(&embed_ms, 0.99)?),
        ("loadgen.fit_p50_ms", median(&fit_ms)?),
        ("loadgen.fit_p90_ms", percentile(&fit_ms, 0.9)?),
        ("loadgen.fit_update_p50_ms", median(&update_ms)?),
    ];
    for (name, value) in latencies {
        lines.push(format!("{name} = {value} ms (not gated)"));
    }
    // Throughput follows the CPU the hypervisor leaves the VM on the closed loop
    // (and the schedule on the open loop), so it is reported but not gated either.
    let cols_per_s = cols as f64 / window.wall_s;
    lines.push(format!(
        "loadgen.embed_cols_per_s = {cols_per_s} cols/s (not gated)"
    ));
    // The share within the limit collapses when the host takes a third of the CPU
    // and the open loop's fixed rate overruns the rest, so it is not gated either.
    lines.push(format!(
        "loadgen.embed_slo_frac = {embed_slo_frac} within {} ms (not gated)",
        spec.slo_ms
    ));
    lines.push(format!(
        "set-ups: daemon CPU {setup_cpu_s:?} s, wall {:.3?} s; wall median {} s (not gated)",
        setup_wall_s,
        median(&setup_wall_s)?
    ));
    let lags: Vec<f64> = embeds.iter().map(|r| ms(r.timing.lag_ns())).collect();
    let lag_p99 = percentile(&lags, 0.99)?;
    // Behind: requests never sent, or the generator alone late by more than the
    // workload's latency limit at p99.
    let behind = window.unsent > 0 || (spec.open_rate.is_some() && lag_p99 > spec.slo_ms);
    if spec.open_rate.is_some() {
        lines.push(format!(
            "loadgen: scheduled {} sent {} send_lag_p50 {:.4} ms send_lag_p99 {lag_p99:.4} ms{}",
            embeds.len() + window.unsent,
            embeds.len(),
            median(&lags)?,
            if behind {
                " -- BEHIND SCHEDULE: open-loop latencies are not valid"
            } else {
                ""
            }
        ));
    }
    let values: usize = embed_ok
        .iter()
        .flat_map(|r| &r.request.queries)
        .map(|&at| inputs.query_pools.column(at).values.len())
        .sum();
    lines.push(format!(
        "daemon CPU: {window_cpu_s:.2} s in the window ({} embeds, {cols} columns, {values} values, {} warm starts); {fit_cpu_s:.2} s for {} cold fits and {} fit_updates",
        embed_ok.len(),
        delta(|s| s.warm_starts),
        cold.len(),
        updates.len()
    ));
    lines.push(format!(
        "host speed: {} reference slices, nominal {} us; scale {:.4} in the window, {fit_scale:.4} for the fits, {:.4?} for the set-ups",
        readings.count(),
        calibrate::NOMINAL_US,
        window_scale,
        setup_scaled
            .iter()
            .zip(&setup_cpu_s)
            .map(|(s, c)| s / c)
            .collect::<Vec<_>>()
    ));
    lines.push(format!("fail_frac = {fail_frac}"));
    lines.push(format!(
        "host CPU steal during the window: {:.1}%",
        100.0 * window_steal
    ));
    let first_error = embeds
        .iter()
        .find_map(|r| r.error.as_ref())
        .or(fits.iter().find_map(|f| f.error.as_ref()));
    if let Some(error) = first_error {
        lines.push(format!("first failure: {error}"));
        ledger.problem(format!("operations failed; the first: {error}"));
    }

    // Self-checks: each workload exercises the layers it claims.
    let hits = delta(|s| s.hits);
    let warm = delta(|s| s.warm_starts);
    let lookups = hits + warm + delta(|s| s.misses);
    let hit_ratio = hits as f64 / lookups.max(1) as f64;
    let shape_delta = |shape: &str| -> f64 {
        replicas_before
            .iter()
            .zip(&replicas_after)
            .map(|(b, a)| {
                a.get("gem_request_seconds_count", &[("shape", shape)])
                    - b.get("gem_request_seconds_count", &[("shape", shape)])
            })
            .sum()
    };
    let fingerprint_calls = shape_delta("fit") + shape_delta("fit_update");
    let replications = router_after.get("router_replications_total", &[])
        - router_before.get("router_replications_total", &[]);
    let window_fits = if spec.is_embed_workload() {
        0
    } else {
        fits.len()
    } as f64;
    let checks: Vec<(String, bool)> = match spec.kind {
        Kind::EmbedHot => vec![
            (
                format!("cache.hit_ratio = {hit_ratio} (want 1)"),
                lookups > 0 && hits == lookups,
            ),
            (
                format!("fingerprint.calls = {fingerprint_calls} (want 0)"),
                fingerprint_calls == 0.0,
            ),
            (
                format!("router.replications = {replications} (want 0)"),
                replications == 0.0,
            ),
        ],
        Kind::EmbedBulk => vec![(format!("store.loads = {warm} (want > 0)"), warm > 0)],
        Kind::FitMixed => vec![(
            format!("router.replications = {replications} (want {window_fits}, the fits issued)"),
            replications == window_fits,
        )],
    };
    for (text, ok) in &checks {
        lines.push(format!(
            "self-check {}: {text}",
            if *ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            return Err(format!("workload self-check failed: {text}"));
        }
    }

    let metrics = if args.trace {
        let mut out = Layers::new();
        out.insert("loadgen.sent", embeds.len() as f64);
        out.insert("loadgen.scheduled", (embeds.len() + window.unsent) as f64);
        out.insert("loadgen.send_lag_p99_ms", lag_p99);
        for (name, value) in latencies {
            out.insert(name, value);
        }
        out.insert("loadgen.embed_cols_per_s", cols_per_s);
        out.insert("loadgen.embed_slo_frac", embed_slo_frac);
        out.insert("loadgen.behind", f64::from(u8::from(behind)));
        out.insert("fingerprint.calls", fingerprint_calls);
        out.insert("cache.hit_ratio", hit_ratio);
        out.insert("store.loads", warm as f64);
        out.insert("fail_frac", fail_frac);
        layers::scraped(
            &replicas_before,
            &replicas_after,
            (&router_before, &router_after),
            &mut out,
        );

        let mut stream = EmbedStream::new(spec, args.seed, 0);
        let sample: Vec<EmbedRequest> = (0..REPLAY_EMBEDS)
            .map(|_| stream.next(&inputs.query_pools))
            .collect();
        let replay = layers::replay_embeds(
            spec,
            &topo,
            &fitted,
            &sample,
            &inputs.query_pools,
            run_root,
            &mut tracer,
            &mut out,
        )?;
        let mut stream = FitStream::new(args.seed, 7);
        let ops: Vec<FitOp> = (0..REPLAY_FIT_OPS)
            .map(|_| stream.next(&inputs.fit_pools, &inputs.query_pools))
            .collect();
        let fit_residuals = layers::replay_fits(
            spec,
            &topo,
            &ops,
            &inputs.fit_pools,
            &inputs.query_pools,
            &mut tracer,
            &mut out,
        )?;
        // The budget of the workload's own primary operation.
        let residuals = if spec.is_embed_workload() {
            &replay.residual_fracs
        } else {
            &fit_residuals
        };
        out.insert("trace.residual_frac", median(residuals)?);
        out.insert("trace.overhead_frac", median(&replay.overhead_fracs)?);
        tracer
            .write_jsonl(
                &PathBuf::from(".bench_run/spans")
                    .join(format!("{}-seed{}.jsonl", spec.name, args.seed)),
            )
            .map_err(|e| format!("writing spans: {e}"))?;
        out.into_iter()
            .map(|(name, value)| (name, value, layer_unit(name)))
            .collect()
    } else {
        vec![
            ("setup_s", median(&setup_scaled)?, "s"),
            (
                "fit_cpu_ms",
                fit_cpu_s * fit_scale * 1e3 / cold.len().max(1) as f64,
                "ms",
            ),
            (
                "embed_cpu_us_per_col",
                window_cpu_s * window_scale * 1e6 / cols.max(1) as f64,
                "us/col",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    topo.stop();
    Ok(Report {
        correct: ledger.problems.is_empty() && ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        lines,
        problems: ledger.problems,
    })
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") || name.ends_with("us_per_col") {
        if name.ends_with("us_per_col") {
            "us/col"
        } else {
            "us"
        }
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_frac") || name.ends_with("ratio") {
        "ratio"
    } else if name.ends_with("cols_per_s") {
        "cols/s"
    } else if name.ends_with("bytes") || name.ends_with("bytes_per_req") {
        "bytes"
    } else if name == "loadgen.behind" {
        "flag"
    } else {
        "count"
    }
}

/// What the measured window produced.
struct Window {
    embeds: Vec<EmbedRecord>,
    /// Open-loop requests scheduled but never sent.
    unsent: usize,
    fits: Vec<FitRecord>,
    wall_s: f64,
}

/// A load thread's records and spans.
type Load<T> = Result<(T, Tracer), String>;

fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, Load<T>>) -> Load<T> {
    handle
        .join()
        .unwrap_or_else(|_| Err("a load thread panicked".to_string()))
}

fn drive(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    fitted: &Fitted,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let hard_stop = started + Duration::from_secs_f64(MAX_STRETCH * args.seconds);
    let (embeds, unsent, fits) = match spec.kind {
        Kind::EmbedHot | Kind::EmbedBulk if spec.open_rate.is_some() => {
            let (embeds, unsent) =
                open_loop_embeds(args, spec, inputs, topo, fitted, epoch, tracer)?;
            (embeds, unsent, Vec::new())
        }
        Kind::EmbedHot | Kind::EmbedBulk => {
            let per_connection = MIN_EMBEDS.div_ceil(spec.closed_connections.max(1));
            let done = |sent: usize| {
                let now = Instant::now();
                now >= hard_stop || (now >= deadline && sent >= per_connection)
            };
            let done: &(dyn Fn(usize) -> bool + Sync) = &done;
            let results: Vec<Load<Vec<EmbedRecord>>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..spec.closed_connections as u64)
                    .map(|conn| {
                        scope.spawn(move || {
                            closed_loop_embeds(args, spec, inputs, topo, fitted, epoch, conn, done)
                        })
                    })
                    .collect();
                workers.into_iter().map(joined).collect()
            });
            let mut embeds = Vec::new();
            for result in results {
                let (records, local) = result?;
                embeds.extend(records);
                tracer.absorb(local);
            }
            (embeds, 0, Vec::new())
        }
        Kind::FitMixed => {
            let (writer, reader) = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut local = Tracer::new(epoch);
                    let stop = |_: usize, cold: usize| {
                        let now = Instant::now();
                        now >= hard_stop || (now >= deadline && cold >= MIN_COLD_FITS)
                    };
                    writer_loop(args, spec, inputs, topo, epoch, 0, &stop, Some(&mut local))
                        .map(|fits| (fits, local))
                });
                let mut local = Tracer::new(epoch);
                let reader = open_loop_embeds(args, spec, inputs, topo, fitted, epoch, &mut local)
                    .map(|r| (r, local));
                (joined(writer), reader)
            });
            let (fits, writer_trace) = writer?;
            let ((embeds, unsent), reader_trace) = reader?;
            tracer.absorb(writer_trace);
            tracer.absorb(reader_trace);
            (embeds, unsent, fits)
        }
    };
    // An open loop offers load for exactly its schedule; a closed loop runs until
    // its last request returns.
    let wall_s = match spec.open_rate {
        Some(_) => args.seconds,
        None => started.elapsed().as_secs_f64(),
    };
    Ok(Window {
        embeds,
        unsent,
        fits,
        wall_s,
    })
}

fn open_loop_embeds(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    fitted: &Fitted,
    epoch: Instant,
    tracer: &mut Tracer,
) -> Result<(Vec<EmbedRecord>, usize), String> {
    let rate = spec.open_rate.ok_or("workload has no open-loop rate")?;
    let mut stream = EmbedStream::new(spec, args.seed, 0);
    let schedule = fixed_rate_schedule(
        rate,
        args.seconds,
        epoch.elapsed().as_nanos() as u64 + 20_000_000,
    );
    let requests: Vec<EmbedRequest> = schedule
        .iter()
        .map(|_| stream.next(&inputs.query_pools))
        .collect();
    let hexes: Vec<String> = fitted.handles.iter().map(|h| h.to_hex()).collect();
    let mut conn = WireConn::connect(&topo.router.addr)?;
    let mut observe = |index: usize, timing: Timing| {
        if args.trace {
            let root = tracer.record(
                "loadgen.embed",
                None,
                index as u64,
                timing.intended_ns,
                timing.done_ns,
            );
            tracer.record(
                "loadgen.send_lag",
                Some(root),
                index as u64,
                timing.intended_ns,
                timing.sent_ns,
            );
        }
    };
    let (sent, health) = open_loop(
        &mut conn,
        epoch,
        &schedule,
        |i| RequestBody::Embed {
            handle: hexes[requests[i].model].clone(),
            queries: inputs.query_pools.columns(&requests[i].queries),
        },
        DRAIN,
        &mut observe,
    );
    let records = sent
        .into_iter()
        .map(|s| {
            let request = requests[s.index].clone();
            let answer = match s.answer {
                Answer::Embedded(m) => Ok(m),
                Answer::Failed(e) => Err(e),
            };
            embed_record(fitted, request, s.timing, answer, s.index)
        })
        .collect();
    Ok((records, health.scheduled - health.sent))
}

/// Validate an answer's shape now; keep it only when it is chosen for the bit check.
fn embed_record(
    fitted: &Fitted,
    request: EmbedRequest,
    timing: Timing,
    answer: Result<Matrix, String>,
    index: usize,
) -> EmbedRecord {
    let error = match &answer {
        Ok(m)
            if m.rows() != request.queries.len()
                || m.cols() != fitted.models[request.model].dim()
                || !m.all_finite() =>
        {
            Some("malformed embedding matrix".to_string())
        }
        Ok(_) => None,
        Err(e) => Some(e.clone()),
    };
    let keep = error.is_none() && index.is_multiple_of(BIT_CHECK_EVERY);
    EmbedRecord {
        request,
        timing,
        matrix: answer.ok().filter(|_| keep),
        ok: error.is_none(),
        error,
    }
}

#[allow(clippy::too_many_arguments)]
fn closed_loop_embeds(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    fitted: &Fitted,
    epoch: Instant,
    conn: u64,
    done: &(dyn Fn(usize) -> bool + Sync),
) -> Load<Vec<EmbedRecord>> {
    let mut client = GemClient::connect(&topo.router.addr).map_err(|e| e.to_string())?;
    let mut stream = EmbedStream::new(spec, args.seed, conn);
    let mut tracer = Tracer::new(epoch);
    let mut records = Vec::new();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut last_done = now_ns();
    for index in 0.. {
        if done(index) {
            break;
        }
        let request = stream.next(&inputs.query_pools);
        let queries: Vec<GemColumn> = inputs.query_pools.columns(&request.queries);
        // Closed loop: a request is due when the previous one completed; the time the
        // generator takes to issue it is its send lag.
        let intended_ns = last_done;
        let sent_ns = now_ns();
        let answer = client.embed(fitted.handles[request.model], &queries);
        let done_ns = now_ns();
        last_done = done_ns;
        let timing = Timing {
            intended_ns,
            sent_ns,
            done_ns,
        };
        if args.trace {
            let rid = (conn << 32) | index as u64;
            let root = tracer.record("loadgen.embed", None, rid, intended_ns, done_ns);
            tracer.record("loadgen.send_lag", Some(root), rid, intended_ns, sent_ns);
        }
        let answer = answer.map(|o| o.matrix).map_err(|e| e.to_string());
        records.push(embed_record(fitted, request, timing, answer, index));
    }
    Ok((records, tracer))
}

/// The closed-loop writer: cold fits and `fit_update`s on one connection, until
/// `stop(ops issued, cold fits done)` says so.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    epoch: Instant,
    stream: u64,
    stop: &dyn Fn(usize, usize) -> bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<FitRecord>, String> {
    let config = model_config();
    let mut client = GemClient::connect(&topo.router.addr).map_err(|e| e.to_string())?;
    let mut ops = FitStream::new(args.seed, stream);
    let mut records: Vec<FitRecord> = Vec::new();
    let mut cold_handles: Vec<Option<ModelHandle>> = Vec::new();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut cold_done = 0;
    while !stop(records.len(), cold_done) {
        let op = ops.next(&inputs.fit_pools, &inputs.query_pools);
        let index = records.len();
        let (outcome, parent) = match &op {
            FitOp::Cold { corpus } => {
                let columns = inputs.fit_pools.columns(corpus);
                let start = now_ns();
                (
                    client
                        .fit(&columns, &config, spec.features)
                        .map(|o| (o, start)),
                    None,
                )
            }
            FitOp::Update { parent, columns } => {
                let Some(parent_handle) = cold_handles.get(*parent).copied().flatten() else {
                    continue; // its parent fit failed; that failure is already counted
                };
                let columns = inputs.query_pools.columns(columns);
                let start = now_ns();
                (
                    client
                        .fit_update(parent_handle, &columns)
                        .map(|o| (o, start)),
                    Some(parent_handle),
                )
            }
        };
        let done_ns = now_ns();
        let record = match outcome {
            Ok((fit, start)) => FitRecord {
                op: op.clone(),
                timing: Timing {
                    intended_ns: start,
                    sent_ns: start,
                    done_ns,
                },
                handle: Some(fit.handle),
                served_from: Some(fit.served_from),
                parent,
                error: None,
            },
            Err(e) => FitRecord {
                op: op.clone(),
                timing: Timing {
                    intended_ns: done_ns,
                    sent_ns: done_ns,
                    done_ns,
                },
                handle: None,
                served_from: None,
                parent,
                error: Some(e.to_string()),
            },
        };
        if let (true, Some(t)) = (args.trace, tracer.as_deref_mut()) {
            let name = if parent.is_some() {
                "loadgen.fit_update"
            } else {
                "loadgen.fit"
            };
            t.record(
                name,
                None,
                2_000_000 + index as u64,
                record.timing.intended_ns,
                record.timing.done_ns,
            );
        }
        if let FitOp::Cold { .. } = op {
            cold_handles.push(record.handle);
            if record.error.is_none() {
                cold_done += 1;
            }
        }
        records.push(record);
    }
    Ok(records)
}

/// On the embed workloads: cold fits and updates on an otherwise idle cluster, after
/// the window, so every workload reports the fit latencies.
fn fit_probe(
    args: &Args,
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    epoch: Instant,
) -> Result<Vec<FitRecord>, String> {
    let stop = |ops: usize, cold: usize| cold >= PROBE_COLD_FITS || ops >= 4 * PROBE_COLD_FITS;
    writer_loop(args, spec, inputs, topo, epoch, 1, &stop, None)
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit-compare the sampled answers with in-process transforms of the pulled models.
fn check_embeds(inputs: &Inputs, fitted: &Fitted, embeds: &[EmbedRecord], ledger: &mut Ledger) {
    for record in embeds.iter().filter(|r| r.matrix.is_some()) {
        let queries = inputs.query_pools.columns(&record.request.queries);
        let expected = fitted.models[record.request.model].transform(&queries);
        let matches = match (&expected, &record.matrix) {
            (Ok(e), Some(got)) => same_bits(&e.matrix, got),
            _ => false,
        };
        if !matches {
            ledger.failed += 1;
            ledger.problem("an embed answer differs from the in-process transform".to_string());
        }
    }
}

/// Every fit answered the fingerprint its corpus implies (cold fits as cold fits), and
/// the first few cold fits embed bit-identically to an in-process fit of the corpus.
fn check_fits(
    spec: &Spec,
    inputs: &Inputs,
    topo: &Topology,
    fits: &[FitRecord],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let config = model_config();
    let mut router = connect(&topo.router.addr)?;
    let mut bit_checked = 0;
    for record in fits {
        let Some(handle) = record.handle else {
            continue; // a failed op; counted as a failure, not as a wrong answer
        };
        let good = match &record.op {
            FitOp::Cold { corpus } => {
                let columns = inputs.fit_pools.columns(corpus);
                let keyed = handle.key() == model_key(&columns, &config, spec.features)
                    && record.served_from == Some(ServedFrom::ColdFit);
                if keyed && bit_checked < FIT_BIT_CHECKS {
                    bit_checked += 1;
                    let probe = inputs
                        .query_pools
                        .columns(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
                    let local = GemModel::fit(&columns, &config, spec.features)
                        .and_then(|m| m.transform(&probe));
                    let served = router.embed(handle, &probe);
                    matches!((local, served), (Ok(l), Ok(s)) if same_bits(&l.matrix, &s.matrix))
                } else {
                    keyed
                }
            }
            FitOp::Update { columns, .. } => {
                let columns = inputs.query_pools.columns(columns);
                record
                    .parent
                    .is_some_and(|p| handle.key() == updated_model_key(p.key(), &columns))
            }
        };
        if !good {
            ledger.failed += 1;
            ledger.problem("a fit answered the wrong handle, was not cold, or embeds differently from an in-process fit".to_string());
        }
    }
    Ok(())
}
