//! The repo benchmark: operator workloads over the CrystalNet emulator.
//!
//! ```text
//! crystalnet-perfbench --workload <mdc-mockup|sdc-rehearse|sdc-watch>
//!     --seed N --seconds S --trace <0|1>
//!     [--size full|small] [--golden FILE] [--out-dir DIR] [--print-pins]
//! ```
//!
//! Each run sets up (Prepare + Mockup to route-ready) several times,
//! then runs one closed-loop client for `--seconds`, checks every
//! output, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A traced run also writes its
//! spans to `DIR/spans-<workload>-<seed>.jsonl`.
//!
//! The emulator is driven only through public functions of `crystalnet`
//! and the workspace crates, with `workers(1)`; every input comes from
//! `--seed`.

mod layers;
mod mdc;
mod pace;
mod packets;
mod rehearse;
mod trace;
mod util;
mod watch;

use packets::PacketStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{mean, median, peak_rss_mb, quantile, ratio, Ctx, Metrics, Size, Timed};

const WORKLOADS: &[&str] = &["mdc-mockup", "sdc-rehearse", "sdc-watch"];

/// What one workload run measured.
pub struct Outcome {
    e2e: Metrics,
    layers: Metrics,
    note: String,
}

impl Outcome {
    /// Builds both metric sets. `setups` are the untraced set-ups;
    /// `ops` the untraced operations after warm-up; `iters` the
    /// untraced and traced loop-iteration walls (ms), whose root spans
    /// are named `root`. End-to-end times are at the reference speed
    /// (see `pace`); the note also gives the unscaled walls.
    #[allow(clippy::too_many_arguments)]
    fn new(
        ctx: &Ctx,
        setups: &[Timed],
        ops: &[Timed],
        iters: (Vec<f64>, Vec<f64>),
        stats: &PacketStats,
        warmup_ops: usize,
        root: &str,
        mut layers: Metrics,
    ) -> Self {
        let scaled = |xs: &[Timed], unit: f64| -> Vec<f64> {
            xs.iter().map(|&(t, d)| ctx.pace.scaled(t, d) * unit).collect()
        };
        let wall = |xs: &[Timed], unit: f64| -> Vec<f64> {
            xs.iter().map(|(_, d)| d.as_secs_f64() * unit).collect()
        };
        let (ops_ms, pairs_us) = (scaled(ops, 1e3), scaled(&stats.timed, 1e6));
        let mut e2e = Metrics::default();
        e2e.put("setup_s", median(&scaled(setups, 1.0)), "s");
        e2e.put("peak_rss_mb", peak_rss_mb(), "MB");
        e2e.put("op_mean_ms", mean(&ops_ms), "ms");
        e2e.put("op_p90_ms", quantile(&ops_ms, 0.90), "ms");
        e2e.put("inject_mean_us", mean(&pairs_us), "us");
        e2e.put("inject_p99_us", quantile(&pairs_us, 0.99), "us");
        let (compute_ms, memory_ms) = ctx.pace.medians_ms();
        let unscaled = format!(
            "unscaled walls: setup median {:.3}s, op mean {:.3}ms, inject mean {:.3}us; \
             gauges over {} samples: compute median {compute_ms:.3}ms (nominal {}ms), \
             memory median {memory_ms:.3}ms (nominal {}ms, share {})",
            median(&wall(setups, 1.0)),
            mean(&wall(ops, 1e3)),
            mean(&wall(&stats.timed, 1e6)),
            ctx.pace.samples(),
            pace::NOMINAL_MS,
            pace::NOMINAL_MEM_MS,
            pace::MEM_SHARE,
        );

        layers.put("bench.warmup_ops", warmup_ops as f64, "count");
        if ctx.traced {
            // The share of the traced iterations' wall time that spans
            // below the iteration's own span explain.
            let traced_ns: f64 = iters.1.iter().sum::<f64>() * 1e6;
            let root_self = ctx.tracer.layers().get(root).map_or(0, |t| t.self_ns);
            layers.put(
                "bench.span_coverage_pct",
                100.0 * ratio((ctx.tracer.root_ns(root) - root_self) as f64, traced_ns),
                "%",
            );
            layers.put(
                "bench.trace_overhead_pct",
                100.0 * (ratio(median(&iters.1), median(&iters.0)) - 1.0),
                "%",
            );
        }
        Outcome {
            e2e,
            layers: layers::complete(&layers),
            note: unscaled,
        }
    }

    fn with_note(mut self, note: String) -> Self {
        self.note = format!("{note}\n  {}", self.note);
        self
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    golden: Option<PathBuf>,
    out_dir: PathBuf,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        size: Size::Full,
        golden: None,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        print_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            args.print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&value)?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0,
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "small" => Size::Small,
                    _ => return Err(format!("--size {value}: expected full or small")),
                }
            }
            "--golden" => args.golden = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {}",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Pinned values per `(workload, seed)` from a tab-separated file of
/// `workload seed key value` lines (full size only).
fn read_golden(path: &PathBuf) -> Result<BTreeMap<(String, u64, String), String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [workload, seed, key, value] = f.as_slice() else {
            return Err(format!("{}:{}: expected 4 fields", path.display(), n + 1));
        };
        let seed = seed
            .parse()
            .map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        out.insert(
            ((*workload).to_string(), seed, (*key).to_string()),
            (*value).to_string(),
        );
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let golden = match args.golden.as_ref().map(read_golden).transpose() {
        Ok(g) => g.unwrap_or_default(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, args.size);
    let outcome = match args.workload.as_str() {
        "mdc-mockup" => mdc::run(&mut ctx),
        "sdc-rehearse" => rehearse::run(&mut ctx),
        _ => watch::run(&mut ctx),
    };

    // Values pinned for this seed must come out exactly as recorded.
    let pins = std::mem::take(&mut ctx.pins);
    if args.size == Size::Full {
        for (key, value) in &pins {
            let k = (args.workload.clone(), args.seed, (*key).to_string());
            if let Some(want) = golden.get(&k) {
                ctx.check(want == value, || {
                    format!(
                        "pinned {key} for seed {}: want {want}, got {value}",
                        args.seed
                    )
                });
            }
        }
    }
    if args.print_pins {
        for (key, value) in &pins {
            println!("pin\t{}\t{}\t{key}\t{value}", args.workload, args.seed);
        }
    }

    if args.trace {
        let path = args
            .out_dir
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, ctx.tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
        let layer_times = ctx.tracer.layers();
        println!("span self time by call (traced iterations):");
        for (name, t) in &layer_times {
            println!(
                "  {name:<34} {:>6} spans  self {:>10.3} ms  mean self {:>10.3} us",
                t.count,
                t.self_ns as f64 / 1e6,
                t.mean_self(1e3)
            );
        }
    }

    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    println!("{} seed {}: {}", args.workload, args.seed, outcome.note);
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    let failed_pct = 100.0 * ratio(ctx.failed as f64, ctx.attempted as f64);
    println!(
        "  {:<34} {failed_pct:>14.4} % ({} of {} operations)",
        "failed_ops_pct", ctx.failed, ctx.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.failed == 0,
        ctx.attempted.max(1),
        ctx.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
