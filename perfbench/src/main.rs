//! `cc-perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5-replay|olden-pipeline|serve-mix --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets up (several
//! times; the median is `setup_s`), measures for `--seconds`, then checks
//! its outputs outside the timed section. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it instead runs a fixed slice of
//! the workload twice, untraced and then traced with a span around every
//! layer call, and prints the per-layer metrics. The last stdout line is
//! the JSON result; a line before it stamps the host. A failed check
//! makes the exit code 1, a usage error 2.
//!
//! `--smoke` runs all three workloads at tiny sizes, checks included.

mod fig5;
mod olden;
mod serve;
mod stats;
mod trace;

use stats::Metric;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// `<span>_pct` metric is that layer span's self time as a share of the
/// traced pass, so a layer the workload never calls reads 0% rather than
/// a constant zero time; `traced_wall_s` turns a share back into seconds.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trees.build_pct", "%"),
    ("core.ccmorph_pct", "%"),
    ("trees.search_pct", "%"),
    ("bench.keys_pct", "%"),
    ("bench.pack_pct", "%"),
    ("sweep.store_pct", "%"),
    ("sim.split_pct", "%"),
    ("sim.replay_pct", "%"),
    ("olden.treeadd_pct", "%"),
    ("olden.health_pct", "%"),
    ("olden.mst_pct", "%"),
    ("olden.perimeter_pct", "%"),
    ("audit.snapshot_pct", "%"),
    ("serve.codec_pct", "%"),
    ("serve.rtt_pct", "%"),
    ("serve.op.simulate_pct", "%"),
    ("serve.op.morph_pct", "%"),
    ("serve.op.lint_pct", "%"),
    ("serve.op.audit_pct", "%"),
    ("sample.run_pct", "%"),
    ("bench.field_leg_pct", "%"),
    ("lint.analyze_pct", "%"),
    ("audit.audit_pct", "%"),
    ("sim.replay_critical_path_pct", "%"),
    ("sweep.store_misses", "count"),
    ("sweep.store_hits", "count"),
    ("sweep.store_bytes", "bytes"),
    ("sim.split_resolved_ratio", "ratio"),
    ("sim.l1_miss_ratio", "ratio"),
    ("sim.l2_miss_ratio", "ratio"),
    ("sim.tlb_miss_ratio", "ratio"),
    ("sim.degraded_lanes", "count"),
    ("heap.fallback_allocations", "count"),
    ("sample.representatives", "count"),
    ("serve.queue.peak", "count"),
    ("serve.queue.sheds", "count"),
    ("serve.deadline.timeouts", "count"),
    ("error_ratio", "ratio"),
    ("sampled_error_pct", "%"),
    ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"),
    ("unaccounted_s", "s"),
    ("trace_overhead_pct", "%"),
];

/// Environment variables that would let a run reuse another run's state
/// (a disk trace cache, a sweep checkpoint) or change what it measures.
const SCRUBBED_ENV: [&str; 4] = [
    "CC_TRACE_CACHE",
    "CC_SWEEP_CHECKPOINT",
    "CC_OBS_OUT",
    "CC_BENCH_REPEATS",
];

/// Run parameters every workload receives.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs, for the smoke mode.
    pub smoke: bool,
}

/// What a workload hands back: counted operations, failed checks, and
/// its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific host-stamp fields (shards, workers, sizes).
    pub stamp: Vec<(&'static str, String)>,
    /// The traced pass's spans as chrome://tracing JSON.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Records a check: counts it as an attempted operation and, when it
    /// failed, as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Host parallelism: every workload sizes its threads, connections and
/// shard lanes from this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Records the traced pass's accounting: every layer span's self time as
/// a share of the pass, both passes' wall times, the time no span covers,
/// and the tracing overhead. Self times plus the uncovered time must add
/// up to the wall time exactly (checked). The per-span table, in seconds
/// with per-call percentiles, goes to stderr.
pub fn set_pass_metrics(out: &mut Outcome, s: &trace::Summary, untraced_ns: u64) {
    let wall = s.wall_ns.max(1) as f64;
    for &(metric, _) in PER_LAYER {
        if let Some(&ns) = metric
            .strip_suffix("_pct")
            .and_then(|span| s.self_ns.get(span))
        {
            out.set(metric, ns as f64 / wall * 100.0);
        }
    }
    let covered: u64 = s.self_ns.values().sum();
    out.check(covered + s.unaccounted_ns == s.wall_ns, || {
        format!(
            "self times {covered} ns + unaccounted {} ns != wall {} ns",
            s.unaccounted_ns, s.wall_ns
        )
    });
    let secs = |ns: u64| ns as f64 / 1e9;
    out.set("traced_wall_s", secs(s.wall_ns));
    out.set("untraced_wall_s", secs(untraced_ns));
    out.set("unaccounted_s", secs(s.unaccounted_ns));
    out.set(
        "trace_overhead_pct",
        (s.wall_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64 * 100.0,
    );
    eprintln!(
        "layer self time over a {:.3}s traced pass ({:.3}s untraced):",
        secs(s.wall_ns),
        secs(untraced_ns)
    );
    for (name, &ns) in &s.self_ns {
        let calls: Vec<f64> = s.durations_ns[name]
            .iter()
            .map(|&d| d as f64 / 1e6)
            .collect();
        eprintln!(
            "  {name:<20} {:>9.4}s {:>6.2}%  {:>6} calls  p50 {:>9.3}ms  p90 {:>9.3}ms",
            secs(ns),
            ns as f64 / wall * 100.0,
            calls.len(),
            stats::percentile(&calls, 50.0),
            stats::percentile(&calls, 90.0),
        );
    }
    eprintln!(
        "  {:<20} {:>9.4}s {:>6.2}%",
        "(unaccounted)",
        secs(s.unaccounted_ns),
        s.unaccounted_ns as f64 / wall * 100.0
    );
}

/// `clock_gettime(2)`'s CPU-time clocks.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
}

fn cpu_clock_ns(clock: std::os::raw::c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec, the only memory the call
    // writes; the clock ids are Linux's fixed CPU-time clocks.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has used, in ns. Unlike wall time it does
/// not grow while the thread waits for a core, so on a shared host it
/// measures the work rather than the neighbours.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all of this process's threads have used, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// glibc `mallopt(3)` parameters.
const M_TRIM_THRESHOLD: std::os::raw::c_int = -1;
const M_MMAP_MAX: std::os::raw::c_int = -4;

extern "C" {
    fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Keeps memory the program frees inside the process for reuse: no
/// allocation is its own `mmap`, and the heap is never trimmed.
pub fn keep_freed_memory() {
    // SAFETY: mallopt only sets allocator parameters and is called from
    // `main` before any other thread exists.
    let ok = unsafe {
        mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, std::os::raw::c_int::MAX) == 1
    };
    assert!(ok, "mallopt refused the allocator settings");
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, when the working directory is a git
/// checkout; benchmark checkouts without `.git` report `unknown`.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{reference}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: cc-perfbench --workload fig5-replay|olden-pipeline|serve-mix \
         --seed N --seconds S --trace 0|1\n       cc-perfbench --smoke"
    );
    std::process::exit(2);
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cli.smoke = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => cli.workload = value,
            "--seed" => cli.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.seconds = value.parse().unwrap_or_else(|_| usage());
                if cli.seconds.is_nan() || cli.seconds <= 0.0 {
                    usage();
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !cli.smoke && cli.workload.is_empty() {
        usage();
    }
    cli
}

type Runner = fn(RunArgs, bool) -> Outcome;

fn runner(workload: &str) -> Option<Runner> {
    match workload {
        "fig5-replay" => Some(fig5::run),
        "olden-pipeline" => Some(olden::run),
        "serve-mix" => Some(serve::run),
        _ => None,
    }
}

/// Writes the traced pass's spans next to the build output; a write
/// failure only warns, since the trace is a diagnostic.
fn write_chrome_trace(workload: &str, seed: u64, json: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("trace written to {}", path.display());
    }
}

fn run_one(workload: &str, args: RunArgs, traced: bool) -> (Outcome, Vec<Metric>) {
    let run = runner(workload).unwrap_or_else(|| usage());
    let mut outcome = run(args, traced);
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    if traced {
        let ratio = outcome.failures.len() as f64 / outcome.attempted.max(1) as f64;
        outcome.set("error_ratio", ratio);
    }
    let metrics = wanted
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: outcome.metrics.get(name).copied().unwrap_or(0.0),
        })
        .collect();
    (outcome, metrics)
}

fn main() {
    // With glibc's defaults the Olden cells and the server's requests gave
    // freed memory back to the kernel and faulted it in again, some 18K
    // pages a second, and on a shared virtual host the cost of a fault
    // moves with the neighbours. Kept in the process, the memory is
    // reused as a long-running process would reuse it.
    keep_freed_memory();
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let cli = parse_cli();
    if cli.smoke {
        smoke(cli.seed);
        return;
    }
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: false,
    };
    let (outcome, metrics) = run_one(&cli.workload, args, cli.trace);
    if let Some(json) = &outcome.chrome_trace {
        write_chrome_trace(&cli.workload, cli.seed, json);
    }

    let mut stamp = vec![
        ("workload", json_str(&cli.workload)),
        ("seed", cli.seed.to_string()),
        ("trace", u8::from(cli.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("git_commit", json_str(&git_commit())),
        ("cpu_model", json_str(&cpu_model())),
    ];
    stamp.extend(outcome.stamp.iter().map(|(k, v)| (*k, v.clone())));
    let stamp: Vec<String> = stamp.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("{{\"host\": {{{}}}}}", stamp.join(", "));
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let failed = outcome.failures.len() as u64;
    println!(
        "{}",
        stats::result_line(failed == 0, outcome.attempted.max(1), failed, &metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// Runs every workload at tiny sizes, untraced and traced, checks
/// included; exits 1 if any check fails.
fn smoke(seed: u64) {
    let mut failed = 0;
    for workload in ["fig5-replay", "olden-pipeline", "serve-mix"] {
        for traced in [false, true] {
            let args = RunArgs {
                seed,
                seconds: 0.5,
                smoke: true,
            };
            let t = Instant::now();
            let (outcome, metrics) = run_one(workload, args, traced);
            for f in &outcome.failures {
                eprintln!("CHECK FAILED ({workload}): {f}");
            }
            failed += outcome.failures.len();
            println!(
                "{workload} trace={} {:.2}s {}",
                u8::from(traced),
                t.elapsed().as_secs_f64(),
                stats::result_line(
                    outcome.failures.is_empty(),
                    outcome.attempted.max(1),
                    outcome.failures.len() as u64,
                    &metrics
                )
            );
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
