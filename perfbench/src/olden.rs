//! `olden-pipeline`: Figure 7's grid at a reduced scale.
//!
//! treeadd, health, mst and perimeter × the eight `Scheme::FIGURE7`
//! schemes, each cell a full program run on the in-order `Pipeline`
//! model (stores and write-back, hardware and software prefetch,
//! ccmalloc placement) followed, for the hint-taking schemes, by an
//! audit of the final heap — the cell fig7 computes. Cells go through
//! the sweep runner in fig7's order, one at a time, one whole grid per
//! round. An operation is a cell. A cell's time is its CPU time at the
//! lower decile of the run's rounds; the figures are cells per second of
//! those times, the median cell (`op_p50_ms`) and the slowest cell
//! (`op_tail_ms`; the cells are 32 fixed programs, not samples of one, so
//! their top is a cell rather than a percentile). The wall-clock cell
//! rate goes to the host stamp. The Olden programs take no seed, so the
//! workload is the same for every seed.

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{timed_setup, Outcome, RunArgs};
use cc_audit::{audit, AuditConfig, AuditInput};
use cc_olden::{health, mst, perimeter, treeadd, RunResult, Scheme};
use cc_sim::MachineConfig;
use cc_sweep::Sweep;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Program sizes (a reduced Table 2).
#[derive(Clone, Copy)]
struct Params {
    treeadd_nodes: u64,
    treeadd_iters: u64,
    health_levels: u32,
    health_steps: u64,
    mst_nodes: usize,
    mst_degree: usize,
    perimeter_size: u32,
    trace_rounds: u64,
}

fn params(smoke: bool) -> Params {
    if smoke {
        Params {
            treeadd_nodes: 1024,
            treeadd_iters: 2,
            health_levels: 2,
            health_steps: 5,
            mst_nodes: 32,
            mst_degree: 4,
            perimeter_size: 32,
            trace_rounds: 1,
        }
    } else {
        Params {
            treeadd_nodes: 16_384,
            treeadd_iters: 4,
            health_levels: 3,
            health_steps: 40,
            mst_nodes: 128,
            mst_degree: 16,
            perimeter_size: 128,
            trace_rounds: 2,
        }
    }
}

const PROGRAMS: [&str; 4] = ["treeadd", "health", "mst", "perimeter"];

fn run_program(p: &Params, prog: usize, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    match prog {
        0 => treeadd::run_iters(scheme, p.treeadd_nodes, p.treeadd_iters, machine),
        1 => health::run(scheme, p.health_levels, p.health_steps, machine),
        2 => mst::run(scheme, p.mst_nodes, p.mst_degree, machine),
        _ => perimeter::run(scheme, p.perimeter_size, machine),
    }
}

/// A cell's simulated outcome; equality is bit-identity.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cell {
    prog: usize,
    scheme: Scheme,
    cycles: [u64; 4],
    checksum: u64,
    l2_misses: u64,
    fallback_allocations: u64,
    audit_errors: Option<usize>,
}

fn run_cell(p: &Params, prog: usize, scheme: Scheme, machine: &MachineConfig, tr: &Tracer) -> Cell {
    let span = match prog {
        0 => "olden.treeadd",
        1 => "olden.health",
        2 => "olden.mst",
        _ => "olden.perimeter",
    };
    let r = tr.span(span, || run_program(p, prog, scheme, machine));
    let audit_errors = scheme.uses_hints().then(|| {
        tr.span("audit.snapshot", || {
            let input =
                AuditInput::from_snapshot(&r.snapshot, machine.l2, machine.page_bytes, None);
            audit(&input, &AuditConfig::default()).error_count()
        })
    });
    let b = r.breakdown;
    Cell {
        prog,
        scheme,
        cycles: [b.busy, b.inst_stall, b.data_stall, b.store_stall],
        checksum: r.checksum,
        l2_misses: r.l2_misses,
        fallback_allocations: r.heap.fallback_allocations(),
        audit_errors,
    }
}

/// The (program × scheme) grid in fig7's order.
fn grid() -> Vec<(usize, Scheme)> {
    (0..PROGRAMS.len())
        .flat_map(|b| Scheme::FIGURE7.iter().map(move |&s| (b, s)))
        .collect()
}

/// Every scheme of a program must compute the base scheme's answer.
fn check_checksums(cells: &[Cell], round: u64, out: &mut Outcome) {
    for (prog, name) in PROGRAMS.iter().enumerate() {
        let of = |s: Scheme| cells.iter().find(|c| c.prog == prog && c.scheme == s);
        let Some(base) = of(Scheme::Base) else {
            continue;
        };
        for &s in &Scheme::FIGURE7[1..] {
            let Some(c) = of(s) else { continue };
            out.check(c.checksum == base.checksum, || {
                format!(
                    "round {round} {name}: scheme {} checksum {} != base {}",
                    s.label(),
                    c.checksum,
                    base.checksum
                )
            });
        }
    }
}

/// Cells run one at a time. On a host of a few shared cores a second
/// worker made the run's cell rate swing by a third from run to run: it
/// measured the neighbours and the scheduler more than the cells.
const WORKERS: usize = 1;

/// Runs one grid through the sweep runner, checks every cell against the
/// reference checksums, and returns each cell's CPU time in ms.
fn grid_round(
    p: &Params,
    machine: &MachineConfig,
    reference: &[u64],
    round: u64,
    out: &mut Outcome,
) -> Vec<f64> {
    let g = grid();
    let results = Sweep::with_threads(WORKERS).run(&g, |_, &(prog, scheme)| {
        let cpu = crate::thread_cpu_ns();
        let cell = catch_unwind(AssertUnwindSafe(|| {
            run_cell(p, prog, scheme, machine, &Tracer::new(false))
        }));
        (cell.ok(), (crate::thread_cpu_ns() - cpu) as f64 / 1e6)
    });
    let mut cell_ms = Vec::with_capacity(g.len());
    for ((prog, scheme), (cell, ms)) in g.iter().zip(results) {
        cell_ms.push(ms);
        let Some(c) = cell else {
            out.check(false, || {
                format!(
                    "round {round}: {} {} panicked",
                    PROGRAMS[*prog],
                    scheme.label()
                )
            });
            continue;
        };
        out.check(c.checksum == reference[c.prog], || {
            format!(
                "round {round} {} {}: checksum {} != reference {}",
                PROGRAMS[c.prog],
                c.scheme.label(),
                c.checksum,
                reference[c.prog]
            )
        });
    }
    cell_ms
}

pub fn run(args: RunArgs, traced: bool) -> Outcome {
    let p = params(args.smoke);
    let machine = MachineConfig::table1();
    let mut out = Outcome {
        stamp: vec![("workers", WORKERS.to_string())],
        ..Outcome::default()
    };
    if traced {
        run_traced(&p, &machine, &mut out);
        return out;
    }

    // The programs build their structures inside each cell, as fig7's
    // do, so set-up is the reference run: each program's base scheme,
    // whose checksum every cell is checked against.
    let off = Tracer::new(false);
    let (reference, setup_s) = timed_setup(if args.smoke { 1 } else { 15 }, || {
        (0..PROGRAMS.len())
            .map(|prog| run_cell(&p, prog, Scheme::Base, &machine, &off).checksum)
            .collect::<Vec<u64>>()
    });

    // One checked warm-up grid, untimed: a process's first grid runs
    // about a third slower than the rest.
    grid_round(&p, &machine, &reference, 0, &mut out);
    let mut samples = vec![Vec::new(); grid().len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let cell_ms = grid_round(&p, &machine, &reference, rounds, &mut out);
        for (s, ms) in samples.iter_mut().zip(cell_ms) {
            s.push(ms);
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // A cell is a fixed program, so its time changes between rounds only
    // with the host, and the host's neighbours only ever add time. Their
    // load shifts over seconds, and a median over rounds moved with the
    // share of the run they hit (a third from run to run on a busy host);
    // each cell's lower decile over the rounds is its time on the quieter
    // stretches of the run.
    let cell_ms: Vec<f64> = samples.iter().map(|s| percentile(s, 10.0)).collect();
    let cells = cell_ms.len() as f64;
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", crate::peak_rss_mb());
    out.set(
        "throughput_per_s",
        cells * 1e3 / cell_ms.iter().sum::<f64>(),
    );
    out.set("op_p50_ms", median(&cell_ms));
    out.set("op_tail_ms", cell_ms.iter().copied().fold(0.0, f64::max));
    out.stamp.extend([
        ("rounds", rounds.to_string()),
        (
            "cell_time",
            "\"CPU time, lower decile over rounds\"".to_string(),
        ),
        (
            "wall_cells_per_s",
            format!("{:.3}", rounds as f64 * cells / wall),
        ),
    ]);
    out
}

/// `trace_rounds` grids run cell by cell, untraced and then traced; the
/// cells' simulated outcomes must be bit-identical.
fn run_traced(p: &Params, machine: &MachineConfig, out: &mut Outcome) {
    let pass = |tr: &Tracer| -> Vec<Cell> {
        (0..p.trace_rounds)
            .flat_map(|_| grid())
            .map(|(prog, scheme)| run_cell(p, prog, scheme, machine, tr))
            .collect()
    };
    let t = Instant::now();
    let plain = pass(&Tracer::new(false));
    let untraced_ns = t.elapsed().as_nanos() as u64;

    let tr = Tracer::new(true);
    let t = Instant::now();
    let traced = pass(&tr);
    let traced_ns = t.elapsed().as_nanos() as u64;

    out.check(plain == traced, || {
        "traced cells differ from untraced cells".to_string()
    });
    for (round, cells) in traced
        .chunks(PROGRAMS.len() * Scheme::FIGURE7.len())
        .enumerate()
    {
        check_checksums(cells, round as u64, out);
    }
    let s = tr.summary(traced_ns);
    let fallback: u64 = traced.iter().map(|c| c.fallback_allocations).sum();
    out.set("heap.fallback_allocations", fallback as f64);
    crate::set_pass_metrics(out, &s, untraced_ns);
    out.chrome_trace = Some(tr.chrome_json());
    out.stamp.push(("trace_rounds", p.trace_rounds.to_string()));
}
