//! Figure 7 — cache-conscious data placement on the Olden benchmarks
//! (paper Section 4.4), plus the Section 4.4 memory-overhead numbers.
//!
//! Four benchmarks × eight schemes, each bar normalized to the
//! benchmark's base run and split into busy / instruction-stall /
//! data-stall / store-stall components using the paper's cycle
//! attribution rule on the Table 1 machine.
//!
//! The 32 (benchmark × scheme) cells are independent simulations, so they
//! fan out across the [`cc_sweep::Sweep`] runner; results come back in grid
//! order, which keeps the figure byte-identical to a serial run. Each cell also
//! audits its own final heap (for the hint-taking schemes), so a cell's
//! result is a handful of numbers and strings rather than a full layout
//! snapshot — small enough to round-trip a sweep checkpoint file.
//!
//! Set `CC_SWEEP_CHECKPOINT=<path>` to run the sweep crash-durably:
//! completed cells are appended to the file as they finish, and a rerun
//! (same scale) resumes from it instead of recomputing. With the variable
//! unset, nothing touches the filesystem and the figure is byte-identical
//! to every prior release.

use cc_audit::{audit, AuditConfig, AuditInput};
use cc_bench::checkpoint::{self, SEP};
use cc_bench::{header, human_bytes, print_breakdown_row};
use cc_heap::HeapStats;
use cc_olden::{health, mst, perimeter, treeadd, RunResult, Scheme};
use cc_sim::{Breakdown, MachineConfig};

/// The audit verdict of one hinted scheme, flattened out of the
/// [`cc_audit::Report`] so a cell can round-trip a checkpoint file.
struct AuditCell {
    errors: usize,
    findings: usize,
    score: Option<f64>,
    text: String,
}

/// One (benchmark × scheme) cell, reduced to exactly what the printed
/// figure consumes: the stderr progress line, the cycle breakdown, the
/// checksum, the heap footprint (Section 4.4 overheads), and — for
/// hint-taking schemes — the layout audit computed over the snapshot
/// while it was still in hand.
struct Cell {
    log: String,
    breakdown: Breakdown,
    checksum: u64,
    footprint: u64,
    audit: Option<AuditCell>,
}

/// Reduces a [`RunResult`] to its printable facts, auditing the final
/// heap layout where the scheme took placement hints: the figure's
/// FA/CA/NA bars are only meaningful if the hints actually co-located
/// what they promised to.
fn to_cell(machine: &MachineConfig, log: String, r: RunResult) -> Cell {
    let audit_cell = r.scheme.uses_hints().then(|| {
        let input = AuditInput::from_snapshot(&r.snapshot, machine.l2, machine.page_bytes, None);
        let report = audit(&input, &AuditConfig::default());
        AuditCell {
            errors: report.error_count(),
            findings: report.findings.len(),
            score: report.stats.colocation_score,
            text: report.to_text(),
        }
    });
    Cell {
        log,
        breakdown: r.breakdown,
        checksum: r.checksum,
        footprint: r.heap.footprint_bytes(),
        audit: audit_cell,
    }
}

/// Renders a cell for the checkpoint file; the audit score goes as a hex
/// bit pattern so a resumed figure is bit-identical to an uninterrupted
/// one.
fn encode_cell(c: &Cell) -> String {
    let (flag, errors, findings, score, text) = match &c.audit {
        Some(a) => (
            "1",
            a.errors.to_string(),
            a.findings.to_string(),
            checkpoint::encode_opt_f64(a.score),
            a.text.clone(),
        ),
        None => (
            "-",
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ),
    };
    [
        c.log.clone(),
        c.breakdown.busy.to_string(),
        c.breakdown.inst_stall.to_string(),
        c.breakdown.data_stall.to_string(),
        c.breakdown.store_stall.to_string(),
        c.checksum.to_string(),
        c.footprint.to_string(),
        flag.to_string(),
        errors,
        findings,
        score,
        text,
    ]
    .join(&SEP.to_string())
}

fn decode_cell(s: &str) -> Option<Cell> {
    let mut f = s.splitn(12, SEP);
    let log = f.next()?.to_string();
    let busy = f.next()?.parse().ok()?;
    let inst_stall = f.next()?.parse().ok()?;
    let data_stall = f.next()?.parse().ok()?;
    let store_stall = f.next()?.parse().ok()?;
    let checksum = f.next()?.parse().ok()?;
    let footprint = f.next()?.parse().ok()?;
    let flag = f.next()?;
    let errors = f.next()?;
    let findings = f.next()?;
    let score = f.next()?;
    let text = f.next()?;
    let audit = match flag {
        "1" => Some(AuditCell {
            errors: errors.parse().ok()?,
            findings: findings.parse().ok()?,
            score: checkpoint::decode_opt_f64(score)?,
            text: text.to_string(),
        }),
        "-" => None,
        _ => return None,
    };
    Some(Cell {
        log,
        breakdown: Breakdown {
            busy,
            inst_stall,
            data_stall,
            store_stall,
        },
        checksum,
        footprint,
        audit,
    })
}

/// Prints one benchmark's normalized bars; `cells` is in
/// [`Scheme::FIGURE7`] order, so `cells[0]` is the base run.
fn print_group(name: &str, cells: &[Cell]) {
    let base = &cells[0];
    println!("\n{name}:");
    for (s, c) in Scheme::FIGURE7.iter().zip(cells) {
        print_breakdown_row(s.label(), &c.breakdown, &base.breakdown);
        assert_eq!(c.checksum, base.checksum, "scheme changed the answer!");
    }
}

fn overhead_line(name: &str, cells: &[Cell]) {
    let by = |s: Scheme| {
        Scheme::FIGURE7
            .iter()
            .position(|&x| x == s)
            .map(|i| cells[i].footprint)
            .expect("scheme present")
    };
    let nb = by(Scheme::CcMallocNewBlock);
    let ca = by(Scheme::CcMallocClosest);
    let fa = by(Scheme::CcMallocFirstFit);
    println!(
        "  {name:<10} new-block {:>9}  vs closest {:>+6.1}%  vs first-fit {:>+6.1}%",
        human_bytes(nb),
        HeapStats::overhead_pct(nb, ca),
        HeapStats::overhead_pct(nb, fa),
    );
}

/// Prints the per-scheme audit verdicts the cells computed over their
/// final heaps (present exactly for the hint-taking schemes).
fn audit_lines(name: &str, cells: &[Cell]) {
    for (s, c) in Scheme::FIGURE7.iter().zip(cells) {
        let Some(a) = &c.audit else { continue };
        let score = a
            .score
            .map_or_else(|| " n/a ".to_string(), |s| format!("{s:.3}"));
        println!(
            "  {name:<10} {:<3} colocation {score}  {} error(s), {} finding(s)",
            s.label(),
            a.errors,
            a.findings,
        );
    }
}

fn main() {
    let machine = MachineConfig::table1();
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    header(
        "Figure 7: performance of cache-conscious data placement (Olden)",
        "normalized execution time (base = 100); bars split into busy/inst/data/store",
    );
    println!(
        "schemes: B=base HP=hw-prefetch SP=sw-prefetch FA/CA/NA=ccmalloc \
         first-fit/closest/new-block CI=ccmorph-cluster CI+Col=+coloring"
    );

    // Benchmark runners, sized per Table 2 (see EXPERIMENTS.md for the
    // treeadd steady-state and perimeter image-scale notes).
    type Runner<'a> = Box<dyn Fn(Scheme) -> RunResult + Sync + 'a>;
    let benches: [(&str, Runner); 4] = [
        (
            "treeadd",
            Box::new(|s| treeadd::run_iters(s, 262_144 / scale.max(1), 4, &machine)),
        ),
        (
            "health",
            Box::new(|s| health::run(s, 3, 500 / scale.clamp(1, 8), &machine)),
        ),
        (
            "mst",
            Box::new(|s| mst::run(s, (512 / scale.max(1)) as usize, 16, &machine)),
        ),
        (
            "perimeter",
            Box::new(|s| perimeter::run(s, (1024 / scale.max(1)) as u32, &machine)),
        ),
    ];

    // The full (benchmark × scheme) grid, in figure order.
    let grid: Vec<(usize, Scheme)> = (0..benches.len())
        .flat_map(|b| Scheme::FIGURE7.iter().map(move |&s| (b, s)))
        .collect();
    let run = |_: usize, _attempt: u32, &(b, s): &(usize, Scheme)| {
        let (name, runner) = &benches[b];
        let log = format!("  {name}: {}\n", s.label());
        to_cell(&machine, log, runner(s))
    };
    // Unlike fig5, these cells drive the stateful per-cycle [`Pipeline`],
    // whose stall attribution depends on global in-order event history —
    // there is no per-set decomposition to shard, so cells stay serial
    // inside and parallel across (see DESIGN.md §10).
    let cells: Vec<Cell> = checkpoint::run_grid(
        "fig7",
        &format!("fig7-s{scale}"),
        &grid,
        run,
        encode_cell,
        decode_cell,
    );
    for c in &cells {
        eprint!("{}", c.log);
    }
    let by_bench: Vec<&[Cell]> = cells.chunks_exact(Scheme::FIGURE7.len()).collect();
    for ((name, _), cells) in benches.iter().zip(&by_bench) {
        print_group(name, cells);
    }
    let (ta, he, ms, pe) = (by_bench[0], by_bench[1], by_bench[2], by_bench[3]);

    header(
        "Section 4.4: ccmalloc memory overheads",
        "paper: new-block costs +12% (treeadd), +30% (perimeter), +7% (health), +3% (mst)",
    );
    overhead_line("treeadd", ta);
    overhead_line("health", he);
    overhead_line("mst", ms);
    overhead_line("perimeter", pe);

    header(
        "Layout audit: did the ccmalloc hints deliver?",
        "cc-audit over each hinted scheme's final heap (score = co-located / achievable pairs)",
    );
    audit_lines("treeadd", ta);
    audit_lines("health", he);
    audit_lines("mst", ms);
    audit_lines("perimeter", pe);

    // Precondition with teeth where the paper guarantees one: treeadd
    // allocates a tree depth-first with parent hints, the workload
    // ccmalloc is built for, so its new-block heap must audit clean. The
    // other benchmarks legitimately fall short (short mst chains, mixed
    // health lifetimes) — exactly why Section 4.4's gains vary.
    let na = Scheme::FIGURE7
        .iter()
        .position(|&s| s == Scheme::CcMallocNewBlock)
        .expect("NA scheme present");
    let ta_na = ta[na].audit.as_ref().expect("NA scheme audits");
    assert_eq!(
        ta_na.errors, 0,
        "treeadd's hinted new-block heap violates the layout it promised:\n{}",
        ta_na.text
    );
    cc_bench::obs::write_obs_out();
}
