//! Figure 5 — the binary tree microbenchmark (paper Section 4.2).
//!
//! Measures the average search time of a large balanced binary search
//! tree under four layouts, as a function of the number of repeated
//! random searches:
//!
//! * randomly clustered binary tree,
//! * depth-first clustered binary tree,
//! * in-core B-tree (colored),
//! * transparent C-tree (`ccmorph`: subtree clustering + coloring).
//!
//! The paper's tree has 2,097,151 keys and consumes 40 MB — forty times
//! the E5000's 1 MB L2 — and is searched up to one million times. Times
//! come from the Section 5.1 latency formula over the simulated cache's
//! measured behaviour (plus TLB penalties), converted to microseconds at
//! the machine's 167 MHz clock.
//!
//! The four layouts are independent simulation cells, so they fan out
//! across the [`Sweep`] runner; every cell rebuilds its layout from
//! scratch (replaying the same deterministic mutation sequence the serial
//! version applied), so the figure is byte-identical no matter how many
//! workers run it.
//!
//! Set `CC_SWEEP_CHECKPOINT=<path>` to run the sweep crash-durably:
//! completed cells are appended to the file as they finish, and a rerun
//! (same key count) resumes from it instead of recomputing. With the
//! variable unset, nothing touches the filesystem and the figure is
//! byte-identical to every prior release.

use cc_audit::{audit, AffinityKind, AuditConfig, AuditInput, Report, Rule};
use cc_bench::checkpoint::{self, SEP};
use cc_bench::header;
use cc_bench::replay::{build_bst, SearchReplay, TreeSpec};
use cc_core::ccmorph::CcMorphParams;
use cc_heap::VirtualSpace;
use cc_sim::{MachineConfig, TraceRecorder};
use cc_sweep::{Sweep, TraceKey, TraceStore};
use cc_trees::bst::Bst;
use cc_trees::btree::BTree;
use cc_trees::BST_NODE_BYTES;

/// Search-count checkpoints (the x-axis decades).
const CHECKPOINTS: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

fn keys(n: u64) -> u64 {
    n // keys are 2*i for i in 0..n; searches draw uniformly
}

/// Runs 1M random searches against `search` through the set-sharded
/// replayer, reporting average microseconds per search at each
/// checkpoint. Simulated times are bit-identical to the original serial
/// [`cc_sim::MemorySink`] loop for every shard count (the sharded
/// differential suite enforces this), so the figure does not depend on
/// `env`'s geometry. With `CC_TRACE_CACHE` set, recorded trace segments
/// come back from the content-addressed store on reruns and the search
/// closure is never invoked.
fn measure<F>(env: &CellEnv, key: TraceKey, mut search: F) -> Vec<f64>
where
    F: FnMut(u64, &mut TraceRecorder),
{
    let mut replay = SearchReplay::new(
        env.machine,
        keys(env.n),
        0x51EE7,
        env.shards,
        env.store.as_ref(),
        key,
    );
    let mut out = Vec::new();
    for &cp in &CHECKPOINTS {
        replay.advance_to(cp, &mut search);
        out.push(replay.avg_us_per_search());
    }
    assert_eq!(
        replay.degradation(),
        cc_sim::ShardDegradation::default(),
        "fig5 replay degraded; the figure would hide a faulty engine"
    );
    out
}

/// Everything a fig5 cell needs besides its layout: the machine, tree
/// size, intra-cell shard count, and (when `CC_TRACE_CACHE` is set) the
/// disk-backed trace store.
struct CellEnv {
    machine: MachineConfig,
    n: u64,
    shards: usize,
    store: Option<TraceStore>,
}

/// Audits one layout, appending its one-line verdict to the cell's log;
/// returns the report so `main` can enforce the preconditions the figure
/// depends on.
fn audit_layout(name: &str, input: &AuditInput, log: &mut String) -> Report {
    let report = audit(input, &AuditConfig::default());
    let score = report
        .stats
        .colocation_score
        .map_or_else(|| "  n/a ".to_string(), |s| format!("{s:.4}"));
    log.push_str(&format!(
        "  audit {name:<24} colocation {score}  {} error(s), {} finding(s)\n",
        report.error_count(),
        report.findings.len(),
    ));
    report
}

/// The four fig5 layouts, as independent sweep cells.
#[derive(Clone, Copy)]
enum Layout {
    RandomClustered,
    DepthFirstClustered,
    ColoredBTree,
    TransparentCTree,
}

/// The audit facts `main` asserts on, flattened out of a [`Report`] so a
/// cell can round-trip through a sweep checkpoint file.
struct AuditSummary {
    color01_findings: usize,
    colocation_score: Option<f64>,
    text: String,
}

impl AuditSummary {
    fn of(report: &Report) -> Self {
        AuditSummary {
            color01_findings: report.of_rule(Rule::Color01).len(),
            colocation_score: report.stats.colocation_score,
            text: report.to_text(),
        }
    }
}

/// One computed cell: its row label, checkpoint times, the progress/audit
/// lines the serial version would have streamed to stderr, and the audit
/// summary (where the layout has one).
struct Cell {
    label: &'static str,
    times: Vec<f64>,
    log: String,
    audit: Option<AuditSummary>,
}

/// Renders a cell for the checkpoint file; times go as hex bit patterns so
/// a resumed figure is bit-identical to an uninterrupted one.
fn encode_cell(cell: &Cell) -> String {
    let (flag, errs, score, text) = match &cell.audit {
        Some(a) => (
            "1",
            a.color01_findings.to_string(),
            checkpoint::encode_opt_f64(a.colocation_score),
            a.text.clone(),
        ),
        None => ("-", String::new(), String::new(), String::new()),
    };
    [
        cell.label.to_string(),
        checkpoint::encode_f64s(&cell.times),
        cell.log.clone(),
        flag.to_string(),
        errs,
        score,
        text,
    ]
    .join(&SEP.to_string())
}

fn decode_cell(s: &str) -> Option<Cell> {
    let mut fields = s.splitn(7, SEP);
    let label = match fields.next()? {
        "random clustered" => "random clustered",
        "depth-first clustered" => "depth-first clustered",
        "in-core B-tree" => "in-core B-tree",
        "transparent C-tree" => "transparent C-tree",
        _ => return None,
    };
    let times = checkpoint::decode_f64s(fields.next()?)?;
    let log = fields.next()?.to_string();
    let flag = fields.next()?;
    let errs = fields.next()?;
    let score = fields.next()?;
    let text = fields.next()?;
    let audit = match flag {
        "1" => Some(AuditSummary {
            color01_findings: errs.parse().ok()?,
            colocation_score: checkpoint::decode_opt_f64(score)?,
            text: text.to_string(),
        }),
        "-" => None,
        _ => return None,
    };
    Some(Cell {
        label,
        times,
        log,
        audit,
    })
}

fn tree_input(machine: &MachineConfig, t: &Bst) -> AuditInput {
    AuditInput::from_tree_addrs(
        t,
        |id| Some(t.addr_of(id)),
        BST_NODE_BYTES,
        machine.l2,
        machine.page_bytes,
        None,
        AffinityKind::ParentChild,
    )
}

/// The shared layout recipes (the same [`TreeSpec`]s the engine benchmark
/// records): fig5's trees all start from the random scatter.
const SPEC_RANDOM: TreeSpec = TreeSpec {
    randomize: Some(0xA11),
    depth_first: false,
    morph: false,
};
const SPEC_DFS: TreeSpec = TreeSpec {
    randomize: Some(0xA11),
    depth_first: true,
    morph: false,
};
const SPEC_CTREE: TreeSpec = TreeSpec {
    randomize: Some(0xA11),
    depth_first: true,
    morph: true,
};

/// Builds the cell's layout by replaying the exact mutation sequence the
/// serial figure applied to its one shared tree (random, then depth-first
/// on top of it, then morph on top of that), audits it, and measures it.
fn run_cell(env: &CellEnv, layout: Layout) -> Cell {
    let machine = &env.machine;
    let n = env.n;
    let base = TraceKey::new("fig5");
    match layout {
        Layout::RandomClustered => {
            let mut log = String::from("building random-clustered tree…\n");
            let t = build_bst(machine, n, SPEC_RANDOM);
            let report = audit_layout("random clustered", &tree_input(machine, &t), &mut log);
            let times = measure(env, SPEC_RANDOM.fold_key(base), |k, buf| {
                t.search(k, buf, false);
            });
            Cell {
                label: "random clustered",
                times,
                log,
                audit: Some(AuditSummary::of(&report)),
            }
        }
        Layout::DepthFirstClustered => {
            let mut log = String::from("building depth-first clustered tree…\n");
            let t = build_bst(machine, n, SPEC_DFS);
            audit_layout("depth-first clustered", &tree_input(machine, &t), &mut log);
            let times = measure(env, SPEC_DFS.fold_key(base), |k, buf| {
                t.search(k, buf, false);
            });
            Cell {
                label: "depth-first clustered",
                times,
                log,
                audit: None,
            }
        }
        Layout::ColoredBTree => {
            let log = String::from("building colored B-tree…\n");
            let ks: Vec<u64> = (0..n).map(|i| 2 * i).collect();
            let mut bt = BTree::build_from_sorted(&ks, machine.l2.block_bytes(), 0.7);
            let mut vs = VirtualSpace::new(machine.page_bytes);
            bt.color(&mut vs, machine, 0.5);
            let times = measure(env, TraceKey::new("fig5-btree"), |k, buf| {
                bt.search(k, buf);
            });
            Cell {
                label: "in-core B-tree",
                times,
                log,
                audit: None,
            }
        }
        Layout::TransparentCTree => {
            let mut log = String::from("building transparent C-tree…\n");
            // The first two layout steps are the shared recipe; the morph
            // itself stays inline because the audit needs its `Layout`.
            let mut t = build_bst(machine, n, SPEC_DFS);
            let mut vs2 = VirtualSpace::new(machine.page_bytes);
            let params = CcMorphParams::clustering_and_coloring(machine, BST_NODE_BYTES);
            let layout = t.morph(&mut vs2, &params);
            let report = audit_layout(
                "transparent C-tree",
                &AuditInput::from_tree_layout(&t, &layout, &params),
                &mut log,
            );
            let times = measure(env, SPEC_CTREE.fold_key(base), |k, buf| {
                t.search(k, buf, false);
            });
            Cell {
                label: "transparent C-tree",
                times,
                log,
                audit: Some(AuditSummary::of(&report)),
            }
        }
    }
}

fn main() {
    let machine = MachineConfig::ultrasparc_e5000();
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or((1 << 21) - 1);

    header(
        "Figure 5: binary tree microbenchmark",
        &format!(
            "{n} keys, {} of tree data ({}x the 1 MB L2); avg search time vs repeated searches",
            cc_bench::human_bytes(n * BST_NODE_BYTES),
            n * BST_NODE_BYTES / (1 << 20),
        ),
    );

    let grid = [
        Layout::RandomClustered,
        Layout::DepthFirstClustered,
        Layout::ColoredBTree,
        Layout::TransparentCTree,
    ];
    // When cells are scarcer than cores, each cell's replay shards its
    // trace across the idle ones; the disk trace store only engages when
    // the operator opts in with CC_TRACE_CACHE.
    let disk_store = TraceStore::from_env();
    let env = CellEnv {
        machine,
        n,
        shards: Sweep::new().intra_cell_shards(grid.len()),
        store: disk_store.has_disk().then_some(disk_store),
    };
    let run = |_: usize, _attempt: u32, &layout: &Layout| run_cell(&env, layout);
    let cells: Vec<Cell> = checkpoint::run_grid(
        "fig5",
        &format!("fig5-n{n}"),
        &grid,
        run,
        encode_cell,
        decode_cell,
    );
    for cell in &cells {
        eprint!("{}", cell.log);
    }

    let random_audit = cells[0].audit.as_ref().expect("random cell audits");
    let ctree_audit = cells[3].audit.as_ref().expect("C-tree cell audits");
    // Preconditions for the figure's claims: the C-tree's coloring must
    // hold (no hot node in a cold set), and its clustering must beat the
    // random baseline. No such guarantee against depth-first order: with
    // an odd number of tree levels (the paper's 2^21 - 1 keys) subtree
    // clustering leaves every leaf in a singleton cluster, capping the
    // raw pair count at ~0.5 while depth-first order scores ~0.66 — yet
    // the C-tree still wins on time because its co-located pairs sit on
    // every search path, a distinction the unweighted score cannot see.
    assert!(
        ctree_audit.color01_findings == 0,
        "C-tree coloring is broken; Figure 5 would measure a bogus layout:\n{}",
        ctree_audit.text
    );
    let score = |r: &AuditSummary| r.colocation_score.unwrap_or(0.0);
    assert!(
        score(ctree_audit) >= score(random_audit) - 1e-9,
        "C-tree co-locates worse than the random baseline"
    );

    println!("\navg search time (microseconds) after N random searches:");
    print!("{:<24}", "layout \\ searches");
    for cp in CHECKPOINTS {
        print!("{cp:>10}");
    }
    println!();
    for cell in &cells {
        print!("{:<24}", cell.label);
        for t in &cell.times {
            print!("{t:>10.2}");
        }
        println!();
    }

    let at = |i: usize| cells[i].times.last().copied().unwrap_or(f64::NAN);
    let (rand, dfs, btree, ctree) = (at(0), at(1), at(2), at(3));
    println!("\nsteady-state ratios (paper's claims in parentheses):");
    println!(
        "  C-tree vs random clustered:      {:.2}x  (paper: 4-5x)",
        rand / ctree
    );
    println!(
        "  C-tree vs depth-first clustered: {:.2}x  (paper: 2.5-3x)",
        dfs / ctree
    );
    println!(
        "  C-tree vs B-tree:                {:.2}x  (paper: ~1.5x)",
        btree / ctree
    );
    let mut reg = cc_obs::MetricsRegistry::new();
    reg.set("fig5.cells", cells.len() as u64);
    reg.set("fig5.keys", n);
    if let Some(store) = &env.store {
        cc_sweep::obs::export_store(&mut reg, "fig5.trace_store", &store.counters());
    }
    cc_bench::obs::absorb(&reg);
    cc_bench::obs::write_obs_out();
}
