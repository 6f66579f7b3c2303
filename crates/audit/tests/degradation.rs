//! The degradation oracle: graceful degradation may be *lossy*, but it
//! may never be *silent*. Because the heap snapshot records every
//! allocation's **intended** hint (not the tampered one a fault schedule
//! substituted for placement), the auditor judges the layout against what
//! the program asked for: a degraded allocation either still passes the
//! clustering rules or shows up as a lower co-location score / a
//! CLUSTER-01 finding. On the coloring side, `ccmorph` cannot produce an
//! unflagged bad layout at all — corrupt input is rejected with a typed
//! error before any addresses exist.

use cc_audit::{audit, AuditConfig, AuditInput, Report, Rule};
use cc_core::topology::Topology;
use cc_core::{try_ccmorph, CcMorphParams};
use cc_fault::FaultPlan;
use cc_heap::{Allocator, CcMalloc, HeapFaultSchedule, HeapStats, Strategy, VirtualSpace};
use cc_sim::MachineConfig;

/// A hinted chain churn — each allocation hints at its predecessor, with
/// periodic frees so denied pages have something to scavenge — audited
/// from its final snapshot.
fn audited_chain(machine: &MachineConfig, plan: Option<&FaultPlan>) -> (Report, HeapStats) {
    let mut heap = CcMalloc::with_geometry(64, machine.page_bytes, Strategy::Closest);
    if let Some(p) = plan {
        heap.set_fault_schedule(p.heap_schedule());
    }
    let mut prev = None;
    let mut live = Vec::new();
    for i in 0..48u64 {
        if let Ok(addr) = heap.try_alloc_hint(28, prev) {
            prev = Some(addr);
            live.push(addr);
        }
        if i % 11 == 10 && live.len() > 4 {
            let addr = live.remove(0);
            heap.try_free(addr).expect("freeing a live address");
        }
    }
    let input = AuditInput::from_snapshot(&heap.snapshot(), machine.l2, machine.page_bytes, None);
    (audit(&input, &AuditConfig::default()), *heap.stats())
}

fn score(report: &Report) -> f64 {
    report.stats.colocation_score.unwrap_or(0.0)
}

#[test]
fn empty_plan_audits_identically() {
    let machine = MachineConfig::test_tiny();
    let (clean, clean_stats) = audited_chain(&machine, None);
    let empty = FaultPlan::new(0x0DDE);
    assert!(empty.is_empty());
    let (gated, gated_stats) = audited_chain(&machine, Some(&empty));
    assert_eq!(clean_stats, gated_stats);
    assert_eq!(score(&clean), score(&gated));
    assert_eq!(clean.findings.len(), gated.findings.len());
}

#[test]
fn seeded_degradation_drops_the_score() {
    let machine = MachineConfig::test_tiny();
    let (clean, clean_stats) = audited_chain(&machine, None);
    let clean_score = score(&clean);

    let mut seeds_with_degradation = 0;
    for seed in 0..12u64 {
        let plan = FaultPlan::new(seed).heap_faults(8, 40);
        let (faulted, stats) = audited_chain(&machine, Some(&plan));
        if stats == clean_stats {
            assert_eq!(score(&faulted), clean_score);
            continue;
        }
        seeds_with_degradation += 1;
        assert!(
            stats.degraded_hints() > clean_stats.degraded_hints(),
            "seed {seed:#x}: schedule fired but degraded nothing: {stats:?}"
        );
        // The tampered placements split pairs the clean layout co-located;
        // the score judges against recorded intent, so it must drop.
        assert!(
            score(&faulted) < clean_score - 1e-12,
            "seed {seed:#x}: {} degraded placement(s) left the score at {} (clean {clean_score})",
            stats.degraded_hints(),
            score(&faulted),
        );
    }
    assert!(
        seeds_with_degradation >= 8,
        "only {seeds_with_degradation} of 12 seeds degraded anything — the oracle is vacuous"
    );
}

/// Two chains allocated in alternation — the allocation order the paper's
/// hints exist to overcome. Under `NewBlock` each chain gets its own
/// reserved cache blocks, so the *hinted* layout passes CLUSTER-01 even
/// though some placements inevitably degrade at page boundaries. Dropping
/// every hint collapses the layout back to allocation order (each block
/// holds one element of each chain), and the auditor must say so.
fn interleaved_chains(
    machine: &MachineConfig,
    schedule: Option<HeapFaultSchedule>,
) -> (Report, HeapStats) {
    let mut heap = CcMalloc::with_geometry(64, machine.page_bytes, Strategy::NewBlock);
    if let Some(s) = schedule {
        heap.set_fault_schedule(s);
    }
    let mut prev = [None, None];
    for i in 0..48usize {
        let c = i % 2;
        let addr = heap
            .try_alloc_hint(20, prev[c])
            .expect("no denials are armed");
        prev[c] = Some(addr);
    }
    let input = AuditInput::from_snapshot(&heap.snapshot(), machine.l2, machine.page_bytes, None);
    (audit(&input, &AuditConfig::default()), *heap.stats())
}

#[test]
fn dropped_hints_on_interleaved_chains_are_flagged() {
    let machine = MachineConfig::test_tiny();

    // Pass side: the hinted run degrades some placements (page-boundary
    // fallbacks are part of normal operation) yet still audits clean —
    // degradation the layout absorbs needs no flag.
    let (clean, clean_stats) = interleaved_chains(&machine, None);
    assert!(clean_stats.degraded_hints() > 0);
    assert!(
        clean.of_rule(Rule::Cluster01).is_empty(),
        "the hinted interleaved layout should pass CLUSTER-01:\n{}",
        clean.to_text()
    );

    // Flag side: dropping every hint degrades every placement, and the
    // auditor — judging against the hints the snapshot recorded — must
    // report the collapse rather than stay silent.
    let drop_all = HeapFaultSchedule {
        drop_hint: (0..48).collect(),
        ..HeapFaultSchedule::empty()
    };
    let (dropped, dropped_stats) = interleaved_chains(&machine, Some(drop_all));
    assert_eq!(
        dropped_stats.degraded_hints(),
        46,
        "every hinted allocation should have degraded"
    );
    assert!(score(&dropped) < score(&clean) - 1e-12);
    let flagged = dropped.of_rule(Rule::Cluster01);
    assert!(
        !flagged.is_empty(),
        "46 degraded placements collapsed the layout (score {}) without a CLUSTER-01 finding",
        score(&dropped),
    );
}

/// A small adjacency-list tree for the `ccmorph` half of the oracle.
struct VecTree {
    kids: Vec<Vec<usize>>,
}

impl Topology for VecTree {
    fn node_count(&self) -> usize {
        self.kids.len()
    }
    fn root(&self) -> Option<usize> {
        (!self.kids.is_empty()).then_some(0)
    }
    fn max_kids(&self) -> usize {
        2
    }
    fn child(&self, node: usize, i: usize) -> Option<usize> {
        self.kids[node].get(i).copied()
    }
}

fn binary_tree(n: usize) -> VecTree {
    let kids = (0..n)
        .map(|i| {
            [2 * i + 1, 2 * i + 2]
                .into_iter()
                .filter(|&c| c < n)
                .collect()
        })
        .collect();
    VecTree { kids }
}

#[test]
fn ccmorph_layouts_pass_color01_or_never_exist() {
    let machine = MachineConfig::test_tiny();
    let params = CcMorphParams::clustering_and_coloring(&machine, 16);

    // The succeed side: a valid tree morphs, and the layout it produces
    // audits clean on the coloring rule the figure binaries gate on.
    let tree = binary_tree(255);
    let mut vspace = VirtualSpace::new(machine.page_bytes);
    let layout = try_ccmorph(&tree, &mut vspace, &params).expect("valid tree morphs");
    let report = audit(
        &AuditInput::from_tree_layout(&tree, &layout, &params),
        &AuditConfig::default(),
    );
    assert!(
        report.of_rule(Rule::Color01).is_empty(),
        "a successful morph produced a layout COLOR-01 rejects:\n{}",
        report.to_text()
    );

    // The fail side: corrupt topology cannot degrade into an unflagged
    // layout — `try_ccmorph` refuses it before any addresses exist, so
    // there is nothing for the auditor to miss.
    let mut cyclic = binary_tree(255);
    cyclic.kids[200] = vec![0];
    let before = vspace.span_bytes();
    assert!(try_ccmorph(&cyclic, &mut vspace, &params).is_err());
    assert_eq!(
        vspace.span_bytes(),
        before,
        "a rejected morph must leave the address space untouched"
    );
}
