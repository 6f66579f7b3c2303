//! The field-layout sweep: AoS baseline vs the three `cc-core` field
//! transforms (reorder, hot/cold split, SoA) on the fat-node tree, in
//! the style of the paper's Figure 5 comparison.
//!
//! Two workloads bracket the design space:
//!
//! * **search** — random BST searches over [`FatBst`]: a pointer chase
//!   that reads 12 hot bytes out of every 64-byte node it visits. The
//!   hot/cold split packs those bytes four nodes to a block and lets
//!   `ccmorph` cluster the halves, so this is where splitting pays.
//! * **scan** — an arena-order sweep of every node's key: the array-ish
//!   access pattern where structure-of-arrays packs eight keys into the
//!   block that held one — the `field_layout_speedup_vs_aos` headline.
//!
//! Both workloads are *simulated* microseconds (the Section 5.1 cost
//! formula), so every number here is deterministic and the sweep can be
//! gated in CI.
//!
//! The module also owns [`field_map_for`], the bridge from a
//! [`FieldLayout`] to the observability layer's [`FieldMap`] — the piece
//! that turns "the L1 missed at 0x10a34" into "the `key` field missed".

use cc_core::rng::SplitMix64;
use cc_core::{
    try_reorder_fields, try_soa_convert, try_split_hot_cold, FieldLayout, FieldLayoutParams,
    FieldTransform,
};
use cc_heap::VirtualSpace;
use cc_obs::{FieldMap, Level, RegionMap};
use cc_sim::batch::BatchSink;
use cc_sim::event::EventSink;
use cc_sim::{Event, MachineConfig};
use cc_trees::fat::{fat_hot_spec, fat_schema, FatBst, FAT_NODE_BYTES};
use std::sync::Arc;

/// One cell of the field-layout sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldCase {
    /// Declaration-order array-of-structs — the untransformed baseline.
    Aos,
    /// `cc-core` hot-prefix reorder (hot fields packed first).
    Reorder,
    /// Hot/cold split: dense `ccmorph`ed hot halves, cold arena aside.
    HotCold,
    /// Structure-of-arrays conversion of the node pool.
    Soa,
}

impl FieldCase {
    /// All cells, AoS first (every ratio is reported against it).
    pub const ALL: [FieldCase; 4] = [
        FieldCase::Aos,
        FieldCase::Reorder,
        FieldCase::HotCold,
        FieldCase::Soa,
    ];

    /// Stable identifier used in JSON and trace keys.
    pub fn name(self) -> &'static str {
        match self {
            FieldCase::Aos => "aos",
            FieldCase::Reorder => "reorder",
            FieldCase::HotCold => "hot_cold",
            FieldCase::Soa => "soa",
        }
    }
}

/// Builds the fat tree under `case`'s layout, returning the tree and the
/// transform's [`FieldLayout`] (`None` for the AoS baseline, whose
/// geometry is the declaration order itself).
pub fn build_fat_case(
    machine: &MachineConfig,
    n: u64,
    case: FieldCase,
) -> (FatBst, Option<FieldLayout>) {
    let mut t = FatBst::build_complete(n);
    let layout = match case {
        FieldCase::Aos => None,
        transformed => {
            let params = FieldLayoutParams::new(machine);
            let mut vs = VirtualSpace::new(machine.page_bytes);
            let (schema, hot) = (fat_schema(), fat_hot_spec());
            let layout = match transformed {
                FieldCase::Reorder => try_reorder_fields(&t, &mut vs, &params, &schema, &hot),
                FieldCase::HotCold => try_split_hot_cold(&t, &mut vs, &params, &schema, &hot),
                FieldCase::Soa => try_soa_convert(&mut vs, &params, &schema, &hot, t.len()),
                FieldCase::Aos => unreachable!(),
            }
            .expect("fat schema and hot spec are well-formed");
            t.apply(&layout);
            Some(layout)
        }
    };
    (t, layout)
}

/// Builds the field-resolution map for `layout` over nodes `0..nodes`,
/// covering every field of every laid-out node (hot *and* cold halves,
/// every SoA array).
pub fn field_map_for(layout: &FieldLayout, nodes: usize) -> FieldMap {
    let mut map = FieldMap::new();
    match layout.transform() {
        FieldTransform::Soa => {
            let len = layout.len() as u64;
            for (name, base, elem) in layout.arrays() {
                let field = map.field_id(name);
                let table = map.add_table(&[(field, 0, elem)]);
                if len > 0 {
                    map.add_extent(base, base + len * elem, elem, table);
                }
            }
        }
        FieldTransform::Reorder => {
            // Every field lives at `object base + offset`; recover the
            // offsets from any laid-out node (hot_spans() would only
            // list the hot prefix).
            let Some(probe) = (0..nodes).find(|&n| layout.try_node_addr(n).is_some()) else {
                return map;
            };
            let base = layout.node_addr(probe);
            let spans: Vec<(cc_obs::FieldId, u64, u64)> = (0..layout.field_count())
                .map(|f| {
                    let id = map.field_id(layout.field_name(f));
                    (id, layout.field_addr(probe, f) - base, layout.field_size(f))
                })
                .collect();
            let table = map.add_table(&spans);
            add_strided_runs(
                &mut map,
                table,
                (0..nodes).filter_map(|n| layout.try_node_addr(n)),
                layout.hot_stride(),
            );
        }
        FieldTransform::HotCold => {
            let hot_spans: Vec<(cc_obs::FieldId, u64, u64)> = layout
                .hot_spans()
                .iter()
                .map(|&(name, off, size)| (map.field_id(name), off, size))
                .collect();
            let hot_table = map.add_table(&hot_spans);
            add_strided_runs(
                &mut map,
                hot_table,
                (0..nodes).filter_map(|n| layout.try_node_addr(n)),
                layout.hot_stride(),
            );
            // No direct cold-base accessor exists; recover each node's
            // cold base from any cold field's address minus its span
            // offset.
            let cold_spans = layout.cold_spans();
            let (anchor_name, anchor_off, _) = cold_spans[0];
            let anchor = layout
                .field_index(anchor_name)
                .expect("cold span names a schema field");
            let cold_table = {
                let spans: Vec<(cc_obs::FieldId, u64, u64)> = cold_spans
                    .iter()
                    .map(|&(name, off, size)| (map.field_id(name), off, size))
                    .collect();
                map.add_table(&spans)
            };
            add_strided_runs(
                &mut map,
                cold_table,
                (0..nodes).filter_map(|n| layout.try_field_addr(n, anchor).map(|a| a - anchor_off)),
                layout.cold_stride(),
            );
        }
    }
    map
}

/// Field map for the declaration-order AoS pool at `base` with `n`
/// 64-byte fat nodes — the baseline the transforms are compared against.
pub fn field_map_for_aos(base: u64, n: u64) -> FieldMap {
    let mut map = FieldMap::new();
    let mut spans = Vec::new();
    let mut off = 0u64;
    for f in fat_schema().fields() {
        let o = off.next_multiple_of(f.align);
        spans.push((map.field_id(&f.name), o, f.size));
        off = o + f.size;
    }
    let table = map.add_table(&spans);
    if n > 0 {
        map.add_extent(base, base + n * FAT_NODE_BYTES, FAT_NODE_BYTES, table);
    }
    map
}

/// Coalesces an address stream of fixed-stride objects into maximal
/// dense runs and registers each as one strided extent.
fn add_strided_runs(map: &mut FieldMap, table: u32, addrs: impl Iterator<Item = u64>, stride: u64) {
    let mut sorted: Vec<u64> = addrs.collect();
    sorted.sort_unstable();
    sorted.dedup();
    let mut run: Option<(u64, u64)> = None;
    for a in sorted {
        run = Some(match run {
            Some((start, end)) if a == end => (start, end + stride),
            Some((start, end)) => {
                map.add_extent(start, end, stride, table);
                (a, a + stride)
            }
            None => (a, a + stride),
        });
    }
    if let Some((start, end)) = run {
        map.add_extent(start, end, stride, table);
    }
}

/// One measured sweep cell.
#[derive(Clone, Debug)]
pub struct FieldCaseResult {
    /// Which layout.
    pub case: FieldCase,
    /// Simulated µs per random search (steady state).
    pub search_us: f64,
    /// Simulated µs per scanned element (steady state).
    pub scan_us: f64,
    /// L1 miss rate of the measured search phase, in percent.
    pub search_l1_miss_pct: f64,
    /// Stride of the hot placement: 64 for AoS and the hot-prefix
    /// reorder, 16 for the split's hot half, the 64-byte element total
    /// for SoA.
    pub hot_stride: u64,
    /// Per-field L1 miss shares of an attributed search phase,
    /// `(field, share)` hottest first — measured through the
    /// field-attribution funnel, not inferred from the schema.
    pub field_misses: Vec<(String, f64)>,
}

/// The whole sweep: every cell plus the workload coordinates.
#[derive(Clone, Debug)]
pub struct FieldSweep {
    /// Per-case results, in [`FieldCase::ALL`] order.
    pub results: Vec<FieldCaseResult>,
    /// Keys in the tree.
    pub n: u64,
    /// Measured searches per cell (after an equal warm-up).
    pub searches: u64,
    /// Full-pool scans per cell.
    pub scans: u64,
}

impl FieldSweep {
    /// The result for `case`.
    pub fn get(&self, case: FieldCase) -> &FieldCaseResult {
        self.results
            .iter()
            .find(|r| r.case == case)
            .expect("sweep ran every case")
    }

    /// Simulated search speedup of `case` over the AoS baseline.
    pub fn search_speedup(&self, case: FieldCase) -> f64 {
        self.get(FieldCase::Aos).search_us / self.get(case).search_us
    }

    /// Simulated scan speedup of `case` over the AoS baseline.
    pub fn scan_speedup(&self, case: FieldCase) -> f64 {
        self.get(FieldCase::Aos).scan_us / self.get(case).scan_us
    }

    /// The artifact headline: SoA over AoS on the array-ish scan — the
    /// workload/transform pair the paper prescribes for array-like
    /// pools, gated `> 1.0` in CI.
    pub fn headline_speedup(&self) -> f64 {
        self.scan_speedup(FieldCase::Soa)
    }
}

/// Measures one case: a search phase then a scan phase, both through a
/// [`BatchSink`] (bit-identical to the scalar reference; the engine
/// suite proves it), warm-up excluded via `reset_stats`. The search
/// sink runs with field attribution on, which leaves its statistics
/// bit-identical (the differential test below pins that); its profile
/// spans warm-up and measurement alike (`reset_stats` keeps it) and
/// gives the per-field miss shares.
pub fn run_field_case(
    machine: &MachineConfig,
    n: u64,
    case: FieldCase,
    warmup: u64,
    searches: u64,
    scans: u64,
) -> FieldCaseResult {
    let (t, layout) = build_fat_case(machine, n, case);
    let fmap = Arc::new(match &layout {
        Some(l) => field_map_for(l, t.len()),
        None => field_map_for_aos(aos_base(&t), n),
    });

    // Search phase, field funnel on.
    let mut sink = BatchSink::new(*machine);
    let mut regions = RegionMap::new();
    regions.register("fat", 0, u64::MAX);
    sink.enable_attribution(Arc::new(regions));
    sink.enable_field_attribution(fmap);
    let mut rng = SplitMix64::new(0xF1E1D);
    for _ in 0..warmup {
        t.search(2 * rng.below(n), &mut sink);
    }
    sink.flush();
    sink.reset_stats();
    for _ in 0..searches {
        t.search(2 * rng.below(n), &mut sink);
    }
    sink.flush();
    let search_cycles = sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0;
    let search_us = search_cycles / searches as f64 / machine.cycles_per_us();
    let search_l1_miss_pct = 100.0 * sink.system().l1_stats().miss_rate();

    // `field_weights` reports raw miss counts; normalize to shares and
    // order hottest first.
    let mut field_misses: Vec<(String, f64)> = sink
        .attribution()
        .map(|p| {
            let raw = p.field_weights(Level::L1);
            let total: f64 = raw.iter().map(|(_, w)| w).sum();
            raw.into_iter()
                .map(|(name, w)| (name.to_string(), if total > 0.0 { w / total } else { 0.0 }))
                .collect()
        })
        .unwrap_or_default();
    field_misses.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Scan phase.
    let mut sink = BatchSink::new(*machine);
    t.scan_keys(0, &mut sink); // warm
    sink.flush();
    sink.reset_stats();
    for _ in 0..scans {
        t.scan_keys(0, &mut sink);
    }
    sink.flush();
    let scan_cycles = sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0;
    let scan_us = scan_cycles / (scans * n) as f64 / machine.cycles_per_us();

    FieldCaseResult {
        case,
        search_us,
        scan_us,
        search_l1_miss_pct,
        hot_stride: layout.as_ref().map_or(FAT_NODE_BYTES, |l| l.hot_stride()),
        field_misses,
    }
}

/// One attributed leg of a field-transform comparison — the unit
/// `cc-serve`'s `morph` op runs twice (AoS baseline, then the requested
/// transform) when a request carries `transform`.
// The 24-byte Vec leads so the scalar tail packs into one line (SPAN-01,
// cc-lint's own suggestion for this struct).
#[derive(Clone, Debug)]
pub struct FieldLegStats {
    /// Per-field `(name, l1_misses, l2_misses)` in schema declaration
    /// order — every field present, cold fields report zero.
    pub fields: Vec<(String, u64, u64)>,
    /// Simulated µs per search over the whole leg.
    pub avg_us_per_search: f64,
    /// L1 demand hits.
    pub l1_hits: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L2 demand hits.
    pub l2_hits: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// Stride of the hot placement (see [`FieldCaseResult::hot_stride`]).
    pub hot_stride: u64,
}

/// Runs one field-attributed search leg: `searches` random searches on
/// the `case` layout of an `n`-key fat tree, attribution on throughout
/// (bit-identical to a plain run; the differential test pins it).
/// `check` is polled between ~4k-search chunks so a server deadline can
/// cancel cooperatively; its error aborts the leg.
pub fn run_field_leg<E>(
    machine: &MachineConfig,
    n: u64,
    case: FieldCase,
    searches: u64,
    seed: u64,
    mut check: impl FnMut() -> Result<(), E>,
) -> Result<FieldLegStats, E> {
    let (t, layout) = build_fat_case(machine, n, case);
    let fmap = Arc::new(match &layout {
        Some(l) => field_map_for(l, t.len()),
        None => field_map_for_aos(aos_base(&t), n),
    });
    let mut sink = BatchSink::new(*machine);
    let mut regions = RegionMap::new();
    regions.register("fat", 0, u64::MAX);
    sink.enable_attribution(Arc::new(regions));
    sink.enable_field_attribution(Arc::clone(&fmap));
    let mut rng = SplitMix64::new(seed);
    let mut done = 0u64;
    while done < searches {
        check()?;
        let step = (searches - done).min(4096);
        for _ in 0..step {
            t.search(2 * rng.below(n), &mut sink);
        }
        done += step;
    }
    sink.flush();
    check()?;

    let cycles = sink.memory_cycles() as f64 + sink.insts() as f64 / 4.0;
    let p = sink.attribution().expect("field attribution was enabled");
    let fields = fat_schema()
        .fields()
        .iter()
        .map(|f| {
            let misses = |level: Level| {
                p.field_weights(level)
                    .iter()
                    .find(|(name, _)| *name == f.name.as_str())
                    .map_or(0u64, |(_, w)| *w as u64)
            };
            (f.name.clone(), misses(Level::L1), misses(Level::L2))
        })
        .collect();
    let sys = sink.system();
    Ok(FieldLegStats {
        avg_us_per_search: cycles / searches as f64 / machine.cycles_per_us(),
        l1_hits: sys.l1_stats().hits(),
        l1_misses: sys.l1_stats().misses(),
        l2_hits: sys.l2_stats().hits(),
        l2_misses: sys.l2_stats().misses(),
        hot_stride: layout.as_ref().map_or(FAT_NODE_BYTES, |l| l.hot_stride()),
        fields,
    })
}

/// The AoS pool base (node 0's `key` address — field offsets start
/// at 0), observed from the first load a scan emits.
pub fn aos_base(t: &FatBst) -> u64 {
    let mut probe = ProbeSink::default();
    t.scan_keys(0, &mut probe);
    probe.first.expect("nonempty tree")
}

/// Captures the first load address a traversal emits.
#[derive(Default)]
struct ProbeSink {
    first: Option<u64>,
}

impl EventSink for ProbeSink {
    fn event(&mut self, ev: Event) {
        if let Event::Load { addr, .. } = ev {
            self.first.get_or_insert(addr);
        }
    }
}

/// Runs the full sweep. `quick` shrinks the tree and both phases for CI
/// smoke; the ratios survive because they are geometry, not scale.
pub fn run_field_sweep(machine: &MachineConfig, quick: bool) -> FieldSweep {
    let (bits, warmup, searches, scans) = if quick {
        (13u32, 2_000u64, 8_000u64, 8u64)
    } else {
        (17, 10_000, 40_000, 16)
    };
    let n = (1u64 << bits) - 1;
    let results = FieldCase::ALL
        .iter()
        .map(|&case| run_field_case(machine, n, case, warmup, searches, scans))
        .collect();
    FieldSweep {
        results,
        n,
        searches,
        scans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::MemorySink;

    #[test]
    fn field_maps_resolve_every_field_address() {
        let machine = MachineConfig::ultrasparc_e5000();
        for case in FieldCase::ALL {
            let (t, layout) = build_fat_case(&machine, 255, case);
            match &layout {
                Some(l) => {
                    let fmap = field_map_for(l, t.len());
                    for node in 0..t.len() {
                        for f in 0..l.field_count() {
                            let addr = l.field_addr(node, f);
                            let got = fmap.resolve(addr).map(|id| fmap.name(id));
                            assert_eq!(
                                got,
                                Some(l.field_name(f)),
                                "{} node {node} field {}",
                                case.name(),
                                l.field_name(f)
                            );
                        }
                    }
                }
                None => {
                    let base = aos_base(&t);
                    let fmap = field_map_for_aos(base, 255);
                    // Declaration-order offsets within the 64-byte record.
                    let offs = [
                        ("key", 0u64),
                        ("meta", 8),
                        ("left", 24),
                        ("right", 28),
                        ("payload", 32),
                    ];
                    for (name, off) in offs {
                        let got = fmap
                            .resolve(base + 3 * FAT_NODE_BYTES + off)
                            .map(|id| fmap.name(id).to_string());
                        assert_eq!(got.as_deref(), Some(name), "aos field {name}");
                    }
                    assert_eq!(
                        fmap.resolve(base + 255 * FAT_NODE_BYTES),
                        None,
                        "past the pool"
                    );
                }
            }
        }
    }

    #[test]
    fn attribution_leaves_simulation_bit_identical() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (t, layout) = build_fat_case(&machine, 511, FieldCase::HotCold);
        let fmap = Arc::new(field_map_for(
            layout.as_ref().expect("transformed"),
            t.len(),
        ));

        let run = |attrib: bool| {
            let mut sink = BatchSink::new(machine);
            if attrib {
                let mut regions = RegionMap::new();
                regions.register("fat", 0, u64::MAX);
                sink.enable_attribution(Arc::new(regions));
                sink.enable_field_attribution(Arc::clone(&fmap));
            }
            let mut rng = SplitMix64::new(77);
            for _ in 0..900 {
                t.search(2 * rng.below(511), &mut sink);
            }
            t.scan_keys(100, &mut sink);
            sink.flush();
            (
                sink.memory_cycles(),
                sink.insts(),
                sink.system().l1_stats(),
                sink.system().l2_stats(),
                sink.system().tlb_stats(),
            )
        };
        assert_eq!(run(false), run(true), "attribution changed the simulation");
    }

    #[test]
    fn attributed_search_charges_only_the_hot_fields() {
        let machine = MachineConfig::ultrasparc_e5000();
        let (t, layout) = build_fat_case(&machine, 4095, FieldCase::Aos);
        assert!(layout.is_none());
        let fmap = Arc::new(field_map_for_aos(aos_base(&t), 4095));
        let mut sink = MemorySink::new(machine);
        let mut regions = RegionMap::new();
        regions.register("fat", 0, u64::MAX);
        sink.enable_attribution(Arc::new(regions));
        sink.enable_field_attribution(Arc::clone(&fmap));
        let mut rng = SplitMix64::new(5);
        for _ in 0..2_000 {
            t.search(2 * rng.below(4095), &mut sink);
        }
        let p = sink.attribution().expect("enabled");
        let weights = p.field_weights(Level::L1);
        assert!(!weights.is_empty(), "search phase produced no field misses");
        // Searches only read key/left/right; the cold fields and the
        // unattributed bucket must both stay silent.
        for (name, _) in &weights {
            assert!(
                ["key", "left", "right"].contains(name),
                "cold field {name} charged by a hot-only traversal"
            );
        }
        assert_eq!(p.field_unattributed(Level::L1).accesses, 0);
        // Raw counts: the hot fields' misses account for every L1 miss.
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        assert_eq!(total, sink.system().l1_stats().misses() as f64);
    }

    #[test]
    fn quick_sweep_wins_where_the_paper_says() {
        let machine = MachineConfig::ultrasparc_e5000();
        let sweep = FieldSweep {
            // Small but past L1: the geometry argument (8 keys per
            // block vs 1) is scale-free.
            results: FieldCase::ALL
                .iter()
                .map(|&case| run_field_case(&machine, 2047, case, 500, 2_000, 4))
                .collect(),
            n: 2047,
            searches: 2_000,
            scans: 4,
        };
        assert!(
            sweep.headline_speedup() > 1.0,
            "SoA scan must beat AoS: {:.2}",
            sweep.headline_speedup()
        );
        assert!(
            sweep.search_speedup(FieldCase::HotCold) > 1.0,
            "hot/cold split must beat AoS on search: {:.2}",
            sweep.search_speedup(FieldCase::HotCold)
        );
        let aos = sweep.get(FieldCase::Aos);
        let split = sweep.get(FieldCase::HotCold);
        assert_eq!(aos.hot_stride, 64);
        assert_eq!(split.hot_stride, 16);
        assert!(!split.field_misses.is_empty());
        assert!(
            split.search_l1_miss_pct < aos.search_l1_miss_pct,
            "split {:.2}% vs aos {:.2}%",
            split.search_l1_miss_pct,
            aos.search_l1_miss_pct
        );
    }
}
