//! Differential properties for [`TraceRecorder`]: recording a stream
//! folded (instruction and branch events become tick-lane bumps plus
//! per-chunk totals) must be observationally equal to packing the same
//! stream losslessly with [`TraceBuf::push`] (one entry per event, counts
//! in the entries). Over arbitrary streams — including ones that lead
//! with an instruction, long tick runs that cross chunk boundaries, and
//! chunk capacities down to one entry — both packings must give the same
//! `access_batch` outcome and statistics, the same split-and-replay
//! statistics, cycles, instruction, branch, and event totals at 1, 2, and
//! 4 shards, the same `event_total()`, and the same `mem_refs()`
//! sequence. (Saturated tick lanes need more than 2^32 consecutive clock
//! ticks to reach through events; the unit tests in `batch.rs` seed one
//! directly.)
//!
//! `TraceRecorder` and `BatchSink` stage the six
//! convenience methods (`load`, `inst`, …) through a fast path that
//! skips `event()`; a further property pins that both routes stage the
//! same lanes and replay to the same statistics.

use cc_sim::cache::WritePolicy;
use cc_sim::event::{Event, EventSink};
use cc_sim::geometry::CacheGeometry;
use cc_sim::{
    BatchCursor, BatchOutcome, BatchSink, Latency, MachineConfig, MemRef, MemorySink, MemorySystem,
    ShardedReplayer, TraceBuf, TraceRecorder,
};
use proptest::prelude::*;

/// A write-back machine with a 4-bit L1∩L2 set-field overlap, so 2 and 4
/// shards are real partitions.
fn writeback_overlapped() -> MachineConfig {
    MachineConfig {
        l1: CacheGeometry::new(64, 16, 2),
        l1_policy: WritePolicy::WriteBack,
        l2: CacheGeometry::new(64, 64, 2),
        l2_policy: WritePolicy::WriteBack,
        latency: Latency {
            l1_hit: 1,
            l1_miss: 6,
            l2_miss: 64,
            tlb_miss: 30,
        },
        page_bytes: 256,
        tlb_entries: 4,
        clock_mhz: 100,
    }
}

/// Decodes raw words into a stream rich in clock-only events: node
/// visits in the load/inst/branch rhythm, runs of up to 40 instruction
/// and branch events (longer than the small chunk capacities, so runs
/// straddle chunk boundaries), plus stores, prefetches and jumps.
/// `lead_inst` starts the stream with an instruction run, so the first
/// chunk has no entry to fold into.
fn decode_trace(words: &[u64], lead_inst: bool) -> Vec<Event> {
    const ARENA: u64 = 8 * 1024;
    let mut cur: u64 = 0x100;
    let mut evs = Vec::with_capacity(3 * words.len());
    if lead_inst {
        evs.extend([Event::Inst(2), Event::Branch(1), Event::Inst(0)]);
    }
    for &r in words {
        let op = r % 100;
        let material = r >> 8;
        if op < 45 {
            cur = (cur + material % 48) % ARENA;
            evs.push(Event::load(cur, [8u32, 20][(material % 2) as usize]));
            evs.push(Event::Inst((material % 5) as u32));
            evs.push(Event::Branch(1));
        } else if op < 60 {
            for i in 0..material % 40 {
                evs.push(if (material >> i) & 1 == 0 {
                    Event::Inst((i % 4) as u32)
                } else {
                    Event::Branch((i % 2) as u32)
                });
            }
        } else if op < 72 {
            cur = material % ARENA;
            evs.push(Event::load_indep(cur, 8));
        } else if op < 84 {
            evs.push(Event::store(
                material % ARENA,
                [1u32, 8, 20][(material % 3) as usize],
            ));
        } else if op < 92 {
            evs.push(Event::Prefetch {
                addr: material % ARENA,
            });
        } else {
            cur = material % ARENA;
        }
    }
    evs
}

/// The lossless reference packing: every event one `TraceBuf::push`.
fn pack_lossless(events: &[Event], cap: usize) -> Vec<TraceBuf> {
    let mut bufs = Vec::new();
    let mut cur = TraceBuf::with_capacity(cap);
    for &ev in events {
        if cur.is_full() {
            bufs.push(std::mem::replace(&mut cur, TraceBuf::with_capacity(cap)));
        }
        cur.push(ev);
    }
    if !cur.is_empty() {
        bufs.push(cur);
    }
    bufs
}

fn record(events: &[Event], cap: usize) -> Vec<TraceBuf> {
    let mut rec = TraceRecorder::with_capacity(cap);
    for &ev in events {
        rec.event(ev);
    }
    rec.finish()
}

/// Everything one packing produces when replayed, in one comparable
/// value.
#[derive(Debug, PartialEq)]
struct Observed {
    mem_refs: Vec<MemRef>,
    event_total: u64,
    batch: BatchOutcome,
    batch_stats: String,
    sharded: Vec<String>,
}

fn observe(machine: MachineConfig, bufs: &[TraceBuf]) -> Observed {
    let mem_refs = bufs.iter().flat_map(TraceBuf::mem_refs).collect();
    let event_total = bufs.iter().map(TraceBuf::event_total).sum();

    let mut sys = MemorySystem::new(machine);
    let mut cursor = BatchCursor::new();
    let mut batch = BatchOutcome::default();
    for buf in bufs {
        let out = sys.access_batch(buf, batch.events, &mut cursor);
        batch.cycles += out.cycles;
        batch.insts += out.insts;
        batch.branches += out.branches;
        batch.events += out.events;
    }
    let batch_stats = format!("{:?}", (sys.l1_stats(), sys.l2_stats(), sys.tlb_stats()));

    let sharded = [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let mut r = ShardedReplayer::new(machine, shards);
            let split = r.split(bufs);
            let out = r.replay(&split);
            format!(
                "{shards} shards: {:?}",
                (
                    r.l1_stats(),
                    r.l2_stats(),
                    r.tlb_stats(),
                    r.memory_cycles(),
                    r.insts(),
                    r.branches(),
                    r.events(),
                    out.cycles,
                    out.events,
                    r.degradation(),
                )
            )
        })
        .collect();
    Observed {
        mem_refs,
        event_total,
        batch,
        batch_stats,
        sharded,
    }
}

fn check(
    machine: MachineConfig,
    events: &[Event],
    rec_cap: usize,
    ref_cap: usize,
) -> Result<(), TestCaseError> {
    let recorded = record(events, rec_cap);
    let lossless = pack_lossless(events, ref_cap);
    let entries = |bufs: &[TraceBuf]| bufs.iter().map(TraceBuf::len).sum::<usize>();
    prop_assert!(entries(&recorded) <= entries(&lossless));
    let got = observe(machine, &recorded);
    let want = observe(machine, &lossless);
    prop_assert_eq!(&got, &want);

    // And both equal the scalar sink, which counts every event.
    let mut scalar = MemorySink::new(machine);
    for &ev in events {
        scalar.event(ev);
    }
    let folded = got.batch;
    prop_assert_eq!(folded.events, events.len() as u64);
    prop_assert_eq!(folded.cycles, scalar.memory_cycles());
    prop_assert_eq!(folded.insts, scalar.insts());
    prop_assert_eq!(folded.branches, scalar.branches());
    Ok(())
}

/// Delivers `ev` through the matching convenience method rather than
/// [`EventSink::event`].
fn deliver<S: EventSink>(sink: &mut S, ev: Event) {
    match ev {
        Event::Inst(n) => sink.inst(n),
        Event::Branch(n) => sink.branch(n),
        Event::Load {
            addr,
            size,
            dep: true,
        } => sink.load(addr, size),
        Event::Load {
            addr,
            size,
            dep: false,
        } => sink.load_indep(addr, size),
        Event::Store { addr, size } => sink.store(addr, size),
        Event::Prefetch { addr } => sink.prefetch(addr),
    }
}

/// Everything a drained [`BatchSink`] reports, in one comparable value.
fn batch_sink_summary(mut sink: BatchSink) -> String {
    sink.flush();
    let sys = sink.system();
    format!(
        "{:?}",
        (
            sys.l1_stats(),
            sys.l2_stats(),
            sys.tlb_stats(),
            sink.memory_cycles(),
            sink.insts(),
            sink.branches(),
            sink.fallback_batches(),
        )
    )
}

fn check_fast_path(
    machine: MachineConfig,
    events: &[Event],
    cap: usize,
) -> Result<(), TestCaseError> {
    let mut fast = TraceRecorder::with_capacity(cap);
    let mut slow = TraceRecorder::with_capacity(cap);
    for &ev in events {
        deliver(&mut fast, ev);
        slow.event(ev);
    }
    // The compact encoding spells out every lane, the capacity, the
    // address space and the folded totals.
    let encode = |bufs: Vec<TraceBuf>| {
        bufs.iter()
            .map(TraceBuf::encode_compact)
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(encode(fast.finish()), encode(slow.finish()));

    let mut fast = BatchSink::with_capacity(machine, cap);
    let mut slow = BatchSink::with_capacity(machine, cap);
    for &ev in events {
        deliver(&mut fast, ev);
        slow.event(ev);
    }
    prop_assert_eq!(batch_sink_summary(fast), batch_sink_summary(slow));
    Ok(())
}

proptest! {
    /// The convenience methods stage exactly what `event()` stages, in
    /// the recorder and in the batched sink, at chunk capacities small
    /// enough that every stream crosses chunk boundaries.
    #[test]
    fn convenience_methods_equal_event(
        words in prop::collection::vec(any::<u64>(), 1..160),
        cap in 1usize..6,
        lead in 0u8..3,
    ) {
        // Lead with nothing, an instruction run, or a branch: a leading
        // clock-only event finds no entry to fold into.
        let mut events = decode_trace(&words, lead == 1);
        if lead == 2 {
            events.insert(0, Event::Branch(2));
        }
        check_fast_path(writeback_overlapped(), &events, cap)?;
    }

    /// Small chunk capacities on both sides, so chunk boundaries fall
    /// inside node visits and tick runs.
    #[test]
    fn recorder_equals_lossless_small_chunks(
        words in prop::collection::vec(any::<u64>(), 1..160),
        rec_cap in 1usize..9,
        ref_cap in 1usize..9,
        lead_inst in any::<bool>(),
    ) {
        check(writeback_overlapped(), &decode_trace(&words, lead_inst), rec_cap, ref_cap)?;
    }

    /// The recorder's production chunk size on the paper's machine.
    #[test]
    fn recorder_equals_lossless_e5000(
        words in prop::collection::vec(any::<u64>(), 1..400),
        ref_cap in 1usize..64,
        lead_inst in any::<bool>(),
    ) {
        check(
            MachineConfig::ultrasparc_e5000(),
            &decode_trace(&words, lead_inst),
            cc_sim::batch::DEFAULT_BATCH_CAPACITY,
            ref_cap,
        )?;
    }

    /// A stream of nothing but clock-only events: every chunk is a gap.
    #[test]
    fn recorder_equals_lossless_without_memory_events(
        n in 1usize..100,
        rec_cap in 1usize..5,
    ) {
        let events: Vec<Event> = (0..n)
            .map(|i| if i % 3 == 0 { Event::Branch(1) } else { Event::Inst(i as u32) })
            .collect();
        check(writeback_overlapped(), &events, rec_cap, 3)?;
    }
}

#[test]
fn empty_stream_records_no_chunks() {
    assert!(TraceRecorder::new().finish().is_empty());
}
