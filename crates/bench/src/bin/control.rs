//! Section 4.4's control experiment: `ccmalloc` with every hint replaced
//! by a null pointer.
//!
//! "To confirm that this performance improvement is not merely an
//! artifact of our ccmalloc implementation, we ran a control experiment
//! where we replaced all ccmalloc parameters by null pointers. The
//! resulting programs performed 2%–6% worse than the base versions that
//! use the system malloc." — the allocator's extra bookkeeping costs a
//! little; the *placement* is what pays.

use cc_bench::header;
use cc_olden::{health, mst, perimeter, treeadd, RunResult, Scheme};
use cc_sim::MachineConfig;

fn main() {
    let machine = MachineConfig::table1();
    header(
        "Control experiment: ccmalloc with null hints vs system malloc",
        "paper: null-hint programs ran 2-6% WORSE than base",
    );
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "benchmark", "base cycles", "null-hint", "delta"
    );

    type Run<'a> = Box<dyn Fn(Scheme) -> RunResult + 'a>;
    let pairs: Vec<(&str, Run)> = vec![
        (
            "treeadd",
            Box::new(|s| treeadd::run_iters(s, 65_536, 4, &machine)),
        ),
        ("health", Box::new(|s| health::run(s, 3, 200, &machine))),
        ("mst", Box::new(|s| mst::run(s, 256, 16, &machine))),
        ("perimeter", Box::new(|s| perimeter::run(s, 512, &machine))),
    ];

    for (name, run) in pairs {
        eprintln!("  {name}…");
        let base = run(Scheme::Base);
        let null = run(Scheme::CcMallocNullHint);
        assert_eq!(base.checksum, null.checksum);
        let delta = 100.0 * (null.breakdown.total() as f64 - base.breakdown.total() as f64)
            / base.breakdown.total() as f64;
        println!(
            "{:<12} {:>14} {:>14} {:>+9.1}%",
            name,
            base.breakdown.total(),
            null.breakdown.total(),
            delta
        );
    }
    cc_bench::obs::write_obs_out();
}
