//! The xl cell's peak memory as a gated number: a process that builds the
//! 100,000-peer world and runs the `rw.xl` cell must stay under a resident
//! high-water mark.
//!
//! The test is alone in its file, so its test binary is its own process and
//! the `VmHWM` of `/proc/self/status` it reads belongs to this one cell. CI
//! runs it as its own step:
//!
//! ```text
//! cargo test --release -q -p asap-bench --test xl_memory -- \
//!     --ignored --exact xl_cell_peak_rss_is_bounded
//! ```
//!
//! Linux only: off Linux there is no `/proc/self/status` and the test fails
//! rather than pass on a missing reading.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;

/// The bound on the cell's peak resident set, in KiB. Measured on a 2-core
/// x86-64 Linux host at seed 42: 87,660–87,756 KiB (85.7 MiB), against
/// 99,600 KiB (97.3 MiB) while the content state and the trace generator's
/// holdings each copied every initial holding, and 132,780 KiB (129.7 MiB)
/// before keyword ids went to 16 bits, the initial holdings to one flat
/// arena and the class pools out of the content model. The bound is the
/// measurement plus about 7 %, below the copying layout's peak.
const PEAK_RSS_BOUND_KIB: u64 = 94_000;

/// This process's peak resident set: the `VmHWM` line of
/// `/proc/self/status`, in KiB.
fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmHWM line in kB")
}

/// The world as the benchmark's `rw.xl` workload builds it (the random
/// overlay built and cached), then the cell as `run_cell_spec` runs it.
#[test]
#[ignore = "builds the 100k-peer world and runs its cell; release-only, alone in its process"]
fn xl_cell_peak_rss_is_bounded() {
    let world = World::build(Scale::Xl, 42);
    drop(world.overlay(OverlayKind::Random));
    let cell = run_cell_spec(
        &world,
        AlgoKind::RandomWalk,
        OverlayKind::Random,
        &RunSpec::figures(),
    );
    assert!(cell.queries > 0, "xl cell must run queries");
    let peak = vm_hwm_kib();
    assert!(
        peak <= PEAK_RSS_BOUND_KIB,
        "xl cell peak RSS {peak} KiB over {PEAK_RSS_BOUND_KIB} KiB"
    );
    eprintln!("xl cell peak RSS {peak} KiB (bound {PEAK_RSS_BOUND_KIB} KiB)");
}
