//! The default ASAP cell's peak memory as a gated number: a process that
//! builds the default-scale world and runs ASAP(RW) on the random overlay
//! must stay under a resident high-water mark. Most of that cell's memory
//! is its ad caches (366,599 cached ads at seed 42), so the bound holds
//! the cache layout to its size.
//!
//! The test is alone in its file, so its test binary is its own process and
//! the `VmHWM` of `/proc/self/status` it reads belongs to this one cell. CI
//! runs it as its own step:
//!
//! ```text
//! cargo test --release -q -p asap-bench --test asap_memory -- \
//!     --ignored --exact asap_default_peak_rss_is_bounded
//! ```
//!
//! Linux only: off Linux there is no `/proc/self/status` and the test fails
//! rather than pass on a missing reading.

use asap_bench::runner::{run_cell_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;

/// The bound on the cell's peak resident set, in KiB. Measured on a 2-core
/// x86-64 Linux host at seed 42: 19,292–19,392 KiB with 20-byte cache
/// records and a rank index, against 20,340–20,496 KiB with 24-byte
/// records (the source in the record, found by search) and
/// 21,660–21,752 KiB with 28-byte entries. The bound is the highest
/// reading plus 4.7 %, below the 24-byte layout's lowest; 5 % would reach
/// it.
const PEAK_RSS_BOUND_KIB: u64 = 20_300;

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

/// The world as the benchmark's `asap_rw.default` workload builds it, then
/// the cell as `run_cell_spec` runs it.
#[test]
#[ignore = "runs the default-scale ASAP(RW) cell; release-only, alone in its process"]
fn asap_default_peak_rss_is_bounded() {
    let world = World::build(Scale::Default, 42);
    let cell = run_cell_spec(
        &world,
        AlgoKind::AsapRw,
        OverlayKind::Random,
        &RunSpec::figures(),
    );
    assert!(cell.queries > 0, "the cell must run queries");
    let peak = vm_hwm_kib();
    assert!(
        peak <= PEAK_RSS_BOUND_KIB,
        "ASAP(RW) default cell peak RSS {peak} KiB over {PEAK_RSS_BOUND_KIB} KiB"
    );
    eprintln!("ASAP(RW) default cell peak RSS {peak} KiB (bound {PEAK_RSS_BOUND_KIB} KiB)");
}
