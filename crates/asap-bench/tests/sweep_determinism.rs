//! Parallel sweeps must be bit-for-bit identical to serial ones: the worker
//! pool only changes *when* a cell runs, never what it computes, because
//! every cell derives all randomness from (scale, seed, algo, overlay).
//!
//! Runs a reduced matrix (2 algorithms × 2 overlays) audited, serial vs 4
//! workers, under every fault profile, and compares the full per-cell
//! digests.

use asap_bench::faults::FaultProfile;
use asap_bench::runner::{sweep_cells_spec, RunSpec, World};
use asap_bench::{AlgoKind, Scale};
use asap_overlay::OverlayKind;
use asap_sim::AuditConfig;

fn digests(workers: usize, faults: FaultProfile) -> Vec<(String, String, u64)> {
    let cells = [
        (AlgoKind::Flooding, OverlayKind::Random),
        (AlgoKind::Flooding, OverlayKind::PowerLaw),
        (AlgoKind::AsapRw, OverlayKind::Random),
        (AlgoKind::AsapRw, OverlayKind::PowerLaw),
    ];
    let spec = RunSpec::figures()
        .audited(AuditConfig::default())
        .with_faults(faults);
    sweep_cells_spec(&World::build(Scale::Tiny, 11), &cells, workers, &spec)
        .into_iter()
        .map(|c| {
            let audit = c.audit.expect("audited sweep");
            assert!(
                audit.is_clean(),
                "{} / {}: violations {:?}",
                c.summary.algo.label(),
                c.summary.overlay.label(),
                audit.violations
            );
            (
                c.summary.overlay.label().to_string(),
                c.summary.algo.label().to_string(),
                audit.digest,
            )
        })
        .collect()
}

#[test]
fn parallel_sweep_matches_serial_fault_free() {
    assert_eq!(
        digests(1, FaultProfile::None),
        digests(4, FaultProfile::None),
        "worker count must not change any digest"
    );
}

#[test]
fn parallel_sweep_matches_serial_lossy() {
    let serial = digests(1, FaultProfile::Lossy);
    assert_eq!(
        serial,
        digests(4, FaultProfile::Lossy),
        "fault injection must stay deterministic across worker counts"
    );
    // Sanity: the lossy digests differ from the fault-free ones, so this
    // test cannot silently compare the same thing twice.
    assert_ne!(serial, digests(1, FaultProfile::None));
}

#[test]
fn parallel_sweep_matches_serial_chaos() {
    let serial = digests(1, FaultProfile::Chaos);
    assert_eq!(
        serial,
        digests(4, FaultProfile::Chaos),
        "chaos-profile sweeps must stay deterministic across worker counts"
    );
    // Chaos adds partitions/duplication on top of loss, so its digests must
    // differ from both other profiles.
    assert_ne!(serial, digests(1, FaultProfile::None));
    assert_ne!(serial, digests(1, FaultProfile::Lossy));
}

/// The per-profile tests above pin the interesting pairs; this sweep keeps
/// the guarantee exhaustive if more profiles are ever added, and exercises
/// an oversubscribed pool (more workers than cells).
#[test]
fn every_profile_is_worker_count_invariant() {
    for profile in FaultProfile::ALL {
        assert_eq!(
            digests(1, profile),
            digests(8, profile),
            "profile {} must not vary with worker count",
            profile.label()
        );
    }
}
