//! Sim≡net: the engine on the framed carrier replays a workload to the
//! same lifecycle digest as on the in-memory carrier, for every protocol
//! family.
//!
//! Both runs are `asap_sim::Simulation`; only what the event queue holds
//! for a message in flight differs. Equal backend-tagged
//! [`LifecycleDigest`]s over a full replay prove encode→decode on every
//! single delivered message is behaviorally invisible, and the faulted,
//! audited cases prove the engine layers (audit, fault injection, profile)
//! see the identical event stream on the net carrier: lost, duplicated and
//! delivered frames alike.
//!
//! The tiny-scale pinned matrix lives in `asap-bench` (`simnet` bin,
//! `golden/simnet_tiny.txt`); this tier keeps a fast in-tree witness.

use asap_core::{Asap, AsapConfig, SuperAsap, SuperPeerConfig};
use asap_net::Loopback;
use asap_overlay::{OverlayConfig, OverlayKind, PeerId};
use asap_search::{Flooding, FloodingConfig, Gsa, GsaConfig, RandomWalk, RandomWalkConfig};
use asap_sim::{AuditConfig, CheckpointProtocol, FaultPlan, Simulation};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_trace::{Backend, DigestSink, LifecycleDigest, TraceSink};
use asap_workload::{Workload, WorkloadConfig};

const PEERS: usize = 120;
const QUERIES: usize = 150;
const SEED: u64 = 11;

fn world() -> (PhysicalNetwork, Workload) {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(SEED));
    let workload = asap_workload::generate(&WorkloadConfig::reduced(PEERS, QUERIES, SEED));
    (phys, workload)
}

fn overlay() -> asap_overlay::Overlay {
    OverlayConfig::new(OverlayKind::Random, PEERS, SEED).build()
}

fn digest_of(sink: Box<dyn TraceSink>) -> LifecycleDigest {
    sink.into_any()
        .downcast::<DigestSink>()
        .expect("digest sink comes back out")
        .digest()
}

/// 10 % loss and 2 % duplication: every fault decision path the carrier
/// sits under (dropped before packing, packed once, packed twice).
fn lossy_duplicating() -> FaultPlan {
    FaultPlan {
        loss_ppm: 100_000,
        duplicate_ppm: 20_000,
        ..FaultPlan::none()
    }
}

/// Run one protocol on both carriers; assert digest and metric equality.
/// With `faulted`, both runs are audited under [`lossy_duplicating`] and
/// the engine layers must agree too.
fn assert_equivalent<P: CheckpointProtocol>(label: &str, make: impl Fn() -> P, faulted: bool) {
    let (phys, workload) = world();

    let mut sim = Simulation::builder(&phys, &workload, overlay(), OverlayKind::Random, make(), SEED)
        .trace(Box::new(DigestSink::new(Backend::Sim)));
    let mut net = Loopback::new(&phys, &workload, overlay(), OverlayKind::Random, make(), SEED)
        .trace(Box::new(DigestSink::new(Backend::Net)));
    if faulted {
        sim = sim.audit(AuditConfig::default()).faults(lossy_duplicating());
        net = net.audit(AuditConfig::default()).faults(lossy_duplicating());
    }
    let (sim, net) = (sim.run(), net.run());

    assert_eq!(net.wire_errors, 0, "{label}: frames failed to decode");
    assert_eq!(sim.wire_errors, 0, "{label}: the identity carrier cannot fail");
    assert_eq!(sim.profile, net.profile, "{label}: engine profiles diverge");
    if faulted {
        let (sa, na) = (sim.audit.expect("audited"), net.audit.expect("audited"));
        assert!(sa.is_clean(), "{label}: sim audit {:?}", sa.violations);
        assert!(na.is_clean(), "{label}: net audit {:?}", na.violations);
        assert_eq!(sa.digest, na.digest, "{label}: audit digests diverge");
        let stats = sim.faults.expect("faulted");
        assert!(stats.dropped > 0 && stats.duplicated > 0, "{label}: plan was inert");
        assert_eq!(Some(stats), net.faults, "{label}: fault stats diverge");
    }
    let ds = digest_of(sim.trace.expect("sim sink"));
    let dn = digest_of(net.trace.expect("net sink"));
    assert_eq!(ds.backend(), Backend::Sim);
    assert_eq!(dn.backend(), Backend::Net);
    assert_eq!(
        ds.count(),
        dn.count(),
        "{label}: lifecycle event counts diverge"
    );
    assert_eq!(
        ds.value(),
        dn.value(),
        "{label}: sim and net lifecycle digests diverge"
    );
    // The digest already covers sends/deliveries/answers; cross-check the
    // headline metrics directly for a readable failure mode.
    assert_eq!(sim.messages_sent, net.messages_sent, "{label}");
    assert_eq!(sim.end_time_us, net.end_time_us, "{label}");
    assert_eq!(
        sim.ledger.num_succeeded(),
        net.ledger.num_succeeded(),
        "{label}"
    );
    assert_eq!(sim.load.total_bytes(), net.load.total_bytes(), "{label}");
    assert_eq!(sim.alive, net.alive, "{label}");
}

fn both_ways<P: CheckpointProtocol>(label: &str, make: impl Fn() -> P) {
    assert_equivalent(label, &make, false);
    assert_equivalent(&format!("{label}@faulted"), &make, true);
}

#[test]
fn flooding_replays_identically_on_both_backends() {
    both_ways("flooding", || Flooding::new(FloodingConfig::default()));
}

#[test]
fn random_walk_replays_identically_on_both_backends() {
    both_ways("random-walk", || RandomWalk::new(RandomWalkConfig::default()));
}

#[test]
fn gsa_replays_identically_on_both_backends() {
    both_ways("gsa", || Gsa::new(GsaConfig::default()));
}

#[test]
fn asap_rw_replays_identically_on_both_backends() {
    let (_, workload) = world();
    both_ways("asap-rw", || Asap::new(AsapConfig::rw(), &workload.model));
}

#[test]
fn super_asap_replays_identically_on_both_backends() {
    let (_, workload) = world();
    both_ways("super-asap", || {
        SuperAsap::new(SuperPeerConfig::new(AsapConfig::rw()), &workload.model)
    });
}

/// The memory half of sim≡net, as a count a test can gate: filters that
/// crossed the wire are shared among their cachers as widely as filters
/// that never left memory.
#[test]
fn net_caches_share_filter_allocations_like_the_sim() {
    let (phys, workload) = world();
    let make = || Asap::new(AsapConfig::rw(), &workload.model);
    let sim = Simulation::builder(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        make(),
        SEED,
    );
    let net = Loopback::new(
        &phys,
        &workload,
        overlay(),
        OverlayKind::Random,
        make(),
        SEED,
    );
    let (sim, net) = (sim.run().protocol, net.run().protocol);
    let cached =
        |asap: &Asap| -> usize { (0..PEERS as u32).map(|p| asap.cache_len(PeerId(p))).sum() };
    assert_eq!(cached(&sim), cached(&net));
    let (in_memory, decoded) = (sim.distinct_cached_filters(), net.distinct_cached_filters());
    assert!(
        decoded <= in_memory,
        "{decoded} allocations on the net carrier, {in_memory} on the sim"
    );
    assert!(
        decoded * 4 < cached(&net),
        "{decoded} allocations behind {} cached ads",
        cached(&net)
    );
}
