//! Sim≡net: the engine on the framed carrier replays a workload to the
//! same audit digest as on the in-memory carrier, for every protocol
//! family, with no frame failing to decode.
//!
//! Both runs are `asap_sim::Simulation`, audited; only what the event
//! queue holds for a message in flight differs. The auditor folds the
//! whole trace stream, ordered and timestamped, so equal digests over a
//! full replay prove encode→decode on every delivered message is
//! behaviorally invisible, and the faulted cases prove the engine layers
//! (audit, fault injection, profile) see the identical event stream on the
//! net carrier: lost, duplicated and delivered frames alike.
//!
//! The golden matrices are replayed on the net carrier by `asap-bench`'s
//! `golden` bin, against the same pinned records as the sim; this tier
//! keeps a fast in-tree witness and proves that the witness bites.

use asap_core::{Asap, AsapConfig, SuperAsap};
use asap_metrics::MsgClass;
use asap_net::{Framed, Loopback};
use asap_overlay::{OverlayConfig, OverlayKind, PeerId};
use asap_search::{Flooding, FloodingConfig, Gsa, GsaConfig, RandomWalk, RandomWalkConfig};
use asap_sim::{
    AuditConfig, Carrier, CheckpointProtocol, FaultPlan, InMemory, SimBuilder, SimReport,
    Simulation,
};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
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

/// 10 % loss and 2 % duplication: every fault decision path the carrier
/// sits under (dropped before packing, packed once, packed twice).
fn lossy_duplicating() -> FaultPlan {
    FaultPlan {
        loss_ppm: 100_000,
        duplicate_ppm: 20_000,
        ..FaultPlan::none()
    }
}

/// One audited run on carrier `C`, under [`lossy_duplicating`] if `faulted`.
fn run<P: CheckpointProtocol, C: Carrier<P::Msg>>(
    (phys, workload): &(PhysicalNetwork, Workload),
    protocol: P,
    faulted: bool,
) -> SimReport<P> {
    let mut b = SimBuilder::<P, C>::new(
        phys,
        workload,
        overlay(),
        OverlayKind::Random,
        protocol,
        SEED,
    )
    .audit(AuditConfig::default());
    if faulted {
        b = b.faults(lossy_duplicating());
    }
    b.run()
}

fn digest<P>(report: &SimReport<P>) -> u64 {
    report.audit.as_ref().expect("audited").digest
}

/// The sim≡net witness: equal audit digests and no frame that failed to
/// decode. Both halves are needed (see [`a_corrupted_frame_fails_the_witness`]).
fn witness_holds<P>(sim: &SimReport<P>, net: &SimReport<P>) -> bool {
    digest(sim) == digest(net) && net.wire_errors == 0
}

/// Run one protocol on both carriers; assert the witness plus metric
/// equality. With `faulted`, both runs are under [`lossy_duplicating`] and
/// the fault layers must agree too.
fn assert_equivalent<P: CheckpointProtocol>(label: &str, make: impl Fn() -> P, faulted: bool) {
    let world = world();
    let sim = run::<P, InMemory>(&world, make(), faulted);
    let net = run::<P, Framed<P>>(&world, make(), faulted);

    assert_eq!(net.wire_errors, 0, "{label}: frames failed to decode");
    assert_eq!(
        sim.wire_errors, 0,
        "{label}: the identity carrier cannot fail"
    );
    let (sa, na) = (sim.audit.as_ref().unwrap(), net.audit.as_ref().unwrap());
    assert!(sa.is_clean(), "{label}: sim audit {:?}", sa.violations);
    assert!(na.is_clean(), "{label}: net audit {:?}", na.violations);
    assert_eq!(sa.digest, na.digest, "{label}: audit digests diverge");
    assert_eq!(sim.profile, net.profile, "{label}: engine profiles diverge");
    if faulted {
        let stats = sim.faults.expect("faulted");
        assert!(
            stats.dropped > 0 && stats.duplicated > 0,
            "{label}: plan was inert"
        );
        assert_eq!(Some(stats), net.faults, "{label}: fault stats diverge");
    }
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
    both_ways("random-walk", || {
        RandomWalk::new(RandomWalkConfig::default())
    });
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
        SuperAsap::new(AsapConfig::rw(), &workload.model)
    });
}

/// Which frame [`FlipOne`] corrupts: far enough in that every protocol has
/// warmed up, early enough that every protocol sends it.
const FLIPPED_FRAME: u64 = 500;

/// [`Framed`] with one planted codec bug: the [`FLIPPED_FRAME`]th frame
/// unpacked has one payload byte flipped before it is decoded.
struct FlipOne<P> {
    framed: Framed<P>,
    unpacked: u64,
}

impl<P> Default for FlipOne<P> {
    fn default() -> Self {
        Self {
            framed: Framed::default(),
            unpacked: 0,
        }
    }
}

impl<P: CheckpointProtocol> Carrier<P::Msg> for FlipOne<P> {
    type Packed = Vec<u8>;

    fn pack(
        &mut self,
        from: PeerId,
        to: PeerId,
        class: MsgClass,
        bytes: usize,
        msg: P::Msg,
    ) -> Vec<u8> {
        self.framed.pack(from, to, class, bytes, msg)
    }

    fn unpack(&mut self, mut packed: Vec<u8>) -> Option<P::Msg> {
        self.unpacked += 1;
        if self.unpacked == FLIPPED_FRAME {
            let mid = packed.len() / 2;
            packed[mid] ^= 0x01;
        }
        self.framed.unpack(packed)
    }
}

/// Run one protocol on the sim and on [`FlipOne`]; the witness must fail.
/// Returns whether the audit digest moved (the other half is the one
/// wire error the flipped frame must leave).
fn corrupted_digest_moves<P: CheckpointProtocol>(label: &str, make: impl Fn() -> P) -> bool {
    let world = world();
    let sim = run::<P, InMemory>(&world, make(), false);
    let bad = run::<P, FlipOne<P>>(&world, make(), false);
    assert!(
        sim.messages_sent >= FLIPPED_FRAME,
        "{label}: too few frames to corrupt one"
    );
    assert_eq!(
        bad.wire_errors, 1,
        "{label}: the flipped frame must fail to decode"
    );
    assert!(
        !witness_holds(&sim, &bad),
        "{label}: the witness missed a corrupt frame"
    );
    digest(&sim) != digest(&bad)
}

/// The witness bites for every protocol family, and it needs both halves.
///
/// A flipped byte fails the frame checksum, so the engine drops that one
/// message and counts a wire error. But the engine emits `Deliver` to the
/// trace stream (and so to the auditor) *before* it unpacks the frame, so
/// a dropped frame moves the audit digest only if losing the message
/// changes what happens next. On flooding, a lost copy is usually
/// redundant: another copy of the same query reaches the same peer. On a
/// random walk the walker dies with it. So the digest alone would miss
/// this bug on some families, which is why `wire_errors == 0` stays in the
/// witness. Here, flipping frame [`FLIPPED_FRAME`] moves the digest of
/// every family but flooding. On `golden`'s 36 net cells, flipping frame
/// 1000 left 9 digests equal to their pins (flooding and ASAP(FLD) on
/// most overlays, GSA on one), while every random walk, ASAP(RW) and
/// ASAP(GSA) digest moved.
#[test]
fn a_corrupted_frame_fails_the_witness() {
    let (_, workload) = world();
    let moved = [
        corrupted_digest_moves("flooding", || Flooding::new(FloodingConfig::default())),
        corrupted_digest_moves("random-walk", || {
            RandomWalk::new(RandomWalkConfig::default())
        }),
        corrupted_digest_moves("gsa", || Gsa::new(GsaConfig::default())),
        corrupted_digest_moves("asap-rw", || Asap::new(AsapConfig::rw(), &workload.model)),
        corrupted_digest_moves("super-asap", || {
            SuperAsap::new(AsapConfig::rw(), &workload.model)
        }),
    ];
    assert_eq!(
        moved,
        [false, true, true, true, true],
        "which digests a lost frame moves (flooding, random-walk, gsa, asap-rw, super-asap)"
    );
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
