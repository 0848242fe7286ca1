//! Sim≡net equivalence matrix: replay the pinned tiny workload through the
//! sim engine on its in-memory carrier **and** on `asap-net`'s framed
//! carrier (`Loopback`), and compare backend-tagged lifecycle digests per
//! algorithm, fault-free and under the lossy fault profile.
//!
//! The framed carrier pushes every message through the length-prefixed
//! wire codec (`asap_net::wire`), so a digest match here certifies the
//! whole seam at once: the per-protocol checkpoint codecs doubling as wire
//! codecs, the framing layer, and — on the lossy rows — the fault layer
//! and the protocols' retry paths running over frames. The matrix is
//! pinned in `golden/simnet_tiny.txt` and checked by the CI `golden` job
//! via the `simnet` bin.

use crate::algo::AlgoKind;
use crate::faults::FaultProfile;
use crate::harness::{golden_world, GOLDEN_SEED};
use crate::runner::World;
use asap_net::Loopback;
use asap_overlay::OverlayKind;
use asap_search::{Flooding, FloodingConfig, Gsa, RandomWalk};
use asap_sim::{CheckpointProtocol, Simulation};
use asap_trace::{Backend, DigestSink, LifecycleDigest, TraceSink};

/// The algorithms of the equivalence matrix: all three baselines plus the
/// paper's headline ASAP variant, i.e. one per message-codec family.
pub const SIMNET_ALGOS: [AlgoKind; 4] = [
    AlgoKind::Flooding,
    AlgoKind::RandomWalk,
    AlgoKind::Gsa,
    AlgoKind::AsapRw,
];

/// The fault legs of the matrix: the honest network, then 10 % loss with
/// protocol retries on (rows keyed `<algo>@lossy`).
pub const SIMNET_FAULTS: [FaultProfile; 2] = [FaultProfile::None, FaultProfile::Lossy];

/// Key columns of a `simnet_tiny.txt` line (the row label).
pub const SIMNET_KEY_COLS: usize = 1;

/// One algorithm's two-backend replay outcome.
#[derive(Debug, Clone)]
pub struct SimnetRecord {
    pub algo: AlgoKind,
    pub faults: FaultProfile,
    pub sim: LifecycleDigest,
    pub net: LifecycleDigest,
    pub messages: u64,
    pub succeeded: usize,
    pub wire_errors: u64,
}

impl SimnetRecord {
    /// Row key: the algorithm label, `@<profile>`-suffixed on fault legs.
    pub fn label(&self) -> String {
        if self.faults.is_none() {
            self.algo.label().to_string()
        } else {
            format!("{}@{}", self.algo.label(), self.faults.label())
        }
    }

    /// Digest equality is the sim≡net witness; a wire error means a frame
    /// failed to decode (always fatal to the claim).
    pub fn equivalent(&self) -> bool {
        self.wire_errors == 0
            && self.sim.value() == self.net.value()
            && self.sim.count() == self.net.count()
    }
}

fn digest_of(sink: Box<dyn TraceSink>) -> LifecycleDigest {
    sink.into_any()
        .downcast::<DigestSink>()
        .expect("digest sink comes back out")
        .digest()
}

/// Replay one protocol on both carriers over the same world and overlay.
fn replay_pair<P, F>(world: &World, algo: AlgoKind, faults: FaultProfile, make: F) -> SimnetRecord
where
    P: CheckpointProtocol,
    F: Fn() -> P,
{
    let kind = OverlayKind::Random;
    let (phys, workload, seed) = (&world.phys, &world.workload, world.seed);
    let mut sim = Simulation::builder(phys, workload, world.overlay(kind), kind, make(), seed)
        .trace(Box::new(DigestSink::new(Backend::Sim)));
    let mut net = Loopback::new(phys, workload, world.overlay(kind), kind, make(), seed)
        .trace(Box::new(DigestSink::new(Backend::Net)));
    if !faults.is_none() {
        let peers = world.scale.peers();
        sim = sim.faults(faults.plan(peers));
        net = net.faults(faults.plan(peers));
    }
    let (sim, net) = (sim.run(), net.run());
    debug_assert_eq!(sim.messages_sent, net.messages_sent);
    SimnetRecord {
        algo,
        faults,
        sim: digest_of(sim.trace.expect("sim sink")),
        net: digest_of(net.trace.expect("net sink")),
        messages: sim.messages_sent,
        succeeded: sim.ledger.num_succeeded(),
        wire_errors: net.wire_errors,
    }
}

/// Run the full matrix over the golden world (same scale/seed as the
/// replay golden files), fault-free rows first. Protocol configurations
/// mirror the honest and lossy cells of the replay matrix.
pub fn simnet_records() -> Vec<SimnetRecord> {
    let world = golden_world();
    let scale = world.scale;
    let mut records = Vec::new();
    for faults in SIMNET_FAULTS {
        for algo in SIMNET_ALGOS {
            records.push(match algo {
                AlgoKind::Flooding => replay_pair(&world, algo, faults, || {
                    Flooding::new(FloodingConfig {
                        retransmit: faults.retransmit(),
                        ..FloodingConfig::default()
                    })
                }),
                AlgoKind::RandomWalk => replay_pair(&world, algo, faults, || {
                    RandomWalk::new(scale.random_walk_config(faults.retransmit()))
                }),
                AlgoKind::Gsa => replay_pair(&world, algo, faults, || Gsa::new(scale.gsa_config())),
                AlgoKind::AsapRw => replay_pair(&world, algo, faults, || {
                    algo.build_asap_with(scale, &world.workload.model, faults.robustness())
                }),
                other => unreachable!("{other:?} is not in SIMNET_ALGOS"),
            });
        }
    }
    records
}

/// Render the golden-file body: one line per row,
/// `<algo>[@<faults>] <sim-report> <net-report> <messages> <succeeded>`.
pub fn simnet_lines(records: &[SimnetRecord]) -> String {
    let mut out = format!(
        "# sim/net lifecycle digests: scale=tiny seed={GOLDEN_SEED} overlay=random\n\
         # algo sim net messages succeeded\n"
    );
    for r in records {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            r.label(),
            r.sim.report(),
            r.net.report(),
            r.messages,
            r.succeeded,
        ));
    }
    out
}
