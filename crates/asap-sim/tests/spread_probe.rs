//! The dissemination kernel through the real engine, on a hand-built
//! overlay: what `spread`'s unit tests cannot reach without a world (the
//! `Transport`-facing halves of `walk_next`, `fan_out` and `disperse`).

use asap_overlay::{Overlay, OverlayKind, PeerId};
use asap_sim::{spread, Protocol, Simulation, Transport};
use asap_topology::{PhysicalNetwork, TransitStubConfig};
use asap_workload::{QuerySpec, WorkloadConfig};
use rand::Rng;

/// A star: 0 is isolated, 1 the hub, 2..=5 its leaves.
fn star() -> Vec<Vec<PeerId>> {
    let adj: [&[u32]; 6] = [&[], &[2, 3, 4, 5], &[1], &[1], &[1], &[1]];
    adj.map(|l| l.iter().map(|&p| PeerId(p)).collect()).into()
}

/// The value the decision stream would yield next, without consuming it.
fn next_draw<C: Transport>(ctx: &mut C) -> u64 {
    ctx.rng().clone().gen()
}

/// Runs every check from `on_init`, the first hook that sees a `ctx`.
struct Probe {
    checked: bool,
}

impl Protocol for Probe {
    type Msg = ();

    fn on_init<C: Transport<Msg = ()>>(&mut self, ctx: &mut C) {
        let (isolated, hub, leaf) = (PeerId(0), PeerId(1), PeerId(2));
        let leaves = &star()[hub.index()];

        // walk_next: dies at an isolated node, takes the only way on at a
        // leaf (back where it came from included) without drawing …
        let before = next_draw(ctx);
        assert_eq!(spread::walk_next(ctx, isolated, None), None);
        assert_eq!(spread::walk_next(ctx, leaf, None), Some(hub));
        assert_eq!(spread::walk_next(ctx, leaf, Some(hub)), Some(hub));
        assert_eq!(next_draw(ctx), before, "degree ≤ 1 must not draw");
        // … and at degree ≥ 2 never steps straight back.
        for &came_from in leaves {
            for _ in 0..200 {
                let next = spread::walk_next(ctx, hub, Some(came_from)).expect("degree 4");
                assert!(next != came_from && leaves.contains(&next));
            }
        }

        // fan_out: adjacency order, minus what `keep` rejects, counted.
        let before = next_draw(ctx);
        let mut visited = Vec::new();
        let sent = spread::fan_out(ctx, hub, |t| t != PeerId(4), |_, t| visited.push(t));
        assert_eq!(
            (sent, &visited[..]),
            (3, &[PeerId(2), PeerId(3), PeerId(5)][..])
        );
        assert_eq!(
            spread::fan_out(ctx, isolated, |_| true, |_, _| unreachable!()),
            0
        );

        // disperse: nothing to spend or nowhere to go is `None`. Neither
        // that nor the flood above draws.
        assert!(spread::disperse(ctx, hub, None, 0, 4, spread::pick_front).is_none());
        assert!(spread::disperse(ctx, isolated, None, 9, 4, spread::pick_front).is_none());
        assert_eq!(next_draw(ctx), before);

        self.checked = true;
    }

    fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
    fn on_message<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: PeerId, _: PeerId, _: ()) {}
}

#[test]
fn kernel_holds_its_contract_on_a_real_transport() {
    let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(5));
    let workload = asap_workload::generate(&WorkloadConfig {
        joins: 0,
        leaves: 0,
        ..WorkloadConfig::reduced(6, 4, 5)
    });
    let overlay = Overlay::from_adjacency(star()).expect("an undirected graph");
    let probe = Probe { checked: false };
    let report =
        Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, probe, 5).run();
    assert!(report.protocol.checked, "on_init ran the probe");
    assert_eq!(report.messages_sent, 0, "the probe only picks hops");
}
