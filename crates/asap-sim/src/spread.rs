//! The dissemination kernel: how a message picks its next hops.
//!
//! The paper derives ASAP(FLD), ASAP(RW) and ASAP(GSA) by reusing the query
//! baselines' forwarding for ads (§IV-A), so each strategy is written once
//! here and called from both sides. These functions pick hops and nothing
//! else: the message, its billed bytes and `MsgClass`, and every trace
//! event stay with the caller.
//!
//! # Contract
//!
//! **Draws** come from [`Transport::rng`] only, and their number and order
//! is part of every golden digest: [`fan_out`] none; [`walk_next`] none at
//! degree ≤ 1, else `gen_range(0..degree)` until the pick is not
//! `came_from`; [`pick_front`] `min(k, len)` draws, `gen_range(i..len)` for
//! ascending `i`; [`disperse`] whatever its `arrange` draws, once, after
//! staging.
//!
//! **Nothing is allocated** per call: [`fan_out`] re-borrows the neighbor
//! slice each iteration (a send only enqueues an event; the overlay cannot
//! change mid-event) and [`disperse`] stages candidates in the backend's
//! scratch buffer, which the returned [`Dispersal`] hands back on drop.
//!
//! **`arrange` is a parameter** because the two GSA callers have always
//! ordered candidates differently — the query baseline with
//! `SliceRandom::shuffle` (`len − 1` draws, back to front), ad delivery with
//! [`pick_front`] (`fan` draws, front to back). Either puts a uniform random
//! `fan`-subset in front, but unifying them would re-pin every GSA digest.
//! Each call site fixes it in code; it is not a setting.

use crate::transport::{ScratchGuard, Transport};
use asap_overlay::PeerId;
use rand::rngs::SmallRng;
use rand::Rng;

/// Flood step: call `send(ctx, t)` for every neighbor `t` of `node` that
/// `keep` accepts, in adjacency order. Returns how many were sent to.
#[inline]
pub fn fan_out<C: Transport>(
    ctx: &mut C,
    node: PeerId,
    keep: impl Fn(PeerId) -> bool,
    mut send: impl FnMut(&mut C, PeerId),
) -> u32 {
    let mut sent = 0;
    let mut i = 0;
    while let Some(&t) = ctx.neighbors(node).get(i) {
        i += 1;
        if keep(t) {
            sent += 1;
            send(ctx, t);
        }
    }
    sent
}

/// Walk step: a uniformly random neighbor of `node`, avoiding an immediate
/// backtrack to `came_from` unless it is the only way on. `None` at an
/// isolated node (the walker dies there).
#[inline]
pub fn walk_next<C: Transport>(
    ctx: &mut C,
    node: PeerId,
    came_from: Option<PeerId>,
) -> Option<PeerId> {
    match ctx.neighbors(node).len() {
        0 => None,
        1 => Some(ctx.neighbors(node)[0]),
        degree => loop {
            let i = ctx.rng().gen_range(0..degree);
            let cand = ctx.neighbors(node)[i];
            if Some(cand) != came_from {
                break Some(cand);
            }
        },
    }
}

/// Partial Fisher–Yates: after the call the first `min(k, len)` items are a
/// uniform random sample of `items`, in random order.
#[inline]
pub fn pick_front<T, R: Rng + ?Sized>(rng: &mut R, items: &mut [T], k: usize) {
    for i in 0..k.min(items.len()) {
        let j = rng.gen_range(i..items.len());
        items.swap(i, j);
    }
}

/// GSA step: spend `budget` messages from `node` on up to `branch` random
/// neighbors other than `exclude` — a single one once the budget is
/// walk-sized (`budget < 2·branch`), and `exclude` itself at a dead end
/// rather than dying. `arrange(rng, candidates, fan)` must leave the chosen
/// `fan` candidates in front (see the module docs for why it is passed
/// in). `None` when there is nothing to spend or nowhere to go.
#[inline]
pub fn disperse<C: Transport>(
    ctx: &mut C,
    node: PeerId,
    exclude: Option<PeerId>,
    budget: u32,
    branch: u32,
    arrange: impl FnOnce(&mut SmallRng, &mut [PeerId], usize),
) -> Option<Dispersal> {
    if budget == 0 {
        return None;
    }
    let mut targets = ctx.scratch();
    stage(&mut targets, ctx.neighbors(node), exclude);
    Dispersal::settle(targets, budget, branch, ctx.rng(), arrange)
}

/// Candidate staging: every neighbor but `exclude`; all of them when that
/// leaves none (the dead end backtracks).
#[inline]
fn stage(staged: &mut Vec<PeerId>, nbrs: &[PeerId], exclude: Option<PeerId>) {
    staged.extend(nbrs.iter().copied().filter(|&n| Some(n) != exclude));
    if staged.is_empty() {
        staged.extend_from_slice(nbrs);
    }
}

/// The hops one [`disperse`] call chose, and what each may spend. Owns the
/// scratch lease, so the caller keeps full use of `ctx` while sending.
pub struct Dispersal {
    targets: ScratchGuard,
    budget: u32,
}

impl Dispersal {
    /// The step over staged candidates: fan width, arrangement, cut.
    /// (`always`: LLVM otherwise keeps one outlined copy per arrangement.)
    #[inline(always)]
    fn settle(
        mut targets: ScratchGuard,
        budget: u32,
        branch: u32,
        rng: &mut SmallRng,
        arrange: impl FnOnce(&mut SmallRng, &mut [PeerId], usize),
    ) -> Option<Self> {
        if targets.is_empty() {
            return None;
        }
        // Walk mode when the budget can't feed a real fan-out.
        let fan = if budget < 2 * branch {
            1
        } else {
            (branch as usize).min(targets.len())
        };
        arrange(rng, &mut targets, fan);
        targets.truncate(fan);
        Some(Self { targets, budget })
    }

    /// Number of hops chosen (≥ 1).
    #[inline]
    pub fn fan(&self) -> u32 {
        self.targets.len() as u32
    }

    /// `(target, budget)` per hop. Each send costs one message; what
    /// remains is split evenly, the first `remaining % fan` targets
    /// carrying one extra.
    #[inline]
    pub fn shares(&self) -> impl Iterator<Item = (PeerId, u32)> + '_ {
        let fan = self.fan();
        let remaining = self.budget - fan;
        let (share, extra) = (remaining / fan, (remaining % fan) as usize);
        self.targets
            .iter()
            .enumerate()
            .map(move |(i, &t)| (t, share + u32::from(i < extra)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ScratchSlot;
    use rand::SeedableRng;

    /// The partial shuffle as `gsa_disperse`, `SuperAsap::run_search` and
    /// `Simulation::assemble` each used to spell it.
    fn reference_partial_shuffle<T>(rng: &mut SmallRng, items: &mut [T], k: usize) {
        for i in 0..k.min(items.len()) {
            let j = rng.gen_range(i..items.len());
            items.swap(i, j);
        }
    }

    /// The share/extra split as `gsa_disperse` used to spell it.
    fn reference_shares(nbrs: &[PeerId], budget: u32) -> Vec<(PeerId, u32)> {
        let mut sent = Vec::new();
        let fan = nbrs.len() as u32;
        let remaining = budget - fan;
        let share = remaining / fan;
        let mut extra = remaining % fan;
        for &n in nbrs.iter() {
            let b = share + u32::from(extra > 0);
            extra = extra.saturating_sub(1);
            sent.push((n, b));
        }
        sent
    }

    /// [`disperse`] past its zero-budget check, without a world.
    fn disperse_plain(
        rng: &mut SmallRng,
        neighbors: &[PeerId],
        exclude: Option<PeerId>,
        budget: u32,
        branch: u32,
    ) -> Option<Dispersal> {
        let mut staged = ScratchSlot::default().lease();
        stage(&mut staged, neighbors, exclude);
        Dispersal::settle(staged, budget, branch, rng, pick_front)
    }

    #[test]
    fn pick_front_matches_the_old_partial_shuffle_draw_for_draw() {
        for len in [0usize, 1, 2, 7, 64] {
            for k in [0, 1, len.saturating_sub(1), len, len + 3] {
                let (mut a, mut b) = (SmallRng::seed_from_u64(7), SmallRng::seed_from_u64(7));
                let mut got: Vec<usize> = (0..len).collect();
                let mut want = got.clone();
                pick_front(&mut a, &mut got, k);
                reference_partial_shuffle(&mut b, &mut want, k);
                assert_eq!(got, want, "len {len} k {k}: arrangement");
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "len {len} k {k}: draws");
            }
        }
    }

    #[test]
    fn shares_follow_the_old_arithmetic_over_the_whole_sweep() {
        let mut rng = SmallRng::seed_from_u64(11);
        for degree in 1..=8u32 {
            // The sender is neighbor 0, so `degree - 1` candidates remain
            // (and at degree 1 the dead end backtracks to it).
            let nbrs: Vec<PeerId> = (0..degree).map(PeerId).collect();
            let candidates = (degree - 1).max(1);
            for branch in 1..=6u32 {
                for budget in 1..=64u32 {
                    let at = format!("degree {degree} branch {branch} budget {budget}");
                    let hops = disperse_plain(&mut rng, &nbrs, Some(PeerId(0)), budget, branch)
                        .expect("a positive budget and a neighbor always disperse");
                    let got: Vec<(PeerId, u32)> = hops.shares().collect();
                    let targets: Vec<PeerId> = got.iter().map(|s| s.0).collect();
                    assert_eq!(got, reference_shares(&targets, budget), "{at}");
                    assert!(
                        degree == 1 || !targets.contains(&PeerId(0)),
                        "{at}: {got:?}"
                    );

                    let fan = hops.fan();
                    let walk = budget < 2 * branch || branch == 1 || candidates == 1;
                    assert_eq!(fan == 1, walk, "{at}: walk mode");
                    let rest = budget - fan;
                    assert_eq!(got.iter().map(|s| s.1).sum::<u32>(), rest, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_dead_end_backtracks_and_an_isolated_node_disperses_nothing() {
        let mut rng = SmallRng::seed_from_u64(1);
        let back = PeerId(9);
        let hops = disperse_plain(&mut rng, &[back], Some(back), 10, 4).expect("backtracks");
        assert_eq!(hops.shares().collect::<Vec<_>>(), vec![(back, 9)]);
        assert!(disperse_plain(&mut rng, &[], Some(back), 10, 4).is_none());
    }
}
