//! Ad dissemination: the three forwarding schemes.
//!
//! A delivery's cost envelope follows the paper: flooding is TTL-bounded;
//! RW/GSA deliveries spend at most `topics × M₀` messages, M₀ = 3,000
//! ("the total budget for one ad delivery can be determined by the number of
//! topics in the ad and a budget unit M₀ = 3000").

use crate::ad::{AdPayload, AsapMsg, Forwarding};
use crate::config::DeliveryKind;
use asap_metrics::MsgClass;
use asap_overlay::PeerId;
use asap_sim::{spread, Transport};

/// Hop limit of ASAP(FLD) ("Ad flooding in ASAP(FLD) also sets TTL equal to
/// 6").
pub const AD_FLOOD_TTL: u8 = 6;
/// Walkers of an ASAP(RW) delivery ("5 walkers are used in ASAP(RW)").
pub const AD_WALKERS: u32 = 5;
/// Fan-out of an ASAP(GSA) dispersal while the budget is plentiful.
pub const AD_BRANCH: u32 = 4;

/// Load-accounting class of an ad payload.
pub(crate) fn ad_class(payload: &AdPayload) -> MsgClass {
    match payload {
        AdPayload::Full(_) => MsgClass::FullAd,
        AdPayload::Patch { .. } => MsgClass::PatchAd,
        AdPayload::Refresh { .. } => MsgClass::RefreshAd,
    }
}

/// Kick off a fresh delivery of `payload` from `source`. `delivery` is the
/// unique id used for duplicate suppression of flooded ads.
pub(crate) fn start_delivery<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    kind: DeliveryKind,
    budget_unit: u32,
    source: PeerId,
    payload: AdPayload,
    delivery: u64,
) {
    let topics = payload.topics().len().max(1) as u32;
    let budget = (topics * budget_unit).max(1);
    let class = ad_class(&payload);
    ctx.trace(|| asap_sim::trace::Event::AdPublished {
        node: source,
        class,
    });
    match kind {
        DeliveryKind::Flooding => {
            // Flooding's envelope is its TTL, not the budget.
            let fwd = Forwarding::Flood { ttl: AD_FLOOD_TTL };
            fan_to_all(ctx, source, None, payload, delivery, fwd);
        }
        DeliveryKind::RandomWalk => {
            let per_walker = (budget / AD_WALKERS).max(1);
            for _ in 0..AD_WALKERS {
                walk_step(ctx, source, None, payload.clone(), delivery, per_walker);
            }
        }
        DeliveryKind::Gsa => gsa_disperse(ctx, source, None, payload, delivery, budget),
    }
}

/// Continue a delivery after `node` processed the ad.
pub(crate) fn continue_delivery<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    node: PeerId,
    came_from: PeerId,
    payload: AdPayload,
    delivery: u64,
    fwd: Forwarding,
) {
    match fwd {
        Forwarding::Direct => {}
        Forwarding::Flood { ttl } => {
            if ttl > 1 {
                fan_to_all(
                    ctx,
                    node,
                    Some(came_from),
                    payload,
                    delivery,
                    Forwarding::Flood { ttl: ttl - 1 },
                );
            }
        }
        Forwarding::Walk { budget } => {
            if budget > 0 {
                walk_step(ctx, node, Some(came_from), payload, delivery, budget);
            }
        }
        Forwarding::Gsa { budget } => {
            gsa_disperse(ctx, node, Some(came_from), payload, delivery, budget);
        }
    }
}

fn send_ad<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    from: PeerId,
    to: PeerId,
    payload: AdPayload,
    delivery: u64,
    fwd: Forwarding,
) {
    let class = ad_class(&payload);
    let bytes = payload.encoded_size();
    ctx.send(
        from,
        to,
        class,
        bytes,
        AsapMsg::Ad {
            payload,
            fwd,
            delivery,
        },
    );
}

fn fan_to_all<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    node: PeerId,
    exclude: Option<PeerId>,
    payload: AdPayload,
    delivery: u64,
    fwd: Forwarding,
) {
    let send = |ctx: &mut C, t| send_ad(ctx, node, t, payload.clone(), delivery, fwd);
    spread::fan_out(ctx, node, |t| Some(t) != exclude, send);
}

/// One walker hop: uniform random neighbor avoiding immediate backtrack.
/// The hop itself costs one unit of budget.
fn walk_step<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    node: PeerId,
    came_from: Option<PeerId>,
    payload: AdPayload,
    delivery: u64,
    budget: u32,
) {
    if let Some(next) = spread::walk_next(ctx, node, came_from) {
        let fwd = Forwarding::Walk { budget: budget - 1 };
        send_ad(ctx, node, next, payload, delivery, fwd);
    }
}

/// GSA-style dispersal: fan to up to [`AD_BRANCH`] random neighbors while the
/// budget is plentiful, degenerate to a walk once it is not.
fn gsa_disperse<C: Transport<Msg = AsapMsg>>(
    ctx: &mut C,
    node: PeerId,
    exclude: Option<PeerId>,
    payload: AdPayload,
    delivery: u64,
    budget: u32,
) {
    // `pick_front` is this side's arrangement (see `spread`'s module docs).
    let Some(hops) = spread::disperse(ctx, node, exclude, budget, AD_BRANCH, spread::pick_front)
    else {
        return;
    };
    for (n, b) in hops.shares() {
        send_ad(
            ctx,
            node,
            n,
            payload.clone(),
            delivery,
            Forwarding::Gsa { budget: b },
        );
    }
}
