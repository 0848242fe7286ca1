//! Synthetic content model and query/churn trace (paper §IV-B).
//!
//! The paper rebuilds a query trace from an eDonkey content-distribution
//! snapshot (923k files / 37k peers, Nov 2003) that is not redistributable.
//! This crate synthesizes a workload matching every marginal the paper's
//! evaluation actually consumes:
//!
//! * 10,000 peers, documents classified into **14 semantic classes**
//!   (Fig. 2), peer interests derived from owned content, free riders with
//!   random interests (Fig. 3);
//! * per-document copy counts with **mean ≈ 1.28 and ≈ 89 % singletons**
//!   (§V-A) — the property that makes random walk and GSA struggle;
//! * **30,000 search requests**, each guaranteed ≥ 1 matching document on a
//!   live peer at issue time, 10 % followed by a content change;
//! * **1,000 join + 1,000 departure** events over a population that starts
//!   wholly online (rejoin churn: departures feed the pool joins revive
//!   from); Poisson arrivals, λ = 8/s.
//!
//! One switch departs from the paper's homogeneous trace:
//! [`WorkloadConfig::flash_crowd`] compresses the middle fifth of the
//! query arrivals sixfold, for the flash-crowd scenario.
//!
//! The generator replays its own churn/content state chronologically while
//! emitting events, so the "always answerable" invariant holds by
//! construction (and is re-checked by tests).

pub mod codec;
pub mod config;
pub mod content;
pub mod ids;
pub mod state;
pub mod trace;
pub mod vocab;
pub mod zipf;

pub use asap_overlay::PeerId;
pub use config::WorkloadConfig;
pub use content::ContentModel;
pub use ids::{ClassId, DocId, InterestSet, KeywordId};
pub use state::{ContentState, Holdings};
pub use trace::{QuerySpec, Trace, TraceEvent};
pub use vocab::Vocabulary;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A fully generated workload: the static content model and the event
/// trace. Every peer is online when the trace starts.
#[derive(Debug)]
pub struct Workload {
    pub model: ContentModel,
    pub trace: Trace,
}

/// Generate the complete workload for `config`. Deterministic in
/// `config.seed`.
pub fn generate(config: &WorkloadConfig) -> Workload {
    config.validate();
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x40AD_10AD);
    let model = content::generate_model(config, &mut rng);
    let trace = trace::generate_trace(config, &model, &mut rng);
    Workload { model, trace }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_reduced_workload() {
        let cfg = WorkloadConfig::reduced(300, 500, 77);
        let w = generate(&cfg);
        assert_eq!(w.model.num_peers(), 300);
        assert_eq!(
            w.trace
                .events
                .iter()
                .filter(|e| matches!(e.event, TraceEvent::Query(_)))
                .count(),
            500
        );
    }

    #[test]
    fn deterministic() {
        let cfg = WorkloadConfig::reduced(200, 300, 5);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.trace.events.len(), b.trace.events.len());
        for (x, y) in a.trace.events.iter().zip(&b.trace.events) {
            assert_eq!(x.time_us, y.time_us);
        }
    }
}
