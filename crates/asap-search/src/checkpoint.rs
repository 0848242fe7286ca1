//! Checkpoint codecs for the baseline protocols ([`CheckpointProtocol`]).
//!
//! Static configuration (walker counts, budgets, retransmit policy) is
//! never serialized — the resume caller reconstructs each protocol with the
//! same configuration the original run used. Only dynamic cross-event state
//! rides the checkpoint: the flooding dedup window and the per-query
//! retransmission tables (maps serialize in ascending key order, so
//! encode → decode → re-encode is byte-identical). [`BaselineMsg`]'s field
//! list below is also its `asap-net` wire payload.

use crate::common::{BaselineMsg, RetransmitState, SeenTracker};
use crate::flooding::{Flooding, SEEN_WINDOW};
use crate::gsa::Gsa;
use crate::random_walk::RandomWalk;
use asap_sim::checkpoint::{CheckpointProtocol, Codec, CodecError, Decoder, Encoder};
use asap_sim::{codec_enum, codec_struct};

codec_enum!(BaselineMsg {
    0 => Flood { query, requester, terms, ttl },
    1 => Walk { query, requester, terms, ttl },
    2 => Gsa { query, requester, terms, budget },
    3 => Hit { query, results },
});
codec_struct!(RetransmitState {
    requester,
    terms,
    backoff
});

impl CheckpointProtocol for Flooding {
    fn encode_state(&self, enc: &mut Encoder) {
        self.seen.put(enc);
        self.retrans.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.seen = SeenTracker::pull_window(dec, SEEN_WINDOW)?;
        self.retrans = Codec::pull(dec)?;
        Ok(())
    }
}

impl CheckpointProtocol for RandomWalk {
    fn encode_state(&self, enc: &mut Encoder) {
        self.retrans.put(enc);
    }

    fn decode_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        self.retrans = Codec::pull(dec)?;
        Ok(())
    }
}

impl CheckpointProtocol for Gsa {
    // GSA carries its whole search state inside the probes themselves.
    fn encode_state(&self, _enc: &mut Encoder) {}

    fn decode_state(&mut self, _dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::FloodingConfig;
    use crate::gsa::GsaConfig;
    use crate::random_walk::RandomWalkConfig;
    use crate::testutil::world;
    use crate::Retransmit;
    use asap_overlay::OverlayKind;
    use asap_overlay::PeerId;
    use asap_sim::checkpoint::{assert_canonical, Checkpoint};
    use asap_sim::{AuditConfig, Simulation};
    use asap_workload::KeywordId;
    use std::rc::Rc;

    #[test]
    fn baseline_msg_codec_roundtrips() {
        let terms: Rc<[KeywordId]> = vec![KeywordId(3), KeywordId(99)].into();
        assert_canonical(&BaselineMsg::Flood {
            query: 7,
            requester: PeerId(2),
            terms: Rc::clone(&terms),
            ttl: 6,
        });
        assert_canonical(&BaselineMsg::Walk {
            query: 8,
            requester: PeerId(0),
            terms: Rc::clone(&terms),
            ttl: 1024,
        });
        assert_canonical(&BaselineMsg::Gsa {
            query: 9,
            requester: PeerId(5),
            terms,
            budget: 8000,
        });
        assert_canonical(&BaselineMsg::Hit {
            query: 7,
            results: 3,
        });
    }

    #[test]
    fn baseline_msg_decode_rejects_bad_tag() {
        let bytes = [9u8];
        let mut dec = Decoder::new(&bytes);
        assert!(matches!(
            BaselineMsg::pull(&mut dec),
            Err(CodecError::BadTag)
        ));
    }

    /// Run `make()` twice over the same world: once uninterrupted, once
    /// split at `t_mid` through a serialized checkpoint (bytes roundtripped
    /// through `Checkpoint::from_bytes`). Digests must match bit-for-bit.
    fn assert_split_run_identical<P, F>(make: F, seed: u64)
    where
        P: CheckpointProtocol,
        F: Fn() -> P,
    {
        let (phys, workload, overlay) = world(120, 150, seed);
        let cold = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            make(),
            seed,
        )
        .audit(AuditConfig::default())
        .run();
        let cold_audit = cold.audit.expect("audited run");
        assert!(cold_audit.is_clean(), "{:?}", cold_audit.violations);

        let t_mid = workload.trace.duration_us() / 2;
        let mut first = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            make(),
            seed,
        )
        .audit(AuditConfig::default())
        .build();
        first.run_until(t_mid);
        let ckpt = first.checkpoint();
        drop(first);

        // Roundtrip through raw bytes, as a file-based resume would.
        let ckpt = Checkpoint::from_bytes(ckpt.into_bytes()).expect("self-produced bytes");
        let resumed = Simulation::resume(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            make(),
            &ckpt,
        )
        .expect("resume");
        let warm = resumed.run();
        let warm_audit = warm.audit.expect("audited resume");

        assert_eq!(
            cold_audit.digest, warm_audit.digest,
            "split run digest diverged"
        );
        assert_eq!(cold.messages_sent, warm.messages_sent);
        assert_eq!(cold.end_time_us, warm.end_time_us);
        assert_eq!(cold.ledger.num_queries(), warm.ledger.num_queries());
        assert_eq!(cold.ledger.num_succeeded(), warm.ledger.num_succeeded());
        assert_eq!(cold.profile, warm.profile);
    }

    #[test]
    fn flooding_split_run_is_bit_identical() {
        assert_split_run_identical(|| Flooding::new(FloodingConfig::default()), 51);
    }

    #[test]
    fn flooding_with_retransmit_split_run_is_bit_identical() {
        assert_split_run_identical(
            || {
                Flooding::new(FloodingConfig {
                    retransmit: Some(Retransmit),
                })
            },
            52,
        );
    }

    #[test]
    fn random_walk_split_run_is_bit_identical() {
        assert_split_run_identical(|| RandomWalk::new(RandomWalkConfig::default()), 53);
    }

    #[test]
    fn gsa_split_run_is_bit_identical() {
        assert_split_run_identical(|| Gsa::new(GsaConfig::default()), 54);
    }

    #[test]
    fn checkpoint_before_first_event_resumes_cleanly() {
        let seed = 55;
        let (phys, workload, overlay) = world(80, 60, seed);
        let cold = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            seed,
        )
        .audit(AuditConfig::default())
        .run();

        // Checkpoint a freshly built simulation: on_init has not run yet,
        // so the resumed run must still perform initialization.
        let fresh = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            seed,
        )
        .audit(AuditConfig::default())
        .build();
        let ckpt = fresh.checkpoint();
        drop(fresh);
        let warm = Simulation::resume(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            &ckpt,
        )
        .expect("resume")
        .run();
        assert_eq!(
            cold.audit.unwrap().digest,
            warm.audit.unwrap().digest,
            "pre-run checkpoint diverged"
        );
    }

    #[test]
    fn resume_rejects_mismatched_world() {
        let seed = 56;
        let (phys, workload, overlay) = world(80, 60, seed);
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            seed,
        )
        .build();
        sim.run_until(workload.trace.duration_us() / 4);
        let ckpt = sim.checkpoint();
        drop(sim);
        // Different seed on the builder → refused.
        let err = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            seed + 1,
        )
        .from_checkpoint(&ckpt)
        .err()
        .expect("mismatched seed must be rejected");
        assert!(matches!(err, CodecError::Invalid(_)));
    }

    /// A flooding checkpoint whose seen tracker carries another window than
    /// [`SEEN_WINDOW`] resumed `Ok` and ran under a different eviction
    /// policy; it is refused at decode.
    #[test]
    fn seen_window_other_than_the_protocols_is_rejected() {
        let seed = 58;
        let (phys, workload, overlay) = world(80, 60, seed);
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay.clone(),
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            seed,
        )
        .build();
        sim.run_until(workload.trace.duration_us() / 2);
        let bytes = sim.checkpoint().into_bytes();
        let mut state = Encoder::new();
        sim.protocol().encode_state(&mut state);
        let state = state.into_bytes();
        drop(sim);
        // The protocol section closes the body, ahead of the 8-byte checksum.
        let body = &bytes[..bytes.len() - 8];
        assert!(
            body.ends_with(&state),
            "the protocol section closes the body"
        );
        let mut flooding = Flooding::new(FloodingConfig::default());
        flooding
            .decode_state(&mut Decoder::new(&state))
            .expect("own state decodes");
        flooding.seen = SeenTracker::new(100_000);
        let mut enc = Encoder::new();
        flooding.encode_state(&mut enc);
        let mut spliced = body[..body.len() - state.len()].to_vec();
        spliced.extend_from_slice(&enc.into_bytes());
        let mut sum = asap_sim::checkpoint::Fnv64::new();
        sum.write_bytes(&spliced);
        spliced.extend_from_slice(&sum.finish().to_le_bytes());
        let ckpt = Checkpoint::from_bytes(spliced).expect("resealed bytes parse");
        let err = Simulation::resume(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig::default()),
            &ckpt,
        )
        .err()
        .expect("a foreign seen window must be rejected");
        assert_eq!(
            err,
            CodecError::Invalid("seen window is not the protocol's")
        );
    }

    #[test]
    fn state_reencode_is_byte_identical() {
        // Drive a flooding run halfway, then encode → decode → re-encode
        // the protocol state and compare bytes.
        let seed = 57;
        let (phys, workload, overlay) = world(100, 120, seed);
        let mut sim = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            Flooding::new(FloodingConfig {
                retransmit: Some(Retransmit),
            }),
            seed,
        )
        .build();
        sim.run_until(workload.trace.duration_us() / 2);
        let ckpt1 = sim.checkpoint();
        // A full re-decode + re-encode of the whole checkpoint: resume then
        // immediately checkpoint again without stepping.
        let (phys2, workload2, overlay2) = world(100, 120, seed);
        let resumed = Simulation::resume(
            &phys2,
            &workload2,
            overlay2,
            OverlayKind::Random,
            Flooding::new(FloodingConfig {
                retransmit: Some(Retransmit),
            }),
            &ckpt1,
        )
        .expect("resume");
        let ckpt2 = resumed.checkpoint();
        assert_eq!(
            ckpt1.as_bytes(),
            ckpt2.as_bytes(),
            "checkpoint re-encode differs"
        );
    }
}
