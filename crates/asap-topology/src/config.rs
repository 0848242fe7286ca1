//! Transit-stub generation parameters (paper §IV-A).

/// Parameters of the GT-ITM transit-stub construction.
///
/// The paper's instance: 9 transit domains averaging 16 transit nodes each;
/// every transit node hangs 9 stub domains averaging 40 stub nodes; edge
/// probabilities 0.6 (intra-transit) and 0.4 (intra-stub); latencies 50 / 20 /
/// 5 / 2 ms by tier. That yields 144 + 51,840 = 51,984 physical nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitStubConfig {
    /// Number of transit domains (fully connected at the top level).
    pub transit_domains: u32,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: u32,
    /// Stub domains attached to each transit node.
    pub stub_domains_per_transit_node: u32,
    /// Stub nodes per stub domain.
    pub stub_nodes_per_domain: u32,
    /// Probability of an edge between two transit nodes of one domain.
    pub p_transit_edge: f64,
    /// Probability of an edge between two stub nodes of one stub domain.
    pub p_stub_edge: f64,
    /// Latency of an inter-transit-domain link, µs (paper: 50 ms).
    pub lat_inter_transit_us: u64,
    /// Latency of a link between two transit nodes in one domain, µs (20 ms).
    pub lat_intra_transit_us: u64,
    /// Latency of a transit-node → stub-node link, µs (5 ms).
    pub lat_transit_stub_us: u64,
    /// Latency of a link between two stub nodes in one domain, µs (2 ms).
    pub lat_intra_stub_us: u64,
    /// RNG seed for edge sampling.
    pub seed: u64,
    /// Wire each stub domain from its own derived RNG stream (seeded from
    /// `(seed, domain index)`) instead of threading one sequential stream
    /// through the whole construction. Domains become independent, so the
    /// generator streams one domain at a time with O(domain) working state
    /// and never depends on how many domains preceded it. Changes the edge
    /// sample for a given seed, so the pre-existing tiers keep this `false`
    /// (their pinned golden digests depend on the sequential stream); the
    /// xl tier turns it on.
    pub stream_stub_domains: bool,
}

impl TransitStubConfig {
    /// The paper's exact instance (51,984 physical nodes).
    pub fn paper_default(seed: u64) -> Self {
        Self {
            transit_domains: 9,
            transit_nodes_per_domain: 16,
            stub_domains_per_transit_node: 9,
            stub_nodes_per_domain: 40,
            p_transit_edge: 0.6,
            p_stub_edge: 0.4,
            lat_inter_transit_us: 50_000,
            lat_intra_transit_us: 20_000,
            lat_transit_stub_us: 5_000,
            lat_intra_stub_us: 2_000,
            seed,
            stream_stub_domains: false,
        }
    }

    /// The xl instance for the 100k-peer scale leg: 12 × 16 transit nodes,
    /// 9 stub domains × 60 nodes per transit node ⇒ 192 + 103,680 = 103,872
    /// physical nodes, wired with the streamed per-domain RNG.
    pub fn xl(seed: u64) -> Self {
        Self {
            transit_domains: 12,
            transit_nodes_per_domain: 16,
            stub_domains_per_transit_node: 9,
            stub_nodes_per_domain: 60,
            stream_stub_domains: true,
            ..Self::paper_default(seed)
        }
    }

    /// A structurally identical but much smaller instance for tests and the
    /// reduced experiment scale: 3 × 4 transit nodes, 3 stub domains each of
    /// 8 nodes ⇒ 12 + 288 = 300 physical nodes.
    pub fn reduced(seed: u64) -> Self {
        Self {
            transit_domains: 3,
            transit_nodes_per_domain: 4,
            stub_domains_per_transit_node: 3,
            stub_nodes_per_domain: 8,
            ..Self::paper_default(seed)
        }
    }

    /// A mid-size instance used by the default experiment scale: 6 transit
    /// domains × 8 transit nodes, 5 stub domains × 21 nodes per transit
    /// node ⇒ 48 + 5,040 = 5,088 physical nodes.
    pub fn medium(seed: u64) -> Self {
        Self {
            transit_domains: 6,
            transit_nodes_per_domain: 8,
            stub_domains_per_transit_node: 5,
            stub_nodes_per_domain: 21,
            ..Self::paper_default(seed)
        }
    }

    /// Total number of physical nodes this configuration produces, exact
    /// up to `u64::MAX` (saturating beyond, which `validate` rejects).
    pub fn expected_nodes(&self) -> usize {
        self.node_count() as usize
    }

    fn node_count(&self) -> u64 {
        let transit = u64::from(self.transit_domains) * u64::from(self.transit_nodes_per_domain);
        let per_transit =
            u64::from(self.stub_domains_per_transit_node) * u64::from(self.stub_nodes_per_domain);
        transit.saturating_mul(per_transit).saturating_add(transit)
    }

    /// Panic with a clear message when a parameter is degenerate, when the
    /// node ids would not fit a `u32`, when a stub domain is too large for
    /// the oracle's `u16` hop tables, or when a link latency would not fit
    /// the graph's `u32` µs weights.
    pub fn validate(&self) {
        assert!(
            self.transit_domains >= 1,
            "need at least one transit domain"
        );
        assert!(
            self.transit_nodes_per_domain >= 1,
            "need at least one transit node per domain"
        );
        assert!(
            self.stub_nodes_per_domain >= 1,
            "need at least one stub node per stub domain"
        );
        // Hop counts are u16 and u16::MAX marks an unreached pair: at most
        // u16::MAX nodes keep the longest path at 65,534 hops.
        assert!(
            self.stub_nodes_per_domain <= u32::from(u16::MAX),
            "{} stub nodes per domain overflow the u16 hop tables (at most {})",
            self.stub_nodes_per_domain,
            u16::MAX
        );
        assert!(
            (0.0..=1.0).contains(&self.p_transit_edge) && (0.0..=1.0).contains(&self.p_stub_edge),
            "edge probabilities must be in [0, 1]"
        );
        assert!(
            self.node_count() <= u64::from(u32::MAX),
            "{} physical nodes overflow the u32 node ids (at most {})",
            self.node_count(),
            u32::MAX
        );
        assert!(
            [
                self.lat_inter_transit_us,
                self.lat_intra_transit_us,
                self.lat_transit_stub_us,
                self.lat_intra_stub_us,
            ]
            .iter()
            .all(|&us| us <= u64::from(u32::MAX)),
            "link latencies must fit u32 µs"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_counts() {
        assert_eq!(TransitStubConfig::reduced(0).expected_nodes(), 300);
    }

    #[test]
    fn medium_counts() {
        assert_eq!(
            TransitStubConfig::medium(0).expected_nodes(),
            48 + 48 * 5 * 21
        );
    }

    #[test]
    fn validate_accepts_defaults() {
        TransitStubConfig::paper_default(1).validate();
        TransitStubConfig::reduced(1).validate();
        TransitStubConfig::medium(1).validate();
        TransitStubConfig::xl(1).validate();
    }

    #[test]
    fn xl_counts() {
        let cfg = TransitStubConfig::xl(0);
        assert_eq!(cfg.expected_nodes(), 103_872);
        assert!(cfg.stream_stub_domains);
    }

    #[test]
    #[should_panic(expected = "transit domain")]
    fn validate_rejects_zero_domains() {
        let mut c = TransitStubConfig::reduced(0);
        c.transit_domains = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "overflow the u32 node ids")]
    fn validate_rejects_node_id_overflow() {
        // 70,000² transit nodes alone are 4.9 × 10⁹ > u32::MAX; a u32
        // product wraps to 2,240,915,712 and would pass.
        let mut c = TransitStubConfig::reduced(0);
        c.transit_domains = 70_000;
        c.transit_nodes_per_domain = 70_000;
        c.validate();
    }

    #[test]
    fn expected_nodes_is_exact_just_below_the_limit() {
        // 65,535 transit nodes × (1 + 2 × 32,768) = 65,535 · 65,537
        // = 2³² − 1 = u32::MAX exactly.
        let mut c = TransitStubConfig::reduced(0);
        c.transit_domains = 1;
        c.transit_nodes_per_domain = 65_535;
        c.stub_domains_per_transit_node = 2;
        c.stub_nodes_per_domain = 32_768;
        assert_eq!(c.expected_nodes(), u32::MAX as usize);
        c.validate();
        c.stub_nodes_per_domain += 1;
        assert_eq!(c.expected_nodes(), u32::MAX as usize + 2 * 65_535);
    }

    #[test]
    fn validate_accepts_the_largest_stub_domain() {
        let mut c = TransitStubConfig::reduced(0);
        c.stub_nodes_per_domain = u32::from(u16::MAX);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "overflow the u16 hop tables")]
    fn validate_rejects_stub_domain_beyond_u16_hops() {
        // A 65,536-node path would put its ends 65,535 = UNREACHED_HOPS
        // hops apart.
        let mut c = TransitStubConfig::reduced(0);
        c.stub_nodes_per_domain = u32::from(u16::MAX) + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "latencies must fit u32")]
    fn validate_rejects_latency_beyond_u32() {
        let mut c = TransitStubConfig::reduced(0);
        c.lat_inter_transit_us = u64::from(u32::MAX) + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn validate_rejects_bad_probability() {
        let mut c = TransitStubConfig::reduced(0);
        c.p_stub_edge = 1.5;
        c.validate();
    }
}
