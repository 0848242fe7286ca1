//! Experiment scale: the paper's instance and proportionally reduced ones.
//!
//! Parameters that are *population-proportional* (random-walk TTL, GSA
//! budget, ASAP budget unit M₀, cache capacity) shrink with the peer count
//! so the algorithms' *coverage fractions* — and therefore the figures'
//! shapes — are preserved; time constants and flooding TTL stay as
//! published. EXPERIMENTS.md discusses the fidelity of each scale.

use asap_search::{GsaConfig, RandomWalkConfig, Retransmit};
use asap_topology::TransitStubConfig;
use asap_workload::WorkloadConfig;

/// How big a world to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 150 peers / 300 queries — smoke-test speed.
    Tiny,
    /// 1,500 peers / 4,000 queries — minutes per full matrix; the default.
    Default,
    /// The paper's 10,000 peers / 30,000 queries on 51,984 physical nodes.
    Paper,
    /// 100,000 peers / 1,000 queries on 103,872 physical nodes — the
    /// million-node-trajectory scaling leg. 10× the paper's population on
    /// the streamed xl topology; the query count is kept small because this
    /// scale exists to exercise engine throughput and memory layout, not to
    /// reproduce figures. The proportional random-walk TTL (10,240) is
    /// capped at 2,048 — walks are for liveness here, and an uncapped TTL
    /// makes per-query cost scale quadratically with population.
    Xl,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Self::Tiny),
            "default" => Some(Self::Default),
            "paper" => Some(Self::Paper),
            "xl" => Some(Self::Xl),
            _ => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Self::Tiny => "tiny",
            Self::Default => "default",
            Self::Paper => "paper",
            Self::Xl => "xl",
        }
    }

    pub fn peers(self) -> usize {
        match self {
            Self::Tiny => 150,
            Self::Default => 1_500,
            Self::Paper => 10_000,
            Self::Xl => 100_000,
        }
    }

    pub fn queries(self) -> usize {
        match self {
            Self::Tiny => 300,
            Self::Default => 4_000,
            Self::Paper => 30_000,
            Self::Xl => 1_000,
        }
    }

    /// Ratio to the paper's population, used to scale coverage budgets.
    pub fn ratio(self) -> f64 {
        self.peers() as f64 / 10_000.0
    }

    pub fn workload(self, seed: u64) -> WorkloadConfig {
        match self {
            Self::Paper => WorkloadConfig::paper_default(seed),
            _ => WorkloadConfig::reduced(self.peers(), self.queries(), seed),
        }
    }

    pub fn topology(self, seed: u64) -> TransitStubConfig {
        match self {
            Self::Tiny => TransitStubConfig::reduced(seed),
            Self::Default => TransitStubConfig::medium(seed),
            Self::Paper => TransitStubConfig::paper_default(seed),
            Self::Xl => TransitStubConfig::xl(seed),
        }
    }

    /// Random-walk TTL (paper: 1,024 at 10,000 peers).
    pub fn rw_ttl(self) -> u16 {
        self.knobs().rw_ttl
    }

    /// GSA message budget (paper: 8,000 at 10,000 peers).
    pub fn gsa_budget(self) -> u32 {
        self.knobs().gsa_budget
    }

    /// The paper's random-walk baseline at this scale (§IV: 5 walkers).
    pub fn random_walk_config(self, retransmit: Option<Retransmit>) -> RandomWalkConfig {
        RandomWalkConfig {
            walkers: 5,
            ttl: self.rw_ttl(),
            retransmit,
        }
    }

    /// The paper's GSA baseline at this scale.
    pub fn gsa_config(self) -> GsaConfig {
        GsaConfig {
            budget: self.gsa_budget(),
        }
    }

    /// Every population-proportional knob, with its pre-clamp value kept
    /// alongside so callers can report when a cell ran off-table.
    pub fn knobs(self) -> ScaleKnobs {
        ScaleKnobs::for_ratio(self.ratio())
    }
}

/// Population-proportional knobs at one scale: the rounded proportional
/// value (`*_raw`) and the floored value actually used. A knob is
/// *clamped* when the floor overrode the proportional derivation — the
/// cell then runs off the EXPERIMENTS.md scale table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleKnobs {
    /// Proportional random-walk TTL before the floor of 32.
    pub rw_ttl_raw: u16,
    /// Random-walk TTL in effect.
    pub rw_ttl: u16,
    /// Proportional GSA budget before the floor of 100.
    pub gsa_budget_raw: u32,
    /// GSA budget in effect.
    pub gsa_budget: u32,
    /// Proportional ASAP budget unit M₀ before the floor of 16 and the
    /// cap of 3,000.
    pub budget_unit_raw: u32,
    /// ASAP budget unit M₀ in effect.
    pub budget_unit: u32,
    /// Proportional ASAP cache capacity before the floor of 64 and the cap
    /// of 4,096.
    pub cache_capacity_raw: usize,
    /// ASAP cache capacity in effect.
    pub cache_capacity: usize,
}

impl ScaleKnobs {
    /// Paper values at ratio 1.0; reduced scales round (not truncate) the
    /// proportional value, then apply the floor. The ASAP knobs never grow
    /// past the paper's values (uncapped, an xl cache of 40,960 entries per
    /// peer would hold ~98 GB of filters); `AlgoKind::asap_config` runs
    /// exactly these.
    pub fn for_ratio(ratio: f64) -> Self {
        let rw_ttl_raw = (1_024.0 * ratio).round() as u16;
        let gsa_budget_raw = (8_000.0 * ratio).round() as u32;
        let budget_unit_raw = (3_000.0 * ratio).round() as u32;
        let cache_capacity_raw = (4_096.0 * ratio).round() as usize;
        Self {
            rw_ttl_raw,
            // Floor 32 binds at tiny; the cap of 2,048 binds only above
            // paper scale (ratio > 2), where uncapped proportional walks
            // would dominate runtime without changing what xl measures.
            rw_ttl: rw_ttl_raw.clamp(32, 2_048),
            gsa_budget_raw,
            gsa_budget: gsa_budget_raw.max(100),
            budget_unit_raw,
            budget_unit: budget_unit_raw.clamp(16, 3_000),
            cache_capacity_raw,
            cache_capacity: cache_capacity_raw.clamp(64, 4_096),
        }
    }

    /// Note when the random-walk TTL floor or cap bound (random-walk cells).
    pub fn rw_ttl_clamp_note(&self) -> Option<String> {
        (self.rw_ttl != self.rw_ttl_raw).then(|| {
            let bound = if self.rw_ttl > self.rw_ttl_raw {
                "floor 32"
            } else {
                "cap 2048"
            };
            format!(
                "random-walk TTL clamped {} -> {} ({bound})",
                self.rw_ttl_raw, self.rw_ttl
            )
        })
    }

    /// Note when the GSA budget floor bound (GSA cells).
    pub fn gsa_budget_clamp_note(&self) -> Option<String> {
        (self.gsa_budget != self.gsa_budget_raw).then(|| {
            format!(
                "GSA budget clamped {} -> {} (floor 100)",
                self.gsa_budget_raw, self.gsa_budget
            )
        })
    }

    /// Notes for the ASAP-only knobs whose floors or caps bound (ASAP
    /// cells).
    pub fn asap_clamp_notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        if self.budget_unit != self.budget_unit_raw {
            let bound = if self.budget_unit > self.budget_unit_raw {
                "floor 16"
            } else {
                "cap 3000"
            };
            notes.push(format!(
                "ASAP budget unit M0 clamped {} -> {} ({bound})",
                self.budget_unit_raw, self.budget_unit
            ));
        }
        if self.cache_capacity != self.cache_capacity_raw {
            let bound = if self.cache_capacity > self.cache_capacity_raw {
                "floor 64"
            } else {
                "cap 4096"
            };
            notes.push(format!(
                "ASAP cache capacity clamped {} -> {} ({bound})",
                self.cache_capacity_raw, self.cache_capacity
            ));
        }
        notes
    }

    /// Human-readable line per clamped knob (empty when the cell is
    /// exactly on the scale table).
    pub fn clamp_notes(&self) -> Vec<String> {
        self.rw_ttl_clamp_note()
            .into_iter()
            .chain(self.gsa_budget_clamp_note())
            .chain(self.asap_clamp_notes())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_published_numbers() {
        let s = Scale::Paper;
        assert_eq!(s.peers(), 10_000);
        assert_eq!(s.queries(), 30_000);
        assert_eq!(s.rw_ttl(), 1_024);
        assert_eq!(s.gsa_budget(), 8_000);
        assert_eq!(s.topology(1).expected_nodes(), 51_984);
    }

    #[test]
    fn reduced_scales_proportionally() {
        let s = Scale::Default;
        assert_eq!(s.rw_ttl(), (1_024.0 * 0.15_f64).round() as u16);
        assert_eq!(s.gsa_budget(), 1_200);
        assert!(s.topology(1).expected_nodes() >= s.peers());
    }

    #[test]
    fn tiny_clamps() {
        let s = Scale::Tiny;
        assert!(s.rw_ttl() >= 32);
        assert!(s.gsa_budget() >= 100);
        assert!(s.topology(1).expected_nodes() >= s.peers());
    }

    /// Pins the EXPERIMENTS.md scale-table values: derivation rounds the
    /// proportional value (1,024 × 0.15 = 153.6 → 154, not the truncated
    /// 153), then applies the floor.
    #[test]
    fn knob_derivation_rounds_then_floors() {
        let tiny = Scale::Tiny.knobs();
        assert_eq!((tiny.rw_ttl_raw, tiny.rw_ttl), (15, 32));
        assert_eq!((tiny.gsa_budget_raw, tiny.gsa_budget), (120, 120));
        assert_eq!((tiny.budget_unit_raw, tiny.budget_unit), (45, 45));
        assert_eq!((tiny.cache_capacity_raw, tiny.cache_capacity), (61, 64));

        let default = Scale::Default.knobs();
        assert_eq!((default.rw_ttl_raw, default.rw_ttl), (154, 154));
        assert_eq!((default.gsa_budget_raw, default.gsa_budget), (1_200, 1_200));
        assert_eq!((default.budget_unit_raw, default.budget_unit), (450, 450));
        assert_eq!(
            (default.cache_capacity_raw, default.cache_capacity),
            (614, 614)
        );

        let paper = Scale::Paper.knobs();
        assert_eq!((paper.rw_ttl_raw, paper.rw_ttl), (1_024, 1_024));
        assert_eq!((paper.gsa_budget_raw, paper.gsa_budget), (8_000, 8_000));
        assert_eq!((paper.budget_unit_raw, paper.budget_unit), (3_000, 3_000));
        assert_eq!(
            (paper.cache_capacity_raw, paper.cache_capacity),
            (4_096, 4_096)
        );
    }

    /// Only tiny runs off-table, and only on the two knobs whose floors
    /// actually bind (TTL and cache). The GSA budget at tiny is 120 — above
    /// its floor of 100 — so it is *not* clamped.
    #[test]
    fn clamp_notes_name_exactly_the_floored_knobs() {
        let tiny = Scale::Tiny.knobs().clamp_notes();
        assert_eq!(tiny.len(), 2);
        assert!(tiny[0].contains("random-walk TTL clamped 15 -> 32"));
        assert!(tiny[1].contains("ASAP cache capacity clamped 61 -> 64"));
        assert!(Scale::Default.knobs().clamp_notes().is_empty());
        assert!(Scale::Paper.knobs().clamp_notes().is_empty());
    }

    #[test]
    fn parse_round_trips() {
        for s in [Scale::Tiny, Scale::Default, Scale::Paper, Scale::Xl] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn xl_caps_walk_ttl_and_notes_it() {
        let s = Scale::Xl;
        assert_eq!(s.peers(), 100_000);
        assert_eq!(s.topology(1).expected_nodes(), 103_872);
        assert!(s.topology(1).expected_nodes() >= s.peers());
        let knobs = s.knobs();
        assert_eq!((knobs.rw_ttl_raw, knobs.rw_ttl), (10_240, 2_048));
        let note = knobs.rw_ttl_clamp_note().expect("cap binds at xl");
        assert!(note.contains("clamped 10240 -> 2048 (cap 2048)"), "{note}");
        assert_eq!(knobs.gsa_budget, 80_000);
        // The ASAP knobs stop at the paper's values, and say so.
        assert_eq!((knobs.budget_unit_raw, knobs.budget_unit), (30_000, 3_000));
        assert_eq!(
            (knobs.cache_capacity_raw, knobs.cache_capacity),
            (40_960, 4_096)
        );
        let notes = knobs.asap_clamp_notes();
        assert!(
            notes[0].contains("clamped 30000 -> 3000 (cap 3000)"),
            "{notes:?}"
        );
        assert!(
            notes[1].contains("clamped 40960 -> 4096 (cap 4096)"),
            "{notes:?}"
        );
    }
}
