//! The six algorithms of the evaluation matrix, and super-peer ASAP beside it.

use crate::scale::Scale;
use asap_core::{Asap, AsapConfig};

/// One column of the paper's comparison plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgoKind {
    Flooding,
    RandomWalk,
    Gsa,
    AsapFld,
    AsapRw,
    AsapGsa,
    /// The hierarchical deployment of the paper's footnote 3
    /// ([`asap_core::SuperAsap`]) on ASAP(RW)'s configuration. It is not
    /// in [`Self::ALL`], so no figure matrix runs it.
    SuperAsap,
}

impl AlgoKind {
    /// All six, in the paper's plotting order.
    pub const ALL: [AlgoKind; 6] = [
        Self::Flooding,
        Self::RandomWalk,
        Self::Gsa,
        Self::AsapFld,
        Self::AsapRw,
        Self::AsapGsa,
    ];

    /// The three baselines.
    pub const BASELINES: [AlgoKind; 3] = [Self::Flooding, Self::RandomWalk, Self::Gsa];

    /// The three ASAP variants.
    pub const ASAP: [AlgoKind; 3] = [Self::AsapFld, Self::AsapRw, Self::AsapGsa];

    pub fn label(self) -> &'static str {
        match self {
            Self::Flooding => "flooding",
            Self::RandomWalk => "random-walk",
            Self::Gsa => "GSA",
            Self::AsapFld => "ASAP(FLD)",
            Self::AsapRw => "ASAP(RW)",
            Self::AsapGsa => "ASAP(GSA)",
            Self::SuperAsap => "super-ASAP",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "flooding" | "fld" => Some(Self::Flooding),
            "random-walk" | "rw" | "walk" => Some(Self::RandomWalk),
            "gsa" => Some(Self::Gsa),
            "asap-fld" | "asap(fld)" => Some(Self::AsapFld),
            "asap-rw" | "asap(rw)" | "asap" => Some(Self::AsapRw),
            "asap-gsa" | "asap(gsa)" => Some(Self::AsapGsa),
            "super-asap" => Some(Self::SuperAsap),
            _ => None,
        }
    }

    pub fn is_asap(self) -> bool {
        matches!(self, Self::AsapFld | Self::AsapRw | Self::AsapGsa)
    }

    /// Clamp notes for the population-proportional knobs *this* algorithm
    /// consumes at `scale` — empty when the cell runs exactly on the
    /// EXPERIMENTS.md scale table. Flooding's TTL of 6 is a published
    /// constant, never scaled, so flooding cells are always on-table.
    pub fn clamp_notes(self, scale: Scale) -> Vec<String> {
        let knobs = scale.knobs();
        match self {
            Self::Flooding => Vec::new(),
            Self::RandomWalk => knobs.rw_ttl_clamp_note().into_iter().collect(),
            Self::Gsa => knobs.gsa_budget_clamp_note().into_iter().collect(),
            Self::AsapFld | Self::AsapRw | Self::AsapGsa | Self::SuperAsap => {
                knobs.asap_clamp_notes()
            }
        }
    }

    /// ASAP configuration for this variant at `scale` (panics for
    /// baselines). Super-peer ASAP runs ASAP(RW)'s.
    ///
    /// The population-proportional knobs are the scale table's
    /// ([`Scale::knobs`]); besides them, the time constants shrink with the
    /// trace:
    /// the refresh period keeps the paper's ~12.5 rounds per trace and the
    /// warm-up stagger its 1.6 % of the duration, so at `Scale::Paper` these
    /// are exactly the published 300 s and 60 s.
    pub fn asap_config(self, scale: Scale) -> AsapConfig {
        let base = match self {
            Self::AsapFld => AsapConfig::fld(),
            Self::AsapRw | Self::SuperAsap => AsapConfig::rw(),
            Self::AsapGsa => AsapConfig::gsa(),
            _ => panic!("{self:?} is not an ASAP variant"),
        };
        let knobs = scale.knobs();
        let mut cfg = AsapConfig {
            budget_unit: knobs.budget_unit,
            cache_capacity: knobs.cache_capacity,
            ..base
        };
        let trace_secs = scale.queries() as f64 / 8.0;
        cfg.refresh_interval_us = ((trace_secs / 12.5) * 1e6) as u64;
        cfg.warmup_stagger_us = ((trace_secs * 0.016) * 1e6) as u64;
        cfg
    }

    /// Build the ASAP protocol object (ASAP variants only).
    pub fn build_asap(self, scale: Scale, model: &asap_workload::ContentModel) -> Asap {
        Asap::new(self.asap_config(scale), model)
    }

    /// The ablation rows over the design knobs DESIGN.md calls out, each a
    /// labelled edit of [`Self::asap_config`] (ASAP variants only): cache
    /// capacity, the ads-request fallback, budget unit M₀, refresh period.
    /// The unedited baseline is not a row.
    pub fn ablations(self, scale: Scale) -> Vec<(String, AsapConfig)> {
        let base = self.asap_config(scale);
        let row = |label: String, edit: &dyn Fn(&mut AsapConfig)| {
            let mut c = base.clone();
            edit(&mut c);
            (label, c)
        };
        let mut rows = Vec::new();
        for factor in [0.25, 0.5, 2.0] {
            rows.push(row(format!("cache-x{factor}"), &|c| {
                c.cache_capacity = ((c.cache_capacity as f64 * factor) as usize).max(8)
            }));
        }
        // Emulate h = 0 (no fallback) by muting ads replies.
        rows.push(row("no-fallback-ads".into(), &|c| c.max_ads_per_reply = 0));
        rows.push(row("ads-request-h2".into(), &|c| c.ads_request_hops = 2));
        for factor in [0.5, 2.0] {
            rows.push(row(format!("M0-x{factor}"), &|c| {
                c.budget_unit = ((c.budget_unit as f64 * factor) as u32).max(8)
            }));
        }
        for factor in [0.25, 4.0] {
            rows.push(row(format!("refresh-x{factor}"), &|c| {
                c.refresh_interval_us =
                    ((c.refresh_interval_us as f64 * factor) as u64).max(1_000_000)
            }));
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_common_spellings() {
        assert_eq!(AlgoKind::parse("FLD"), Some(AlgoKind::Flooding));
        assert_eq!(AlgoKind::parse("asap(rw)"), Some(AlgoKind::AsapRw));
        assert_eq!(AlgoKind::parse("GSA"), Some(AlgoKind::Gsa));
        assert_eq!(AlgoKind::parse("super-ASAP"), Some(AlgoKind::SuperAsap));
        assert_eq!(AlgoKind::parse("nope"), None);
    }

    #[test]
    fn partitions_are_consistent() {
        assert!(!AlgoKind::ALL.contains(&AlgoKind::SuperAsap));
        for a in AlgoKind::ALL {
            assert_eq!(a.is_asap(), AlgoKind::ASAP.contains(&a));
            assert_ne!(
                AlgoKind::ASAP.contains(&a),
                AlgoKind::BASELINES.contains(&a)
            );
        }
    }

    #[test]
    #[should_panic(expected = "not an ASAP variant")]
    fn baseline_has_no_asap_config() {
        AlgoKind::Flooding.asap_config(Scale::Tiny);
    }

    /// The scale table is the one formula that runs: every ASAP variant's
    /// budget unit and cache capacity are the scale's knobs, at xl too.
    #[test]
    fn asap_config_runs_the_scale_knobs() {
        for scale in [Scale::Tiny, Scale::Default, Scale::Paper, Scale::Xl] {
            let knobs = scale.knobs();
            for a in AlgoKind::ASAP {
                let cfg = a.asap_config(scale);
                assert_eq!(
                    (cfg.budget_unit, cfg.cache_capacity),
                    (knobs.budget_unit, knobs.cache_capacity),
                    "{a:?} at {}",
                    scale.label()
                );
            }
        }
    }

    #[test]
    fn clamp_notes_are_per_algorithm() {
        // At tiny scale the TTL floor (32) and the ASAP cache floor (64)
        // bind; the GSA budget (120 ≥ floor 100) does not.
        assert!(AlgoKind::Flooding.clamp_notes(Scale::Tiny).is_empty());
        let rw = AlgoKind::RandomWalk.clamp_notes(Scale::Tiny);
        assert_eq!(rw.len(), 1);
        assert!(rw[0].contains("random-walk TTL"));
        assert!(AlgoKind::Gsa.clamp_notes(Scale::Tiny).is_empty());
        let asap = AlgoKind::AsapRw.clamp_notes(Scale::Tiny);
        assert_eq!(asap.len(), 1);
        assert!(asap[0].contains("cache capacity"));
        // Default and paper scale run every algorithm on-table.
        for a in AlgoKind::ALL {
            assert!(a.clamp_notes(Scale::Default).is_empty());
            assert!(a.clamp_notes(Scale::Paper).is_empty());
        }
    }
}
