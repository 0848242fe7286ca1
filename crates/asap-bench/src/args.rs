//! Shared CLI argument handling for the bench binaries.
//!
//! The harness binaries (`experiments`, `warmstart`, `bisect`) parse
//! flags from the same small vocabulary — `--scale`,
//! `--seed`, `--algo`, `--overlay`, `--workers`, `--faults`, `--adversary`
//! — but each used to hand-roll its own loop, with per-binary drift in
//! error messages and accepted spellings. This module centralizes that
//! vocabulary once:
//!
//! * [`CommonArgs`] holds the parsed axes and [`CommonArgs::accept`] slots
//!   into any binary's flag loop: offer each unrecognized flag to the
//!   common set first, then match binary-specific flags.
//! * Each binary opts into exactly the axes its CLI supports via [`Axes`],
//!   so delegating never widens a binary's flag surface (`golden`, pinned
//!   to the tiny golden scale and seed, shares none and parses its two
//!   mode flags itself).
//! * [`CommonArgs::run_spec`] produces the [`RunSpec`] the layered axes
//!   (faults, adversary) describe, so binaries build their
//!   engine configuration from the parse result directly.
//! * [`CommonArgs::usage`] renders the usage fragment for the enabled
//!   axes, keeping help text in lockstep with what actually parses.
//!
//! The tiny free helpers ([`next_value`], [`parse_overlay`]) serve the
//! binaries' residual bespoke flags (`experiments --out`, `bisect --a/--b`).

use crate::adversary::AdversaryProfile;
use crate::algo::AlgoKind;
use crate::faults::FaultProfile;
use crate::runner::RunSpec;
use crate::scale::Scale;
use asap_overlay::OverlayKind;

/// Pull the value of a `--flag VALUE` pair off the argument stream.
pub fn next_value(flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parse an overlay by its label (`random`, `powerlaw`, `crawled`).
pub fn parse_overlay(s: &str) -> Option<OverlayKind> {
    OverlayKind::ALL
        .into_iter()
        .find(|o| o.label() == s.to_ascii_lowercase())
}

/// Which of the shared flags a binary's CLI exposes. Axes a binary does not
/// enable are left to its own flag loop (and typically rejected there as
/// unknown), so adopting [`CommonArgs`] never changes a CLI's surface.
#[derive(Debug, Clone, Copy, Default)]
pub struct Axes {
    pub scale: bool,
    pub seed: bool,
    pub algo: bool,
    pub overlay: bool,
    pub workers: bool,
    pub faults: bool,
    pub adversary: bool,
}

impl Axes {
    /// No shared flags; the base for struct-update opt-in.
    pub const NONE: Self = Self {
        scale: false,
        seed: false,
        algo: false,
        overlay: false,
        workers: false,
        faults: false,
        adversary: false,
    };

    /// The single-cell vocabulary (`warmstart`, `bisect`): which audited
    /// cell to run, at which scale and seed.
    pub const CELL: Self = Self {
        scale: true,
        seed: true,
        algo: true,
        overlay: true,
        ..Self::NONE
    };

    /// The sweep vocabulary (`experiments`): world axes plus every layered
    /// run axis, no per-cell algo/overlay selection.
    pub const SWEEP: Self = Self {
        scale: true,
        seed: true,
        workers: true,
        faults: true,
        adversary: true,
        ..Self::NONE
    };
}

/// The parsed shared flags, with per-binary defaults set at construction.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    axes: Axes,
    pub scale: Scale,
    pub seed: u64,
    pub algo: AlgoKind,
    pub overlay: OverlayKind,
    pub workers: usize,
    pub faults: FaultProfile,
    pub adversary: AdversaryProfile,
}

impl CommonArgs {
    /// Construct with the workspace-wide defaults (tiny scale, seed 42, the
    /// headline ASAP(RW) / crawled cell, all cores, honest fault-free run).
    /// Binaries override fields after construction where their documented
    /// defaults differ.
    pub fn new(axes: Axes) -> Self {
        Self {
            axes,
            scale: Scale::Tiny,
            seed: 42,
            algo: AlgoKind::AsapRw,
            overlay: OverlayKind::Crawled,
            workers: rayon::current_num_threads(),
            faults: FaultProfile::None,
            adversary: AdversaryProfile::None,
        }
    }

    /// Offer one flag to the shared vocabulary. `Ok(true)` means the flag
    /// (and its value, if any) was consumed; `Ok(false)` hands it back to
    /// the binary's own loop; `Err` is a malformed value for a flag this
    /// set does own.
    pub fn accept(
        &mut self,
        flag: &str,
        args: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--scale" if self.axes.scale => {
                let v = next_value(flag, args)?;
                self.scale = Scale::parse(&v).ok_or(format!("unknown scale '{v}'"))?;
            }
            "--seed" if self.axes.seed => {
                self.seed = next_value(flag, args)?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--algo" if self.axes.algo => {
                let v = next_value(flag, args)?;
                self.algo = AlgoKind::parse(&v).ok_or(format!("unknown algo '{v}'"))?;
            }
            "--overlay" if self.axes.overlay => {
                let v = next_value(flag, args)?;
                self.overlay = parse_overlay(&v).ok_or(format!("unknown overlay '{v}'"))?;
            }
            "--workers" if self.axes.workers => {
                self.workers = next_value(flag, args)?
                    .parse()
                    .map_err(|e| format!("bad workers: {e}"))?;
            }
            "--faults" if self.axes.faults => {
                let v = next_value(flag, args)?;
                self.faults =
                    FaultProfile::parse(&v).ok_or(format!("unknown fault profile '{v}'"))?;
            }
            "--adversary" if self.axes.adversary => {
                let v = next_value(flag, args)?;
                self.adversary = AdversaryProfile::parse(&v)
                    .ok_or(format!("unknown adversary profile '{v}'"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The usage fragment for the enabled axes, in canonical flag order.
    pub fn usage(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.axes.algo {
            parts.push("[--algo fld|rw|gsa|asap-fld|asap-rw|asap-gsa]");
        }
        if self.axes.overlay {
            parts.push("[--overlay random|powerlaw|crawled]");
        }
        if self.axes.scale {
            parts.push("[--scale tiny|default|paper|xl]");
        }
        if self.axes.seed {
            parts.push("[--seed N]");
        }
        if self.axes.workers {
            parts.push("[--workers N (default: all cores)]");
        }
        if self.axes.faults {
            parts.push("[--faults none|lossy|chaos]");
        }
        if self.axes.adversary {
            parts.push("[--adversary none|spam<pct>|freeride<pct>|eclipse<pct>]");
        }
        parts.join(" ")
    }

    /// The [`RunSpec`] these axes describe: layered faults and adversary.
    /// Audit and tracing are per-binary concerns, composed on top via the
    /// spec's builder methods.
    pub fn run_spec(&self) -> RunSpec {
        RunSpec::figures()
            .with_faults(self.faults)
            .with_adversary(self.adversary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(common: &mut CommonArgs, argv: &[&str]) -> Result<Vec<String>, String> {
        let mut rest = Vec::new();
        let mut it = argv.iter().map(|s| s.to_string());
        while let Some(flag) = it.next() {
            if !common.accept(&flag, &mut it)? {
                rest.push(flag);
            }
        }
        Ok(rest)
    }

    #[test]
    fn accepts_enabled_axes_and_hands_back_the_rest() {
        let mut common = CommonArgs::new(Axes::SWEEP);
        let rest = feed(
            &mut common,
            &[
                "--scale", "paper", "--seed", "7", "--faults", "lossy", "--check",
            ],
        )
        .expect("valid flags parse");
        assert_eq!(common.scale, Scale::Paper);
        assert_eq!(common.seed, 7);
        assert_eq!(common.faults, FaultProfile::Lossy);
        assert_eq!(rest, vec!["--check".to_string()]);
    }

    #[test]
    fn disabled_axes_are_not_consumed() {
        let mut common = CommonArgs::new(Axes::CELL);
        let rest = feed(&mut common, &["--faults", "--algo", "gsa"]).expect("parse");
        assert_eq!(common.algo, AlgoKind::Gsa);
        assert_eq!(rest, vec!["--faults".to_string()]);
        assert_eq!(common.faults, FaultProfile::None);
    }

    #[test]
    fn bad_values_surface_as_errors() {
        let mut common = CommonArgs::new(Axes::SWEEP);
        assert!(feed(&mut common, &["--scale", "galactic"]).is_err());
        assert!(feed(&mut common, &["--seed"]).is_err());
    }

    #[test]
    fn run_spec_reflects_the_layered_axes() {
        let mut common = CommonArgs::new(Axes::SWEEP);
        feed(&mut common, &["--faults", "lossy", "--adversary", "spam10"]).expect("parse");
        let spec = common.run_spec();
        assert_eq!(spec.faults, FaultProfile::Lossy);
        assert!(spec.audit.is_none());
        assert!(spec.trace.is_none());
    }

    #[test]
    fn usage_lists_exactly_the_enabled_axes() {
        let sweep = CommonArgs::new(Axes::SWEEP).usage();
        assert!(sweep.contains("--faults"));
        assert!(!sweep.contains("--algo"));
        let cell = CommonArgs::new(Axes::CELL).usage();
        assert!(cell.contains("--algo"));
        assert!(!cell.contains("--faults"));
    }
}
