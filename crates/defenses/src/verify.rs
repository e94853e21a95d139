//! Executable verification: does defense D stop attack A on the simulator?
//!
//! This is the crate's answer to the paper's question ③ ("are the recently
//! proposed defenses effective?"): instead of asserting effectiveness, we
//! *run* every attack under every modeled defense and report the verdict.

use crate::Defense;
use attacks::{Attack, AttackError, BatchRunner};
use std::fmt;
use uarch::UarchConfig;

/// Outcome of running one attack under one defense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The attack failed to recover the secret.
    Blocked,
    /// The attack still recovered the secret — the defense does not insert
    /// the security dependency this attack's race needs (the paper's
    /// "false sense of security" case).
    Leaked,
    /// The defense is software-only (no hardware model); its effect is
    /// shown at the graph/program level instead.
    GraphOnly,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Blocked => "blocked",
            Verdict::Leaked => "LEAKED",
            Verdict::GraphOnly => "(graph-only)",
        })
    }
}

/// Runs `attack` on a machine configured with `defense` applied over
/// `base`, and reports the verdict.
///
/// # Errors
///
/// Propagates [`AttackError`] if the simulation itself fails.
pub fn verify(
    defense: &Defense,
    attack: &dyn Attack,
    base: &UarchConfig,
) -> Result<Verdict, AttackError> {
    let Some(cfg) = defense.configure(base) else {
        return Ok(Verdict::GraphOnly);
    };
    let out = attack.run(&cfg)?;
    Ok(if out.leaked {
        Verdict::Leaked
    } else {
        Verdict::Blocked
    })
}

/// Runs `attack` on a machine with the whole `stack` deployed over
/// `base`, and reports the verdict — the stack-level analogue of
/// [`verify`]. For a singleton stack this is byte-for-byte the single
/// defense verdict.
///
/// # Errors
///
/// Propagates [`AttackError`] if the simulation itself fails.
pub fn verify_stack(
    stack: &crate::DefenseStack,
    attack: &dyn Attack,
    base: &UarchConfig,
) -> Result<Verdict, AttackError> {
    let Some(cfg) = stack.apply(base) else {
        return Ok(Verdict::GraphOnly);
    };
    let out = attack.run(&cfg)?;
    Ok(if out.leaked {
        Verdict::Leaked
    } else {
        Verdict::Blocked
    })
}

/// [`verify_stack`] on a warm machine: identical verdicts, but the
/// simulation reuses `runner`'s pooled machine instead of building one per
/// call — the verdict store's miss path, where one pooled runner
/// amortizes machine construction across thousands of queries.
///
/// # Errors
///
/// Propagates [`AttackError`] if the simulation itself fails.
pub fn verify_stack_warm(
    stack: &crate::DefenseStack,
    attack: &dyn Attack,
    base: &UarchConfig,
    runner: &mut BatchRunner,
) -> Result<Verdict, AttackError> {
    let Some(cfg) = stack.apply(base) else {
        return Ok(Verdict::GraphOnly);
    };
    let out = runner.run(attack, &cfg)?;
    Ok(if out.leaked {
        Verdict::Leaked
    } else {
        Verdict::Blocked
    })
}

/// One row of the defense-effectiveness matrix.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// The attack name.
    pub attack: &'static str,
    /// Per-defense verdicts, in catalog order.
    pub verdicts: Vec<Verdict>,
}

/// Runs every attack under every defense; rows are attacks, columns are
/// defenses (in the given orders).
///
/// # Errors
///
/// Propagates [`AttackError`] from any simulation.
pub fn verify_matrix(
    defenses: &[Defense],
    attacks_list: &[Box<dyn Attack>],
    base: &UarchConfig,
) -> Result<Vec<MatrixRow>, AttackError> {
    let mut rows = Vec::with_capacity(attacks_list.len());
    for a in attacks_list {
        let mut verdicts = Vec::with_capacity(defenses.len());
        for d in defenses {
            verdicts.push(verify(d, a.as_ref(), base)?);
        }
        rows.push(MatrixRow {
            attack: a.info().name,
            verdicts,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn defense(name: &str) -> Defense {
        catalog()
            .into_iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("defense {name} missing"))
    }

    #[test]
    fn kpti_blocks_meltdown_but_not_spectre_v1() {
        let base = UarchConfig::default();
        let kpti = defense("KAISER/KPTI");
        assert_eq!(
            verify(&kpti, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Blocked
        );
        // The paper's point: the defense must match the missing dependency.
        assert_eq!(
            verify(&kpti, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn lfence_blocks_spectre_v1() {
        assert_eq!(
            verify(
                &defense("LFENCE"),
                &attacks::spectre_v1::SpectreV1,
                &UarchConfig::default()
            )
            .unwrap(),
            Verdict::Blocked
        );
    }

    #[test]
    fn ibpb_blocks_v2_and_rsb_but_not_meltdown() {
        let base = UarchConfig::default();
        let ibpb = defense("IBPB");
        assert_eq!(
            verify(&ibpb, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify(&ibpb, &attacks::spectre_rsb::SpectreRsb, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify(&ibpb, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn nda_blocks_every_cataloged_attack() {
        // Strategy ② at the data-use chokepoint blocks all variants: every
        // attack must *use* the secret to send it.
        let base = UarchConfig::default();
        let nda = defense("NDA");
        for a in attacks::catalog() {
            assert_eq!(
                verify(&nda, a.as_ref(), &base).unwrap(),
                Verdict::Blocked,
                "NDA must block {}",
                a.info().name
            );
        }
    }

    #[test]
    fn dawg_blocks_cross_domain_attacks_only() {
        let base = UarchConfig::default();
        let dawg = defense("DAWG");
        // Cross-context: the receiver cannot observe the victim-domain fill.
        assert_eq!(
            verify(&dawg, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        // Same-context Spectre v1 is *not* affected by cache partitioning —
        // sender and receiver share the domain (paper: DAWG protects
        // cross-domain cache timing only).
        assert_eq!(
            verify(&dawg, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
    }

    #[test]
    fn software_defense_reports_graph_only() {
        assert_eq!(
            verify(
                &defense("Address masking (coarse)"),
                &attacks::spectre_v1::SpectreV1,
                &UarchConfig::default()
            )
            .unwrap(),
            Verdict::GraphOnly
        );
    }

    #[test]
    fn matrix_has_expected_shape() {
        // A small matrix (2 defenses × 3 attacks) to keep test time down.
        let defenses = vec![
            defense("KAISER/KPTI"),
            defense("In-silicon fix (Cascade Lake)"),
        ];
        let atks: Vec<Box<dyn Attack>> = vec![
            Box::new(attacks::meltdown::Meltdown),
            Box::new(attacks::foreshadow::Foreshadow::sgx()),
            Box::new(attacks::mds::Fallout),
        ];
        let m = verify_matrix(&defenses, &atks, &UarchConfig::default()).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].verdicts.len(), 2);
        // The silicon fix blocks all three Meltdown-family attacks.
        for row in &m {
            assert_eq!(row.verdicts[1], Verdict::Blocked, "{}", row.attack);
        }
    }

    #[test]
    fn stack_verify_matches_singleton_and_evaluates_bundles() {
        let base = UarchConfig::default();
        // Singleton stack ≡ single defense, verdict for verdict.
        let kpti_stack = crate::DefenseStack::single(defense("KAISER/KPTI"));
        for attack in [
            &attacks::meltdown::Meltdown as &dyn Attack,
            &attacks::spectre_v1::SpectreV1,
        ] {
            assert_eq!(
                verify_stack(&kpti_stack, attack, &base).unwrap(),
                verify(&defense("KAISER/KPTI"), attack, &base).unwrap()
            );
        }
        // The Linux bundle blocks what its members block…
        let linux = crate::presets::linux_default();
        assert_eq!(
            verify_stack(&linux, &attacks::meltdown::Meltdown, &base).unwrap(),
            Verdict::Blocked
        );
        assert_eq!(
            verify_stack(&linux, &attacks::spectre_v2::SpectreV2, &base).unwrap(),
            Verdict::Blocked
        );
        // …but same-context bounds bypass still leaks through the bundle
        // (address masking is software): the §V-B point, now stack-shaped.
        assert_eq!(
            verify_stack(&linux, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::Leaked
        );
        // All-software stacks are graph-only, like software-only defenses.
        let software = crate::DefenseStack::parse("mask-coarse").unwrap();
        assert_eq!(
            verify_stack(&software, &attacks::spectre_v1::SpectreV1, &base).unwrap(),
            Verdict::GraphOnly
        );
    }

    #[test]
    fn warm_verify_matches_cold_across_stacks_and_attacks() {
        // One shared runner across heterogeneous (stack, attack) pairs —
        // the campaign worker shape — must reproduce the cold verdicts,
        // including the GraphOnly short-circuit (which must not dirty or
        // depend on the pooled machine).
        let base = UarchConfig::default();
        let stacks = [
            crate::DefenseStack::single(defense("KAISER/KPTI")),
            crate::presets::linux_default(),
            crate::DefenseStack::parse("mask-coarse").unwrap(),
            crate::DefenseStack::single(defense("NDA")),
        ];
        let atks: [&dyn Attack; 3] = [
            &attacks::meltdown::Meltdown,
            &attacks::spectre_v1::SpectreV1,
            &attacks::zenbleed::ZenBleed,
        ];
        let mut runner = BatchRunner::new();
        for stack in &stacks {
            for attack in atks {
                assert_eq!(
                    verify_stack_warm(stack, attack, &base, &mut runner).unwrap(),
                    verify_stack(stack, attack, &base).unwrap(),
                    "warm verdict diverged for {}",
                    attack.info().name
                );
            }
        }
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Blocked.to_string(), "blocked");
        assert_eq!(Verdict::Leaked.to_string(), "LEAKED");
        assert!(Verdict::GraphOnly.to_string().contains("graph"));
    }
}
