//! # `defenses` — defense strategies and the defense catalog
//!
//! Implements Section V-B of "New Models for Understanding and Reasoning
//! about Speculative Execution Attacks" (HPCA 2021):
//!
//! * the four **defense strategies** of Figure 8 ([`Strategy`]) — prevent
//!   *access* / *use* / *send* before authorization, and *clear
//!   predictions*;
//! * a [`Defense`] catalog covering every industry defense of Table II and
//!   every academic defense discussed in §V-B, each mapped to its strategy;
//! * graph-level application ([`patch_strategy`]): inserting the
//!   missing security-dependency edge the strategy corresponds to, so
//!   Theorem 1 can *prove* the race is gone;
//! * machine-level application ([`Defense::configure`]): the corresponding
//!   [`uarch`] configuration knob, so the very same defense can be *tested*
//!   against the executable attacks of the [`attacks`] crate.
//!
//! ```
//! use defenses::{catalog, Strategy};
//! let lfence = catalog().into_iter().find(|d| d.name == "LFENCE").unwrap();
//! assert_eq!(lfence.strategy, Strategy::PreventAccess);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod apply;
mod catalog;
pub mod cover;
mod overlay;
mod session;
mod stack;
mod verify;

pub use apply::{patch_strategy, PatchError};
pub use catalog::{
    catalog, find, industry_rows, names, registry, resolve, Defense, IndustryRow, Origin,
};
pub use overlay::{KnobWrite, Overlay, OverlayKnob};
pub use session::PatchSession;
pub use stack::{presets, DefenseStack, StackError};
pub use verify::{verify, verify_matrix, verify_stack, verify_stack_warm, Verdict};

use std::fmt;

/// The FNV-1a offset basis: the `hash` to start a fresh [`fnv1a`] digest
/// from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from `hash` ([`FNV_OFFSET`] for
/// a fresh digest). Chaining calls hashes the concatenation, so callers
/// fold their fields in one at a time. This is the one copy behind every
/// stable fingerprint in the workspace: overlays, stacks, and the
/// campaign's spec, config and cell digests.
#[must_use]
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The four defense strategies of Figure 8 (and Figure 4's ①–④ arrows).
///
/// Each strategy is an *edge-insertion point*: which protected node
/// receives the new security dependency from the authorization node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// ① Prevent **access** before authorization: serialize the
    /// authorization and the secret access (fences, eager permission
    /// checks, KPTI removing the data path entirely).
    PreventAccess,
    /// ② Prevent data **use** before authorization: the secret may be
    /// fetched but not forwarded to dependents (NDA, SpecShield,
    /// SpectreGuard, ConTExT).
    PreventUse,
    /// ③ Prevent **send** before authorization: the micro-architectural
    /// state change that exfiltrates the secret is blocked, hidden or
    /// undone (STT, delay-on-miss, InvisiSpec/SafeSpec, CleanupSpec, DAWG).
    PreventSend,
    /// ④ **Clear predictions**: predictor state does not survive context
    /// switches, so cross-context mis-training is impossible (IBPB, STIBP,
    /// RSB stuffing, retpoline's prediction avoidance).
    ClearPredictions,
}

impl Strategy {
    /// The paper's circled-number label for the strategy.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Strategy::PreventAccess => "①",
            Strategy::PreventUse => "②",
            Strategy::PreventSend => "③",
            Strategy::ClearPredictions => "④",
        }
    }

    /// All four strategies, in the paper's order.
    #[must_use]
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::PreventAccess,
            Strategy::PreventUse,
            Strategy::PreventSend,
            Strategy::ClearPredictions,
        ]
    }

    /// Stable machine-readable token, used in campaign CSV/JSON artifacts
    /// and joined with `+` for multi-strategy defense stacks.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Strategy::PreventAccess => "prevent_access",
            Strategy::PreventUse => "prevent_use",
            Strategy::PreventSend => "prevent_send",
            Strategy::ClearPredictions => "clear_predictions",
        }
    }

    /// The [`Strategy`] for a [`Strategy::token`] string.
    #[must_use]
    pub fn from_token(token: &str) -> Option<Strategy> {
        Self::all().into_iter().find(|s| s.token() == token)
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::PreventAccess => "prevent access before authorization",
            Strategy::PreventUse => "prevent data usage before authorization",
            Strategy::PreventSend => "prevent send before authorization",
            Strategy::ClearPredictions => "clearing predictions",
        };
        write!(f, "{} {}", self.label(), s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_labels_and_display() {
        assert_eq!(Strategy::PreventAccess.label(), "①");
        assert_eq!(Strategy::ClearPredictions.label(), "④");
        assert!(Strategy::PreventUse.to_string().contains("usage"));
        assert_eq!(Strategy::all().len(), 4);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn stack_and_overlay_fingerprints_are_pinned() {
        // Digests recorded before the three FNV-1a copies were merged.
        for (expr, stack, first_overlay) in [
            (
                "kpti+retpoline",
                0x702d_117c_9efd_f7ad,
                0xedcf_b019_13ef_c691,
            ),
            ("nda", 0xc1de_edcd_7fb6_2882, 0xec80_4747_c03d_5894),
            ("lfence", 0xae74_ce27_30c9_06f3, 0x2ebe_81c8_4205_02c2),
            ("stt+ibpb", 0x4a81_e6be_0052_af05, 0x091f_6a0c_9d35_6c8c),
        ] {
            let s = DefenseStack::parse(expr).unwrap();
            assert_eq!(s.fingerprint(), stack, "{expr}");
            let overlay = s.members()[0].overlay().expect("modeled first member");
            assert_eq!(overlay.fingerprint(), first_overlay, "{expr}");
        }
    }
}
