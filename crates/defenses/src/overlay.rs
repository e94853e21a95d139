//! Recorded configuration overlays: the machine-level effect of a defense
//! as *data* instead of an opaque `fn(&mut UarchConfig)`.
//!
//! Every modeled defense carries an [`Overlay`] — an ordered list of
//! [`KnobWrite`]s, each naming the [`uarch`] knob it sets and the value it
//! writes. Because the writes are recorded rather than executed behind a
//! function pointer, overlays are
//!
//! * **inspectable**: `defense.overlay()` lists exactly what the defense
//!   changes on the machine;
//! * **diffable**: [`Overlay::diff`] reports which writes would actually
//!   change a given base configuration;
//! * **fingerprintable**: [`Overlay::fingerprint`] is a stable digest of
//!   the writes, independent of how the catalog spells them;
//! * **composable with conflict detection**: folding two overlays that
//!   write the same knob *differently* is a typed
//!   [`StackError::ConflictingKnob`](crate::StackError::ConflictingKnob)
//!   instead of a silent last-writer-wins.

use std::fmt;
use uarch::UarchConfig;

/// A boolean [`UarchConfig`] knob a defense overlay may write.
///
/// The variants cover every field the Table-II/§V-B catalog touches: the
/// Figure-8 defense knobs plus the vulnerability knobs the in-silicon fix
/// and eager-FPU switching turn *off*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OverlayKnob {
    /// Strategy ①: loads wait for all older control flow
    /// (`no_speculative_loads`).
    NoSpeculativeLoads,
    /// Strategy ① intra-instruction: permission checks complete before
    /// forwarding (`eager_permission_check`).
    EagerPermissionCheck,
    /// Strategy ②: no speculative forwarding (`nda`).
    Nda,
    /// Strategy ② relaxed: speculative taint tracking (`stt`).
    Stt,
    /// Strategy ③: delay speculative misses (`delay_on_miss`).
    DelayOnMiss,
    /// Strategy ③: shadow-structure fills (`invisible_spec`).
    InvisibleSpec,
    /// Strategy ③: undo cache changes on squash (`cleanup_spec`).
    CleanupSpec,
    /// Strategy ③ cross-domain: cache way partitioning (`dawg`).
    Dawg,
    /// Strategy ④: flush predictor state on context switches
    /// (`flush_predictors_on_switch`).
    FlushPredictorsOnSwitch,
    /// No BTB prediction for indirect branches (`no_indirect_prediction`,
    /// the retpoline effect).
    NoIndirectPrediction,
    /// Refill the RSB on context switches (`rsb_stuffing`).
    RsbStuffing,
    /// Unmap kernel pages in user mode (`kpti`).
    Kpti,
    /// Loads never bypass unresolved stores (`ssb_disable`).
    SsbDisable,
    /// Lazy FPU state switching (`lazy_fpu`; eager switching writes
    /// `false`).
    LazyFpu,
    /// Faulting loads transiently forward data (`transient_forwarding`;
    /// the in-silicon fix writes `false`).
    TransientForwarding,
    /// Stale-buffer forwarding on faults (`mds_forwarding`).
    MdsForwarding,
    /// L1 probing on terminal page-table faults (`l1tf_forwarding`).
    L1tfForwarding,
}

impl OverlayKnob {
    /// Writes `value` to this knob's field of `cfg`.
    pub fn write(self, cfg: &mut UarchConfig, value: bool) {
        *self.field_mut(cfg) = value;
    }

    /// Reads this knob's current value from `cfg`.
    #[must_use]
    pub fn read(self, cfg: &UarchConfig) -> bool {
        match self {
            OverlayKnob::NoSpeculativeLoads => cfg.no_speculative_loads,
            OverlayKnob::EagerPermissionCheck => cfg.eager_permission_check,
            OverlayKnob::Nda => cfg.nda,
            OverlayKnob::Stt => cfg.stt,
            OverlayKnob::DelayOnMiss => cfg.delay_on_miss,
            OverlayKnob::InvisibleSpec => cfg.invisible_spec,
            OverlayKnob::CleanupSpec => cfg.cleanup_spec,
            OverlayKnob::Dawg => cfg.dawg,
            OverlayKnob::FlushPredictorsOnSwitch => cfg.flush_predictors_on_switch,
            OverlayKnob::NoIndirectPrediction => cfg.no_indirect_prediction,
            OverlayKnob::RsbStuffing => cfg.rsb_stuffing,
            OverlayKnob::Kpti => cfg.kpti,
            OverlayKnob::SsbDisable => cfg.ssb_disable,
            OverlayKnob::LazyFpu => cfg.lazy_fpu,
            OverlayKnob::TransientForwarding => cfg.transient_forwarding,
            OverlayKnob::MdsForwarding => cfg.mds_forwarding,
            OverlayKnob::L1tfForwarding => cfg.l1tf_forwarding,
        }
    }

    fn field_mut(self, cfg: &mut UarchConfig) -> &mut bool {
        match self {
            OverlayKnob::NoSpeculativeLoads => &mut cfg.no_speculative_loads,
            OverlayKnob::EagerPermissionCheck => &mut cfg.eager_permission_check,
            OverlayKnob::Nda => &mut cfg.nda,
            OverlayKnob::Stt => &mut cfg.stt,
            OverlayKnob::DelayOnMiss => &mut cfg.delay_on_miss,
            OverlayKnob::InvisibleSpec => &mut cfg.invisible_spec,
            OverlayKnob::CleanupSpec => &mut cfg.cleanup_spec,
            OverlayKnob::Dawg => &mut cfg.dawg,
            OverlayKnob::FlushPredictorsOnSwitch => &mut cfg.flush_predictors_on_switch,
            OverlayKnob::NoIndirectPrediction => &mut cfg.no_indirect_prediction,
            OverlayKnob::RsbStuffing => &mut cfg.rsb_stuffing,
            OverlayKnob::Kpti => &mut cfg.kpti,
            OverlayKnob::SsbDisable => &mut cfg.ssb_disable,
            OverlayKnob::LazyFpu => &mut cfg.lazy_fpu,
            OverlayKnob::TransientForwarding => &mut cfg.transient_forwarding,
            OverlayKnob::MdsForwarding => &mut cfg.mds_forwarding,
            OverlayKnob::L1tfForwarding => &mut cfg.l1tf_forwarding,
        }
    }

    /// Stable machine-readable token (the `UarchConfig` field name).
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            OverlayKnob::NoSpeculativeLoads => "no_speculative_loads",
            OverlayKnob::EagerPermissionCheck => "eager_permission_check",
            OverlayKnob::Nda => "nda",
            OverlayKnob::Stt => "stt",
            OverlayKnob::DelayOnMiss => "delay_on_miss",
            OverlayKnob::InvisibleSpec => "invisible_spec",
            OverlayKnob::CleanupSpec => "cleanup_spec",
            OverlayKnob::Dawg => "dawg",
            OverlayKnob::FlushPredictorsOnSwitch => "flush_predictors_on_switch",
            OverlayKnob::NoIndirectPrediction => "no_indirect_prediction",
            OverlayKnob::RsbStuffing => "rsb_stuffing",
            OverlayKnob::Kpti => "kpti",
            OverlayKnob::SsbDisable => "ssb_disable",
            OverlayKnob::LazyFpu => "lazy_fpu",
            OverlayKnob::TransientForwarding => "transient_forwarding",
            OverlayKnob::MdsForwarding => "mds_forwarding",
            OverlayKnob::L1tfForwarding => "l1tf_forwarding",
        }
    }
}

impl fmt::Display for OverlayKnob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One recorded knob write: `knob = value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnobWrite {
    /// The configuration knob written.
    pub knob: OverlayKnob,
    /// The value written.
    pub value: bool,
}

impl fmt::Display for KnobWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.knob, self.value)
    }
}

/// A defense's machine-level effect: an ordered, `'static` list of
/// recorded knob writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overlay(pub &'static [KnobWrite]);

impl Overlay {
    /// The recorded writes, in catalog order.
    #[must_use]
    pub fn writes(&self) -> &'static [KnobWrite] {
        self.0
    }

    /// Applies every write to `cfg`, in order.
    pub fn apply(&self, cfg: &mut UarchConfig) {
        for w in self.0 {
            w.knob.write(cfg, w.value);
        }
    }

    /// The writes that would actually *change* `base` (knobs already at
    /// the written value are omitted).
    #[must_use]
    pub fn diff(&self, base: &UarchConfig) -> Vec<KnobWrite> {
        self.0
            .iter()
            .copied()
            .filter(|w| w.knob.read(base) != w.value)
            .collect()
    }

    /// A stable 64-bit FNV-1a digest of the writes (knob tokens and
    /// values, in order). Two defenses with the same machine effect — e.g.
    /// LFENCE and MFENCE — share a fingerprint, which the cover search
    /// uses to deduplicate candidates.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.0.iter().fold(crate::FNV_OFFSET, |h, w| {
            let h = crate::fnv1a(w.knob.token().as_bytes(), h);
            crate::fnv1a(&[b'=', u8::from(w.value), 0], h)
        })
    }
}

impl fmt::Display for Overlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, w) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KPTI: Overlay = Overlay(&[KnobWrite {
        knob: OverlayKnob::Kpti,
        value: true,
    }]);

    const SILICON: Overlay = Overlay(&[
        KnobWrite {
            knob: OverlayKnob::TransientForwarding,
            value: false,
        },
        KnobWrite {
            knob: OverlayKnob::MdsForwarding,
            value: false,
        },
    ]);

    #[test]
    fn apply_writes_the_named_fields() {
        let mut cfg = UarchConfig::default();
        KPTI.apply(&mut cfg);
        assert!(cfg.kpti);
        SILICON.apply(&mut cfg);
        assert!(!cfg.transient_forwarding);
        assert!(!cfg.mds_forwarding);
    }

    #[test]
    fn read_round_trips_every_knob() {
        let mut cfg = UarchConfig::default();
        for knob in [
            OverlayKnob::NoSpeculativeLoads,
            OverlayKnob::EagerPermissionCheck,
            OverlayKnob::Nda,
            OverlayKnob::Stt,
            OverlayKnob::DelayOnMiss,
            OverlayKnob::InvisibleSpec,
            OverlayKnob::CleanupSpec,
            OverlayKnob::Dawg,
            OverlayKnob::FlushPredictorsOnSwitch,
            OverlayKnob::NoIndirectPrediction,
            OverlayKnob::RsbStuffing,
            OverlayKnob::Kpti,
            OverlayKnob::SsbDisable,
            OverlayKnob::LazyFpu,
            OverlayKnob::TransientForwarding,
            OverlayKnob::MdsForwarding,
            OverlayKnob::L1tfForwarding,
        ] {
            let before = knob.read(&cfg);
            knob.write(&mut cfg, !before);
            assert_eq!(knob.read(&cfg), !before, "{knob}");
            knob.write(&mut cfg, before);
            assert_eq!(cfg, UarchConfig::default(), "{knob} restored");
        }
    }

    #[test]
    fn diff_reports_only_effective_writes() {
        let base = UarchConfig::default();
        assert_eq!(KPTI.diff(&base).len(), 1);
        let mut hardened = base.clone();
        KPTI.apply(&mut hardened);
        assert!(KPTI.diff(&hardened).is_empty());
        // The silicon fix writes `false` to knobs that default to `true`.
        assert_eq!(SILICON.diff(&base).len(), 2);
    }

    #[test]
    fn fingerprints_distinguish_knob_and_value() {
        const KPTI_OFF: Overlay = Overlay(&[KnobWrite {
            knob: OverlayKnob::Kpti,
            value: false,
        }]);
        assert_ne!(KPTI.fingerprint(), KPTI_OFF.fingerprint());
        assert_ne!(KPTI.fingerprint(), SILICON.fingerprint());
        assert_eq!(KPTI.fingerprint(), KPTI.fingerprint());
    }

    #[test]
    fn display_forms() {
        assert_eq!(KPTI.to_string(), "kpti=true");
        assert_eq!(
            SILICON.to_string(),
            "transient_forwarding=false mds_forwarding=false"
        );
    }
}
