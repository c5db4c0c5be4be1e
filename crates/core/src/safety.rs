//! The paper's safety criteria (§2.1, §5) and their taxonomy
//! (Tables 1–3).
//!
//! A safety criterion fixes *what the client's commit notification means*:
//! on how many replicas the transaction's message is guaranteed
//! **delivered**, and on how many the transaction is guaranteed **logged**
//! (and hence will eventually commit).
//!
//! Everything else the system decides per level follows from that row, so
//! it lives in the same table: the broadcast primitive (none for the lazy
//! 1-safe baseline), the reply point, the Table 3 loss rule and the report
//! label. The server, the builder, the oracle and the fuzz generator read
//! [`SafetyLevel`]'s methods instead of matching on levels; a new level or
//! a changed reply point is a one-row edit.

use std::fmt;

use groupsafe_gcs::{DeliveryGuarantee, GcsConfig, GcsModel};

/// The safety levels of Table 1, ordered by strength of the durability
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SafetyLevel {
    /// Delivered on one replica, logged nowhere. A single crash can lose
    /// the transaction.
    ZeroSafe,
    /// Delivered and logged on the delegate only (classic lazy
    /// replication). A single crash (of the delegate) can lose it.
    OneSafe,
    /// Delivered on all available replicas, logged on none (the paper's
    /// new criterion). Lost only if the whole group fails.
    GroupSafe,
    /// Delivered on all available replicas *and* logged on the delegate.
    /// Lost only if the group fails and the delegate's log is never
    /// recovered.
    GroupOneSafe,
    /// Logged on all available replicas (requires end-to-end atomic
    /// broadcast). Survives the crash of all n replicas.
    TwoSafe,
    /// Logged on all replicas, available or not. A single crash blocks
    /// commits (kept for completeness; "not very practical" — §2.1).
    VerySafe,
}

/// When the delegate answers the client: the *reply point* (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyPoint {
    /// Once the delivery is processed, before any disk write (Fig. 8).
    Processed,
    /// Once the commit record is forced to the local log (Fig. 2, and the
    /// lazy baseline's local flush).
    Logged,
    /// Once every replica of the group confirmed logging.
    AllLogged,
}

/// Table 3 as a rule: the failure that can lose an acknowledged
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossRule {
    /// Any delivery fault (0-safe).
    AnyFault,
    /// A crash of the delegate before it propagated the transaction
    /// (1-safe).
    DelegateCrash,
    /// The failure of the whole owning group (group-safe).
    GroupFailure,
    /// The failure of the whole owning group, with the delegate's log
    /// never returning (group-1-safe).
    GroupFailureAndDelegateLog,
    /// None: the level never loses (2-safe, very-safe).
    Never,
}

impl LossRule {
    /// Table 3: can an acknowledged transaction be lost under the given
    /// failure pattern? (`group_fails` = all replicas crash before the
    /// transaction is logged anywhere; `delegate_crashes` = the delegate
    /// is among them and never recovers its log.)
    pub fn can_lose(self, group_fails: bool, delegate_crashes: bool) -> bool {
        match self {
            LossRule::AnyFault => true,
            LossRule::DelegateCrash => delegate_crashes,
            LossRule::GroupFailure => group_fails,
            LossRule::GroupFailureAndDelegateLog => group_fails && delegate_crashes,
            LossRule::Never => false,
        }
    }

    /// How the oracle words a loss this rule does not excuse
    /// (`group_failed`: whether the owning groups failed).
    pub fn unexcused(self, group_failed: bool) -> &'static str {
        match self {
            LossRule::AnyFault => "the plan injected no delivery fault",
            LossRule::DelegateCrash => "no delegate-crash window covers it",
            LossRule::GroupFailureAndDelegateLog if group_failed => "the delegate's log returned",
            LossRule::GroupFailure | LossRule::GroupFailureAndDelegateLog => {
                "a majority of its group survived the whole run"
            }
            LossRule::Never => "this level never loses",
        }
    }
}

/// One row of the safety table.
struct Row {
    delivered_on: Guarantee,
    logged_on: Guarantee,
    reply: ReplyPoint,
    loss: LossRule,
    /// The atomic broadcast preset the level runs on; `None` for the lazy
    /// baseline, which uses plain messages.
    gcs: Option<fn() -> GcsConfig>,
    /// The paper's name (`Display`).
    name: &'static str,
    /// The report label of the technique implementing the level.
    label: &'static str,
}

impl SafetyLevel {
    /// Every level, weakest first.
    pub const ALL: [SafetyLevel; 6] = [
        SafetyLevel::ZeroSafe,
        SafetyLevel::OneSafe,
        SafetyLevel::GroupSafe,
        SafetyLevel::GroupOneSafe,
        SafetyLevel::TwoSafe,
        SafetyLevel::VerySafe,
    ];

    /// The safety table: Table 1's row (delivered on × logged on) and
    /// what follows from it — the reply point, the Table 3 loss rule and
    /// the broadcast primitive. Every other per-level decision is derived
    /// from these columns.
    #[rustfmt::skip]
    fn row(self) -> Row {
        use Guarantee::{AllReplicas as All, NoReplica as No, OneReplica as One};
        use LossRule::*;
        use ReplyPoint::*;
        type Preset = Option<fn() -> GcsConfig>;
        let row = |delivered_on, logged_on, reply, loss, gcs: Preset, name, label| Row {
            delivered_on, logged_on, reply, loss, gcs, name, label,
        };
        let (non_uniform, uniform, e2e): (Preset, Preset, Preset) = (
            Some(GcsConfig::view_based_non_uniform),
            Some(GcsConfig::view_based_uniform),
            Some(GcsConfig::end_to_end),
        );
        match self {
            //                               dlv. log. reply      loss                        broadcast    name            label
            SafetyLevel::ZeroSafe     => row(One, No,  Processed, AnyFault,                   non_uniform, "0-safe",       "0-safe (dsm)"),
            SafetyLevel::OneSafe      => row(One, One, Logged,    DelegateCrash,              None,        "1-safe",       "lazy (1-safe)"),
            SafetyLevel::GroupSafe    => row(All, No,  Processed, GroupFailure,               uniform,     "group-safe",   "group-safe"),
            SafetyLevel::GroupOneSafe => row(All, One, Logged,    GroupFailureAndDelegateLog, uniform,     "group-1-safe", "group-1-safe"),
            SafetyLevel::TwoSafe      => row(All, All, Logged,    Never,                      e2e,         "2-safe",       "2-safe (e2e)"),
            SafetyLevel::VerySafe     => row(All, All, AllLogged, Never,                      e2e,         "very-safe",    "very-safe"),
        }
    }

    /// Table 1's vertical axis: replicas guaranteed to have *delivered*
    /// the transaction's message when the client is notified.
    pub fn delivered_on(self) -> Guarantee {
        self.row().delivered_on
    }

    /// Table 1's horizontal axis: replicas guaranteed to have *logged*
    /// the transaction when the client is notified.
    pub fn logged_on(self) -> Guarantee {
        self.row().logged_on
    }

    /// Table 2: the number of simultaneous crashes (out of `n`) the level
    /// tolerates without losing an acknowledged transaction — none when
    /// only one replica delivered it, all `n` when every replica logged
    /// it, otherwise all but one member of the group.
    ///
    /// Convention for `n = 0`: a system with no replicas tolerates no
    /// crashes at any level — the group rows saturate to 0 instead of
    /// underflowing.
    pub fn tolerated_crashes(self, n: usize) -> usize {
        match (self.delivered_on(), self.logged_on()) {
            (Guarantee::OneReplica, _) => 0,
            (_, Guarantee::AllReplicas) => n,
            _ => n.saturating_sub(1),
        }
    }

    /// The weak levels: a single crash can lose an acknowledged
    /// transaction (Table 2 row of zeros), so they promise nothing under
    /// delivery faults.
    pub fn is_weak(self) -> bool {
        self.delivered_on() == Guarantee::OneReplica
    }

    /// Table 3's rule for this level.
    pub fn loss_rule(self) -> LossRule {
        self.row().loss
    }

    /// When the delegate answers the client.
    pub fn reply_point(self) -> ReplyPoint {
        self.row().reply
    }

    /// Whether the client reply may be sent before any disk write
    /// (what makes group-safe fast, §5.1). At every other level commit
    /// forces the commit record before the reply.
    pub fn reply_before_logging(self) -> bool {
        self.reply_point() == ReplyPoint::Processed
    }

    /// The group communication configuration the level runs on: view
    /// based non-uniform (0-safe), view based uniform (group-safe,
    /// group-1-safe), end-to-end (2-safe, very-safe), or `None` for the
    /// lazy 1-safe baseline.
    pub fn gcs_config(self) -> Option<GcsConfig> {
        self.row().gcs.map(|preset| preset())
    }

    /// Whether the database state machine implements the level (it has
    /// a broadcast primitive); 1-safe is the lazy baseline's.
    pub fn is_dsm(self) -> bool {
        self.row().gcs.is_some()
    }

    /// Whether the level runs in the dynamic (view based) model, where a
    /// whole-group failure needs an operator restart and a view must
    /// keep a majority to stay live.
    pub fn view_based(self) -> bool {
        self.gcs_config()
            .is_some_and(|c| c.model == GcsModel::ViewBased)
    }

    /// Whether processing a delivery owes the end-to-end `ack(m)` (§4)
    /// once everything it changed is durable.
    pub fn owes_ack(self) -> bool {
        self.gcs_config().is_some_and(|c| c.end_to_end)
    }

    /// Whether the level's endpoint tracks group stability (uniform
    /// delivery casts the votes stable reads are served below).
    pub fn tracks_stability(self) -> bool {
        self.gcs_config()
            .is_some_and(|c| c.guarantee == DeliveryGuarantee::Uniform)
    }

    /// Whether a transaction can commit across replica groups: that needs
    /// certification to vote with (the state machine) and a reply point
    /// inside one group (very-safe's all-logged confirmation round is not
    /// defined across groups).
    pub fn spans_groups(self) -> bool {
        self.is_dsm() && self.reply_point() != ReplyPoint::AllLogged
    }

    /// Whether the level can be switched at runtime (§5.2): the levels
    /// on the view based uniform broadcast differ only in their reply
    /// point, so group-safe and group-1-safe swap live.
    pub fn switchable(self) -> bool {
        self.view_based() && self.tracks_stability()
    }

    /// The report label of the technique implementing the level.
    pub fn label(self) -> &'static str {
        self.row().label
    }
}

impl fmt::Display for SafetyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.row().name)
    }
}

/// "On how many replicas" a guarantee holds (the axes of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// No replica.
    NoReplica,
    /// Exactly one replica (the delegate).
    OneReplica,
    /// Every available replica.
    AllReplicas,
}

/// Reconstruct Table 1: which safety level sits at a given
/// (delivered, logged) cell. Returns `None` for the impossible cell
/// (logged on all but delivered on one is greyed out in the paper).
/// Very-safe shares 2-safe's cell; the table names 2-safe.
pub fn table1(delivered: Guarantee, logged: Guarantee) -> Option<SafetyLevel> {
    SafetyLevel::ALL
        .into_iter()
        .find(|l| l.delivered_on() == delivered && l.logged_on() == logged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use DeliveryGuarantee::{NonUniform, Uniform};
    use GcsModel::{CrashRecovery, ViewBased};
    use Guarantee::*;
    use ReplyPoint::*;
    use SafetyLevel::*;

    /// The broadcast primitives: (model, delivery, end-to-end).
    type Primitive = Option<(GcsModel, DeliveryGuarantee, bool)>;
    const LAZY: Primitive = None;
    const NON_UNIFORM: Primitive = Some((ViewBased, NonUniform, false));
    const UNIFORM: Primitive = Some((ViewBased, Uniform, false));
    const E2E: Primitive = Some((CrashRecovery, Uniform, true));

    /// One level's row of the paper's tables, written out independently
    /// of `row`: Table 1 (delivered, logged), Table 2 at n = 9, Table 3
    /// (`can_lose` for group fails × delegate crashes = ff, ft, tf, tt),
    /// the reply point and the broadcast primitive.
    #[rustfmt::skip]
    type Expected = (SafetyLevel, Guarantee, Guarantee, usize, [bool; 4], ReplyPoint, Primitive);

    #[rustfmt::skip]
    const EXPECTED: [Expected; 6] = [
        (ZeroSafe,     OneReplica,  NoReplica,   0, [true, true, true, true],     Processed, NON_UNIFORM),
        (OneSafe,      OneReplica,  OneReplica,  0, [false, true, false, true],   Logged,    LAZY),
        (GroupSafe,    AllReplicas, NoReplica,   8, [false, false, true, true],   Processed, UNIFORM),
        (GroupOneSafe, AllReplicas, OneReplica,  8, [false, false, false, true],  Logged,    UNIFORM),
        (TwoSafe,      AllReplicas, AllReplicas, 9, [false, false, false, false], Logged,    E2E),
        (VerySafe,     AllReplicas, AllReplicas, 9, [false, false, false, false], AllLogged, E2E),
    ];

    #[test]
    fn table1_cells_match_paper() {
        let levels: Vec<SafetyLevel> = EXPECTED.iter().map(|e| e.0).collect();
        assert_eq!(levels, SafetyLevel::ALL);
        for (level, delivered, logged, ..) in EXPECTED {
            assert_eq!(
                (level.delivered_on(), level.logged_on()),
                (delivered, logged)
            );
            let cell = if level == VerySafe { TwoSafe } else { level };
            assert_eq!(table1(delivered, logged), Some(cell));
        }
        // Greyed-out cell: a transaction cannot be logged before delivery.
        assert_eq!(table1(OneReplica, AllReplicas), None);
    }

    #[test]
    fn table2_crash_tolerance() {
        for (level, _, _, tolerated, ..) in EXPECTED {
            assert_eq!(level.tolerated_crashes(9), tolerated, "{level}");
            assert_eq!(level.is_weak(), tolerated == 0, "{level}");
            // Degenerate group sizes saturate instead of underflowing.
            assert_eq!(level.tolerated_crashes(0), 0, "{level}: n = 0 saturates");
        }
        assert_eq!(GroupSafe.tolerated_crashes(1), 0);
        assert_eq!(TwoSafe.tolerated_crashes(1), 1);
    }

    #[test]
    fn table3_loss_matrix() {
        let patterns = [(false, false), (false, true), (true, false), (true, true)];
        for (level, _, _, _, loses, ..) in EXPECTED {
            for ((group, delegate), lost) in patterns.into_iter().zip(loses) {
                assert_eq!(
                    level.loss_rule().can_lose(group, delegate),
                    lost,
                    "{level}: {group} {delegate}"
                );
            }
        }
        // The oracle's wording of an unexcused loss.
        let reason = |l: SafetyLevel, group_failed| l.loss_rule().unexcused(group_failed);
        assert_eq!(reason(GroupOneSafe, true), "the delegate's log returned");
        assert_eq!(reason(GroupOneSafe, false), reason(GroupSafe, true));
        assert_eq!(reason(VerySafe, false), "this level never loses");
    }

    #[test]
    fn reply_points_and_broadcast_primitives() {
        for (l, _, logged, _, _, reply, primitive) in EXPECTED {
            assert_eq!(l.reply_point(), reply, "{l}");
            // Replying before any disk write is exactly "logged nowhere".
            assert_eq!(l.reply_before_logging(), logged == NoReplica, "{l}");
            let got = l.gcs_config().map(|c| (c.model, c.guarantee, c.end_to_end));
            assert_eq!(got, primitive, "{l}");
            let (uniform, e2e) = (primitive == UNIFORM, primitive == E2E);
            assert_eq!(l.is_dsm(), primitive != LAZY, "{l}");
            assert_eq!(l.view_based(), uniform || primitive == NON_UNIFORM, "{l}");
            assert_eq!(l.owes_ack(), e2e, "{l}");
            assert_eq!(l.tracks_stability(), uniform || e2e, "{l}");
            assert_eq!(l.switchable(), uniform, "{l}");
            assert_eq!(l.spans_groups(), l.is_dsm() && reply != AllLogged, "{l}");
        }
    }

    #[test]
    fn names_labels_and_strength_order() {
        let names = [
            "0-safe",
            "1-safe",
            "group-safe",
            "group-1-safe",
            "2-safe",
            "very-safe",
        ];
        assert_eq!(SafetyLevel::ALL.map(|l| l.to_string()), names);
        let labels = [
            "0-safe (dsm)",
            "lazy (1-safe)",
            "group-safe",
            "group-1-safe",
            "2-safe (e2e)",
            "very-safe",
        ];
        assert_eq!(SafetyLevel::ALL.map(|l| l.label()), labels);
        for pair in SafetyLevel::ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} < {}", pair[0], pair[1]);
        }
    }
}
