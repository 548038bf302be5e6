//! The server-policy rules: capacity state machines for the literature-exact
//! aperiodic servers RTSS simulates.
//!
//! These implement the *textbook* policies (Lehoczky, Sha & Strosnider for
//! the Deferrable Server; Lehoczky et al. for the Polling Server; Sprunt,
//! Sha & Lehoczky for the Sporadic Server), not the paper's RTSJ
//! implementation: handlers are resumable, the server never pays any
//! overhead, and capacity accounting is exact. The differences with the
//! implementation are precisely what Tables 2–5 measure.
//!
//! Each rule exists once, here, and both simulation loops run it: the
//! engine's driver ([`crate::engine`]) monomorphizes over one policy type per
//! system when every lane shares a kind, and falls back to
//! [`AnyLanePolicy`] for mixed systems, policy swaps and the naive oracle
//! ([`crate::reference`]). Statics (capacity, period) are read from the
//! lane's current [`ServerSpec`], so a mode change only has to rewrite the
//! spec ([`apply_mode_change`]) and tell the state
//! ([`LanePolicy::reconfigure`]).

use rt_model::{Instant, ModeChange, ServerPolicyKind, ServerSpec, Span};
use std::collections::VecDeque;

/// The capacity state machine of one server lane. Instants passed to
/// [`LanePolicy::consume`] are the *start* of the consumed slice (the
/// Sporadic Server anchors replenishments there).
pub(crate) trait LanePolicy {
    /// State as it is just before time zero.
    fn init(spec: &ServerSpec) -> Self;
    /// Applies every replenishment due at or before `now`. `queue_empty`
    /// lets the Polling Server forfeit fresh capacity with nothing to poll.
    fn replenish_due(&mut self, spec: &ServerSpec, now: Instant, queue_empty: bool);
    /// Debits `amount` for a slice that started at `start`.
    fn consume(&mut self, spec: &ServerSpec, amount: Span, start: Instant);
    /// The pending queue just became empty.
    fn on_queue_emptied(&mut self, spec: &ServerSpec);
    /// Capacity currently available ([`Span::MAX`] for unlimited policies).
    fn available(&self) -> Span;
    /// Next instant the capacity can grow ([`Instant::MAX`] when none is
    /// scheduled).
    fn next_replenishment(&self) -> Instant;
    /// Whether the policy maintains a finite capacity.
    fn is_capacity_limited(&self) -> bool;
    /// The *replenishment-derived deadline* an EDF dispatcher ranks the lane
    /// by: the end of the current period (PS/DS), the open chunk's
    /// `anchor + period` or the earliest scheduled replenishment or
    /// `now + period` (SS), [`Instant::MAX`] for background servicing.
    fn edf_deadline(&self, spec: &ServerSpec, now: Instant) -> Instant;
    /// Applies one validated mode-change record at a quiescent instant;
    /// `spec` already carries the post-change statics
    /// ([`apply_mode_change`]). A capacity change clamps the available
    /// capacity to the new ceiling and leaves scheduled replenishments alone
    /// (they clamp on arrival); a policy swap (only reachable through
    /// [`AnyLanePolicy`]) rebuilds the state fresh.
    fn reconfigure(&mut self, spec: &ServerSpec, change: &ModeChange);
}

/// Writes a validated mode-change record into a lane's statics. Discipline
/// and admission are spec-only: the loops re-read the discipline per
/// dispatch and rebuild the admission machine from the updated spec.
pub(crate) fn apply_mode_change(spec: &mut ServerSpec, change: &ModeChange) {
    if let Some(capacity) = change.capacity {
        spec.capacity = capacity;
    }
    if let Some(period) = change.period {
        spec.period = period;
    }
    if let Some(discipline) = change.discipline {
        spec.discipline = discipline;
    }
    if let Some(admission) = change.admission {
        spec.admission = admission;
    }
    if let Some(kind) = change.policy {
        spec.policy = kind;
    }
}

/// The two periodically replenished policies: full capacity every period
/// (missed replenishments collapse into one). `POLLING` selects the Polling
/// Server, which "loses its remaining capacity until its next activation" as
/// soon as there is nothing to poll; otherwise the Deferrable Server, which
/// keeps it.
///
/// The first replenishment (the initial activation) is scheduled at time zero
/// itself, so the very first `replenish_due` decides — from whether anything
/// is already pending — whether a Polling Server keeps its first capacity.
#[derive(Debug, Clone)]
pub(crate) struct Periodic<const POLLING: bool> {
    capacity: Span,
    next_rep: Instant,
}

/// Polling Server.
pub(crate) type PollingLane = Periodic<true>;
/// Deferrable Server.
pub(crate) type DeferrableLane = Periodic<false>;

impl<const POLLING: bool> LanePolicy for Periodic<POLLING> {
    fn init(_spec: &ServerSpec) -> Self {
        Periodic {
            capacity: Span::ZERO,
            next_rep: Instant::ZERO,
        }
    }

    fn replenish_due(&mut self, spec: &ServerSpec, now: Instant, queue_empty: bool) {
        let mut replenished = false;
        while self.next_rep <= now {
            self.capacity = spec.capacity;
            self.next_rep += spec.period;
            replenished = true;
        }
        if POLLING && replenished && queue_empty {
            self.capacity = Span::ZERO;
        }
    }

    fn consume(&mut self, _spec: &ServerSpec, amount: Span, _start: Instant) {
        debug_assert!(amount <= self.capacity, "server executed beyond capacity");
        self.capacity = self.capacity.saturating_sub(amount);
    }

    fn on_queue_emptied(&mut self, _spec: &ServerSpec) {
        if POLLING {
            self.capacity = Span::ZERO;
        }
    }

    fn available(&self) -> Span {
        self.capacity
    }

    fn next_replenishment(&self) -> Instant {
        self.next_rep
    }

    fn is_capacity_limited(&self) -> bool {
        true
    }

    fn edf_deadline(&self, _spec: &ServerSpec, _now: Instant) -> Instant {
        self.next_rep
    }

    fn reconfigure(&mut self, spec: &ServerSpec, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
        if change.capacity.is_some() {
            self.capacity = self.capacity.min(spec.capacity);
        }
    }
}

/// Background servicing: no capacity limit, no replenishments.
#[derive(Debug, Clone)]
pub(crate) struct BackgroundLane;

impl LanePolicy for BackgroundLane {
    fn init(_spec: &ServerSpec) -> Self {
        BackgroundLane
    }

    fn replenish_due(&mut self, _spec: &ServerSpec, _now: Instant, _queue_empty: bool) {}

    fn consume(&mut self, _spec: &ServerSpec, _amount: Span, _start: Instant) {}

    fn on_queue_emptied(&mut self, _spec: &ServerSpec) {}

    fn available(&self) -> Span {
        Span::MAX
    }

    fn next_replenishment(&self) -> Instant {
        Instant::MAX
    }

    fn is_capacity_limited(&self) -> bool {
        false
    }

    fn edf_deadline(&self, _spec: &ServerSpec, _now: Instant) -> Instant {
        Instant::MAX
    }

    fn reconfigure(&mut self, _spec: &ServerSpec, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
    }
}

/// Sporadic Server (Sprunt-style, simplified): the server starts with its
/// full capacity; capacity consumed during one *active chunk* — a maximal
/// service burst anchored at the instant the chunk's first slice starts — is
/// replenished, as one replenishment event, exactly one server period after
/// the anchor. Chunks close when the capacity is exhausted or the pending
/// queue drains.
///
/// Because capacity-limited servers must run above every periodic task, a
/// chunk's first slice starts at the instant the server became eligible
/// (modulo interference from higher-priority servers), so anchoring at the
/// slice start matches Sprunt's "replenishment time set when the server
/// becomes active" rule for the system shapes the validator admits.
#[derive(Debug, Clone)]
pub(crate) struct SporadicLane {
    capacity: Span,
    /// Scheduled replenishments `(when, amount)`. Anchors are nondecreasing
    /// over time, so the queue stays time-ordered without a heap.
    pending: VecDeque<(Instant, Span)>,
    /// Anchor of the open active chunk, if any.
    anchor: Option<Instant>,
    /// Capacity consumed since the anchor.
    consumed: Span,
}

impl SporadicLane {
    /// Closes the open chunk, scheduling its replenishment one period after
    /// the anchor.
    fn close_chunk(&mut self, spec: &ServerSpec) {
        if let Some(anchor) = self.anchor.take() {
            if !self.consumed.is_zero() {
                self.pending
                    .push_back((anchor + spec.period, self.consumed));
            }
            self.consumed = Span::ZERO;
        }
    }
}

impl LanePolicy for SporadicLane {
    fn init(spec: &ServerSpec) -> Self {
        SporadicLane {
            capacity: spec.capacity,
            pending: VecDeque::new(),
            anchor: None,
            consumed: Span::ZERO,
        }
    }

    fn replenish_due(&mut self, spec: &ServerSpec, now: Instant, _queue_empty: bool) {
        while let Some(&(when, amount)) = self.pending.front() {
            if when > now {
                break;
            }
            self.pending.pop_front();
            self.capacity = (self.capacity + amount).min(spec.capacity);
        }
    }

    fn consume(&mut self, spec: &ServerSpec, amount: Span, start: Instant) {
        debug_assert!(amount <= self.capacity, "server executed beyond capacity");
        if self.anchor.is_none() {
            self.anchor = Some(start);
        }
        // Replenish only what was actually debited, so the total capacity in
        // flight (available + scheduled) never exceeds the full capacity.
        let debit = amount.min(self.capacity);
        self.capacity = self.capacity.minus(debit);
        self.consumed += debit;
        if self.capacity.is_zero() {
            self.close_chunk(spec);
        }
    }

    fn on_queue_emptied(&mut self, spec: &ServerSpec) {
        self.close_chunk(spec);
    }

    fn available(&self) -> Span {
        self.capacity
    }

    fn next_replenishment(&self) -> Instant {
        self.pending
            .front()
            .map(|&(when, _)| when)
            .unwrap_or(Instant::MAX)
    }

    fn is_capacity_limited(&self) -> bool {
        true
    }

    fn edf_deadline(&self, spec: &ServerSpec, now: Instant) -> Instant {
        match (self.anchor, self.pending.front()) {
            (Some(anchor), _) => anchor + spec.period,
            (None, Some(&(when, _))) => when,
            (None, None) => now + spec.period,
        }
    }

    fn reconfigure(&mut self, spec: &ServerSpec, change: &ModeChange) {
        debug_assert!(change.policy.is_none(), "no swap reaches a mono lane");
        if change.capacity.is_some() {
            self.capacity = self.capacity.min(spec.capacity);
        }
    }
}

/// Any of the four policies behind a per-call kind branch: the lane type of
/// systems mixing kinds or swapping policies, and of the oracle.
#[derive(Debug, Clone)]
pub(crate) enum AnyLanePolicy {
    Polling(PollingLane),
    Deferrable(DeferrableLane),
    Background(BackgroundLane),
    Sporadic(SporadicLane),
}

macro_rules! any_lane {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyLanePolicy::Polling($p) => $body,
            AnyLanePolicy::Deferrable($p) => $body,
            AnyLanePolicy::Background($p) => $body,
            AnyLanePolicy::Sporadic($p) => $body,
        }
    };
}

impl LanePolicy for AnyLanePolicy {
    fn init(spec: &ServerSpec) -> Self {
        match spec.policy {
            ServerPolicyKind::Polling => AnyLanePolicy::Polling(PollingLane::init(spec)),
            ServerPolicyKind::Deferrable => AnyLanePolicy::Deferrable(DeferrableLane::init(spec)),
            ServerPolicyKind::Background => AnyLanePolicy::Background(BackgroundLane),
            ServerPolicyKind::Sporadic => AnyLanePolicy::Sporadic(SporadicLane::init(spec)),
        }
    }

    fn replenish_due(&mut self, spec: &ServerSpec, now: Instant, queue_empty: bool) {
        any_lane!(self, p => p.replenish_due(spec, now, queue_empty))
    }

    fn consume(&mut self, spec: &ServerSpec, amount: Span, start: Instant) {
        any_lane!(self, p => p.consume(spec, amount, start))
    }

    fn on_queue_emptied(&mut self, spec: &ServerSpec) {
        any_lane!(self, p => p.on_queue_emptied(spec))
    }

    fn available(&self) -> Span {
        any_lane!(self, p => p.available())
    }

    fn next_replenishment(&self) -> Instant {
        any_lane!(self, p => p.next_replenishment())
    }

    fn is_capacity_limited(&self) -> bool {
        any_lane!(self, p => p.is_capacity_limited())
    }

    fn edf_deadline(&self, spec: &ServerSpec, now: Instant) -> Instant {
        any_lane!(self, p => p.edf_deadline(spec, now))
    }

    fn reconfigure(&mut self, spec: &ServerSpec, change: &ModeChange) {
        if change.policy.is_some() {
            // `spec.policy` already names the swap target (validation
            // restricts it to Background/Sporadic): rebuild the variant
            // fresh — full capacity, no scheduled replenishments, no open
            // chunk.
            *self = AnyLanePolicy::init(spec);
        } else {
            any_lane!(self, p => p.reconfigure(spec, change))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_model::Priority;

    /// One lane under test: its statics plus its state, driven the way the
    /// loops drive it.
    struct Lane {
        spec: ServerSpec,
        state: AnyLanePolicy,
    }

    impl Lane {
        fn new(spec: ServerSpec) -> Self {
            Lane {
                state: AnyLanePolicy::init(&spec),
                spec,
            }
        }

        /// Replenishes, reporting whether the available capacity or the
        /// next replenishment instant moved.
        fn replenish_due(&mut self, now: Instant, queue_empty: bool) -> bool {
            let before = (self.state.available(), self.state.next_replenishment());
            self.state.replenish_due(&self.spec, now, queue_empty);
            before != (self.state.available(), self.state.next_replenishment())
        }

        fn consume(&mut self, amount: Span, start: Instant) {
            self.state.consume(&self.spec, amount, start);
        }

        fn on_queue_emptied(&mut self) {
            self.state.on_queue_emptied(&self.spec);
        }

        fn reconfigure(&mut self, change: &ModeChange) {
            apply_mode_change(&mut self.spec, change);
            self.state.reconfigure(&self.spec, change);
        }

        fn capacity(&self) -> Span {
            self.state.available()
        }

        fn is_ready(&self, queue_empty: bool) -> bool {
            !queue_empty && !self.capacity().is_zero()
        }
    }

    fn polling() -> Lane {
        Lane::new(ServerSpec::polling(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ))
    }

    fn deferrable() -> Lane {
        Lane::new(ServerSpec::deferrable(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ))
    }

    fn sporadic() -> Lane {
        Lane::new(ServerSpec::sporadic(
            Span::from_units(3),
            Span::from_units(6),
            Priority::new(30),
        ))
    }

    #[test]
    fn initial_activation_is_scheduled_at_time_zero() {
        let mut s = polling();
        assert_eq!(s.state.next_replenishment(), Instant::ZERO);
        assert!(s.state.is_capacity_limited());
        // With pending work at time zero the first activation keeps the full
        // capacity and schedules the next replenishment one period later.
        assert!(s.replenish_due(Instant::ZERO, false));
        assert_eq!(s.capacity(), Span::from_units(3));
        assert_eq!(s.state.next_replenishment(), Instant::from_units(6));
        // Without pending work a polling server forfeits it immediately.
        let mut idle = polling();
        assert!(idle.replenish_due(Instant::ZERO, true));
        assert_eq!(idle.capacity(), Span::ZERO);
    }

    #[test]
    fn background_server_is_never_capacity_limited() {
        let mut s = Lane::new(ServerSpec::background(Priority::MIN));
        assert!(!s.state.is_capacity_limited());
        assert!(!s.replenish_due(Instant::from_units(100), true));
        s.consume(Span::from_units(50), Instant::ZERO);
        assert_eq!(s.capacity(), Span::MAX);
        assert!(s.is_ready(false));
        assert!(!s.is_ready(true));
        assert_eq!(s.state.edf_deadline(&s.spec, Instant::ZERO), Instant::MAX);
    }

    #[test]
    fn polling_server_discards_capacity_when_idle_at_activation() {
        let mut s = polling();
        assert!(s.replenish_due(Instant::from_units(6), true));
        assert_eq!(s.capacity(), Span::ZERO);
        // Next activation with pending work gets the full capacity back.
        assert!(s.replenish_due(Instant::from_units(12), false));
        assert_eq!(s.capacity(), Span::from_units(3));
    }

    #[test]
    fn deferrable_server_keeps_capacity_when_idle() {
        let mut s = deferrable();
        assert!(s.replenish_due(Instant::from_units(6), true));
        assert_eq!(s.capacity(), Span::from_units(3));
    }

    #[test]
    fn consume_and_queue_emptied() {
        let mut s = polling();
        s.replenish_due(Instant::ZERO, false);
        s.consume(Span::from_units(2), Instant::ZERO);
        assert_eq!(s.capacity(), Span::from_units(1));
        s.on_queue_emptied();
        assert_eq!(s.capacity(), Span::ZERO);

        let mut d = deferrable();
        d.replenish_due(Instant::ZERO, false);
        d.consume(Span::from_units(2), Instant::ZERO);
        d.on_queue_emptied();
        assert_eq!(
            d.capacity(),
            Span::from_units(1),
            "the DS keeps its remaining capacity"
        );
    }

    #[test]
    fn multiple_missed_replenishments_are_collapsed() {
        let mut s = deferrable();
        s.replenish_due(Instant::ZERO, false);
        s.consume(Span::from_units(3), Instant::ZERO);
        assert!(s.replenish_due(Instant::from_units(20), false));
        assert_eq!(s.capacity(), Span::from_units(3));
        assert_eq!(s.state.next_replenishment(), Instant::from_units(24));
    }

    #[test]
    fn readiness_depends_on_capacity_and_queue() {
        let mut s = polling();
        s.replenish_due(Instant::ZERO, false);
        assert!(s.is_ready(false));
        assert!(!s.is_ready(true));
        s.consume(Span::from_units(3), Instant::ZERO);
        assert!(!s.is_ready(false));
    }

    #[test]
    fn sporadic_server_starts_full_and_replenishes_per_consumption() {
        let mut s = sporadic();
        assert_eq!(s.capacity(), Span::from_units(3));
        assert_eq!(s.state.next_replenishment(), Instant::MAX);
        // A chunk of 2 units starting at t=1 closes when the queue drains at
        // t=3: replenishment of 2 scheduled at 1 + 6 = 7.
        s.consume(Span::from_units(2), Instant::from_units(1));
        s.on_queue_emptied();
        assert_eq!(s.capacity(), Span::from_units(1));
        assert_eq!(s.state.next_replenishment(), Instant::from_units(7));
        assert!(!s.replenish_due(Instant::from_units(6), true));
        assert!(s.replenish_due(Instant::from_units(7), true));
        assert_eq!(s.capacity(), Span::from_units(3));
        assert_eq!(s.state.next_replenishment(), Instant::MAX);
    }

    #[test]
    fn sporadic_exhaustion_closes_the_chunk_immediately() {
        let mut s = sporadic();
        // Consume everything in one chunk anchored at t=2.
        s.consume(Span::from_units(3), Instant::from_units(2));
        assert_eq!(s.capacity(), Span::ZERO);
        assert!(!s.is_ready(false));
        assert_eq!(s.state.next_replenishment(), Instant::from_units(8));
        // A later chunk anchors at its own start.
        assert!(s.replenish_due(Instant::from_units(8), false));
        s.consume(Span::from_units(1), Instant::from_units(9));
        s.on_queue_emptied();
        assert_eq!(s.state.next_replenishment(), Instant::from_units(15));
    }

    #[test]
    fn reconfigure_clamps_capacity_and_keeps_scheduled_replenishments() {
        let mut s = deferrable();
        s.replenish_due(Instant::ZERO, false);
        assert_eq!(s.capacity(), Span::from_units(3));
        // Shrink to 2: available clamps, the next replenishment instant
        // stays, and from then on refills hit the new ceiling.
        s.reconfigure(
            &ModeChange::at(Instant::from_units(3), 0).with_capacity(Span::from_units(2)),
        );
        assert_eq!(s.capacity(), Span::from_units(2));
        assert_eq!(s.state.next_replenishment(), Instant::from_units(6));
        s.consume(Span::from_units(2), Instant::from_units(3));
        assert!(s.replenish_due(Instant::from_units(6), false));
        assert_eq!(s.capacity(), Span::from_units(2));
    }

    #[test]
    fn reconfigure_swaps_a_lane_to_a_fresh_sporadic_state() {
        let mut s = deferrable();
        s.replenish_due(Instant::ZERO, false);
        s.consume(Span::from_units(2), Instant::ZERO);
        let change = ModeChange::at(Instant::from_units(4), 0)
            .with_policy(ServerPolicyKind::Sporadic)
            .with_capacity(Span::from_units(4))
            .with_period(Span::from_units(8));
        s.reconfigure(&change);
        assert_eq!(s.spec.policy, ServerPolicyKind::Sporadic);
        assert_eq!(s.capacity(), Span::from_units(4), "fresh full capacity");
        assert_eq!(
            s.state.next_replenishment(),
            Instant::MAX,
            "no inherited replenishments"
        );
        // A background swap drops the capacity limit entirely.
        let mut d = deferrable();
        d.reconfigure(
            &ModeChange::at(Instant::from_units(4), 0).with_policy(ServerPolicyKind::Background),
        );
        assert!(!d.state.is_capacity_limited());
        assert_eq!(d.capacity(), Span::MAX);
    }

    #[test]
    fn sporadic_chunks_accumulate_split_consumption() {
        let mut s = sporadic();
        // Two slices of the same chunk (preempted service): one replenishment
        // of the total at anchor + period.
        s.consume(Span::from_units(1), Instant::from_units(2));
        s.consume(Span::from_units(1), Instant::from_units(4));
        s.on_queue_emptied();
        assert_eq!(s.capacity(), Span::from_units(1));
        assert!(s.replenish_due(Instant::from_units(8), true));
        assert_eq!(s.capacity(), Span::from_units(3));
    }
}
