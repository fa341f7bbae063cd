//! Membership state machine with heartbeat failure detection.

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Registry tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegistryConfig {
    /// A member that has not heartbeat for this long is declared dead.
    pub heartbeat_timeout: SimDuration,
    /// A member silent for longer than this (but not yet past the
    /// timeout) is marked [`MemberState::Suspect`]: liveness unresolved,
    /// not yet a death verdict. Must be below `heartbeat_timeout` to be
    /// meaningful; equal disables the Suspect window entirely.
    pub suspect_after: SimDuration,
}

impl RegistryConfig {
    /// Config with the given death timeout and the suspicion threshold at
    /// half of it — silence past half the budget is already suspicious,
    /// while an ordinarily-scheduled heartbeat never trips it.
    pub fn with_timeout(heartbeat_timeout: SimDuration) -> Self {
        Self {
            heartbeat_timeout,
            suspect_after: SimDuration(heartbeat_timeout.0 / 2),
        }
    }
}

impl Default for RegistryConfig {
    fn default() -> Self {
        // Generous relative to the paper's multi-minute monitoring
        // periods; failure detection should be much faster than a period.
        Self::with_timeout(SimDuration::from_secs(30))
    }
}

/// Lifecycle state of a member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Participating in the computation.
    Alive,
    /// Suspiciously silent: past `suspect_after` without a heartbeat but
    /// not yet past the death timeout. Still a member (holds resources),
    /// but its liveness is unresolved — consumers must not treat its
    /// monitoring data as current, and adaptation holds fire on shrink
    /// decisions until the silence resolves into Alive or Dead.
    Suspect,
    /// Asked (signalled) to leave; still alive until it confirms.
    Leaving,
    /// Left gracefully.
    Left,
    /// Declared dead by the failure detector or reported crashed.
    Dead,
}

/// Events the registry emits for interested parties (the coordinator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistryEvent {
    /// A node joined the computation.
    Joined(NodeId, ClusterId),
    /// A node left gracefully (e.g. after a leave signal).
    Left(NodeId),
    /// A node was declared dead.
    Died(NodeId),
    /// A node fell suspiciously silent (Alive → Suspect).
    Suspected(NodeId),
    /// A suspect node resumed heartbeating (Suspect → Alive). No
    /// blacklist entry is ever made for having been suspect.
    Resumed(NodeId),
}

#[derive(Clone, Debug)]
struct MemberInfo {
    cluster: ClusterId,
    state: MemberState,
    last_heartbeat: SimTime,
}

/// The membership registry. One logical instance per computation (the
/// paper's registry is a centralized server).
#[derive(Clone, Debug)]
pub struct Membership {
    cfg: RegistryConfig,
    members: BTreeMap<NodeId, MemberInfo>,
    events: Vec<RegistryEvent>,
    /// Leave signals queued for delivery (the engine drains these and
    /// notifies the target node).
    pending_signals: Vec<NodeId>,
}

impl Membership {
    /// Creates an empty registry.
    pub fn new(cfg: RegistryConfig) -> Self {
        Self {
            cfg,
            members: BTreeMap::new(),
            events: Vec::new(),
            pending_signals: Vec::new(),
        }
    }

    /// Registers a node as alive. An id whose previous incarnation left
    /// gracefully may register again — the pool releases such nodes and a
    /// later grant can hand the same machine back. Joining while alive
    /// (or after a crash: crashed nodes are never re-granted) indicates an
    /// engine bug.
    pub fn join(&mut self, now: SimTime, node: NodeId, cluster: ClusterId) {
        let prev = self.members.insert(
            node,
            MemberInfo {
                cluster,
                state: MemberState::Alive,
                last_heartbeat: now,
            },
        );
        assert!(
            prev.is_none_or(|p| p.state == MemberState::Left),
            "node {node} joined twice"
        );
        self.events.push(RegistryEvent::Joined(node, cluster));
    }

    /// Records a heartbeat from `node`. Heartbeats from unknown or
    /// non-alive members are ignored (they can race with failure
    /// declarations — the paper notes clocks are unsynchronized). A
    /// heartbeat from a Suspect member is proof of life: it returns to
    /// Alive and a [`RegistryEvent::Resumed`] is emitted — suspicion is
    /// not a verdict and leaves no blacklist trace.
    pub fn heartbeat(&mut self, now: SimTime, node: NodeId) {
        if let Some(m) = self.members.get_mut(&node) {
            match m.state {
                MemberState::Alive | MemberState::Leaving => {
                    m.last_heartbeat = now;
                }
                MemberState::Suspect => {
                    m.state = MemberState::Alive;
                    m.last_heartbeat = now;
                    self.events.push(RegistryEvent::Resumed(node));
                }
                MemberState::Left | MemberState::Dead => {}
            }
        }
    }

    /// Graceful leave (e.g. in response to a signal). A Suspect member
    /// may still leave — the leave message itself resolves the silence.
    pub fn leave(&mut self, node: NodeId) {
        if let Some(m) = self.members.get_mut(&node) {
            if matches!(
                m.state,
                MemberState::Alive | MemberState::Leaving | MemberState::Suspect
            ) {
                m.state = MemberState::Left;
                self.events.push(RegistryEvent::Left(node));
            }
        }
    }

    /// Immediate crash report (the communication layer noticed a broken
    /// channel before the heartbeat timeout fired).
    pub fn report_crash(&mut self, node: NodeId) {
        if let Some(m) = self.members.get_mut(&node) {
            if matches!(
                m.state,
                MemberState::Alive | MemberState::Leaving | MemberState::Suspect
            ) {
                m.state = MemberState::Dead;
                self.events.push(RegistryEvent::Died(node));
            }
        }
    }

    /// Runs the failure detector's three-state sweep over silence
    /// duration (both transitions use a strict `>` so a heartbeat landing
    /// exactly on a boundary survives it):
    ///
    /// - silence > `heartbeat_timeout` ⇒ **Dead**, whatever the prior
    ///   state — a member that was never seen Suspect (e.g. between
    ///   coarse sweeps) still dies on time.
    /// - `suspect_after` < silence ≤ `heartbeat_timeout` ⇒ an Alive
    ///   member becomes **Suspect** ([`RegistryEvent::Suspected`]).
    ///   Leaving members are not suspected — they are already on their
    ///   way out and their silence resolves at the timeout regardless.
    ///
    /// Returns the newly dead nodes.
    pub fn detect_failures(&mut self, now: SimTime) -> Vec<NodeId> {
        let timeout = self.cfg.heartbeat_timeout;
        let suspect_after = self.cfg.suspect_after;
        let mut died = Vec::new();
        let mut suspected = Vec::new();
        for (&id, m) in self.members.iter_mut() {
            if !matches!(
                m.state,
                MemberState::Alive | MemberState::Leaving | MemberState::Suspect
            ) {
                continue;
            }
            let silence = now.saturating_since(m.last_heartbeat);
            if silence > timeout {
                m.state = MemberState::Dead;
                died.push(id);
            } else if silence > suspect_after && m.state == MemberState::Alive {
                m.state = MemberState::Suspect;
                suspected.push(id);
            }
        }
        for &id in &suspected {
            self.events.push(RegistryEvent::Suspected(id));
        }
        for &id in &died {
            self.events.push(RegistryEvent::Died(id));
        }
        died
    }

    /// Queues a leave signal for `node` (coordinator → node). The engine
    /// must drain [`Membership::take_signals`] and deliver them.
    pub fn signal_leave(&mut self, node: NodeId) {
        if let Some(m) = self.members.get_mut(&node) {
            if m.state == MemberState::Alive {
                m.state = MemberState::Leaving;
                self.pending_signals.push(node);
            }
        }
    }

    /// Drains queued leave signals.
    pub fn take_signals(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.pending_signals)
    }

    /// Drains the event log.
    pub fn take_events(&mut self) -> Vec<RegistryEvent> {
        std::mem::take(&mut self.events)
    }

    /// State of a member, if known.
    pub fn state(&self, node: NodeId) -> Option<MemberState> {
        self.members.get(&node).map(|m| m.state)
    }

    /// Cluster of a member, if known.
    pub fn cluster_of(&self, node: NodeId) -> Option<ClusterId> {
        self.members.get(&node).map(|m| m.cluster)
    }

    /// Iterator over alive (incl. leaving and suspect) members, in id
    /// order. Suspect members still hold their resources and count as
    /// members until the detector resolves their silence.
    pub fn alive(&self) -> impl Iterator<Item = (NodeId, ClusterId)> + '_ {
        self.members.iter().filter_map(|(&id, m)| {
            matches!(
                m.state,
                MemberState::Alive | MemberState::Leaving | MemberState::Suspect
            )
            .then_some((id, m.cluster))
        })
    }

    /// Members currently Suspect, in id order.
    pub fn suspects(&self) -> Vec<NodeId> {
        self.members
            .iter()
            .filter_map(|(&id, m)| (m.state == MemberState::Suspect).then_some(id))
            .collect()
    }

    /// Number of alive (incl. leaving) members.
    pub fn alive_count(&self) -> usize {
        self.alive().count()
    }

    /// Alive members of one cluster.
    pub fn alive_in_cluster(&self, cluster: ClusterId) -> Vec<NodeId> {
        self.alive()
            .filter_map(|(id, c)| (c == cluster).then_some(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Membership {
        Membership::new(RegistryConfig::default())
    }

    #[test]
    fn join_heartbeat_survive() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.heartbeat(SimTime::from_secs(20), NodeId(1));
        // 10s after last heartbeat: within the 15s suspicion threshold.
        assert!(r.detect_failures(SimTime::from_secs(30)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Alive));
        // 25s of silence: past suspect_after (15s) but inside the 30s
        // timeout — suspiciously silent, not dead.
        assert!(r.detect_failures(SimTime::from_secs(45)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Suspect));
        assert_eq!(r.alive_count(), 1, "a suspect is still a member");
    }

    #[test]
    fn suspect_resuming_heartbeats_returns_to_alive() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        assert!(r.detect_failures(SimTime::from_secs(20)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Suspect));
        // The next heartbeat is proof of life: back to Alive, and the
        // round trip is visible as Suspected → Resumed in the event log.
        r.heartbeat(SimTime::from_secs(22), NodeId(1));
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Alive));
        assert_eq!(
            r.take_events(),
            vec![
                RegistryEvent::Joined(NodeId(1), ClusterId(0)),
                RegistryEvent::Suspected(NodeId(1)),
                RegistryEvent::Resumed(NodeId(1)),
            ]
        );
        // And it survives the next sweep on the refreshed clock.
        assert!(r.detect_failures(SimTime::from_secs(30)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Alive));
    }

    #[test]
    fn suspect_promotes_to_dead_at_the_timeout() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        assert!(r.detect_failures(SimTime::from_secs(20)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Suspect));
        // Exactly at the timeout: strict `>` keeps it Suspect.
        assert!(r.detect_failures(SimTime::from_secs(30)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Suspect));
        // Past it: promoted to Dead and reported exactly once.
        assert_eq!(
            r.detect_failures(SimTime::from_micros(30_000_001)),
            vec![NodeId(1)]
        );
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Dead));
        assert!(r.detect_failures(SimTime::from_secs(60)).is_empty());
    }

    #[test]
    fn coarse_sweep_skips_suspect_straight_to_dead() {
        // A detector that only wakes after the full timeout has elapsed
        // never observed the Suspect window — the member must still die
        // on time (promotion is by silence duration, not by step count).
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        assert_eq!(r.detect_failures(SimTime::from_secs(50)), vec![NodeId(1)]);
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Dead));
    }

    #[test]
    fn flapping_suspicion_emits_no_death_and_no_duplicate_events() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        let mut t = 0u64;
        for _ in 0..4 {
            // Silent long enough to be suspected...
            t += 20;
            assert!(r.detect_failures(SimTime::from_secs(t)).is_empty());
            assert_eq!(r.state(NodeId(1)), Some(MemberState::Suspect));
            // A second sweep while already Suspect is not re-reported.
            assert!(r.detect_failures(SimTime::from_secs(t + 1)).is_empty());
            // ...then resumes inside the death budget.
            t += 5;
            r.heartbeat(SimTime::from_secs(t), NodeId(1));
            assert_eq!(r.state(NodeId(1)), Some(MemberState::Alive));
        }
        let events = r.take_events();
        let suspected = events
            .iter()
            .filter(|e| matches!(e, RegistryEvent::Suspected(_)))
            .count();
        let resumed = events
            .iter()
            .filter(|e| matches!(e, RegistryEvent::Resumed(_)))
            .count();
        let died = events
            .iter()
            .filter(|e| matches!(e, RegistryEvent::Died(_)))
            .count();
        assert_eq!((suspected, resumed, died), (4, 4, 0));
    }

    #[test]
    fn leaving_members_are_not_suspected() {
        // A Leaving member is already on its way out: it skips the
        // Suspect window and resolves at the death timeout directly.
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.signal_leave(NodeId(1));
        assert!(r.detect_failures(SimTime::from_secs(20)).is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Leaving));
        assert_eq!(r.detect_failures(SimTime::from_secs(31)), vec![NodeId(1)]);
    }

    #[test]
    fn missed_heartbeats_kill() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.join(SimTime::ZERO, NodeId(2), ClusterId(1));
        r.heartbeat(SimTime::from_secs(40), NodeId(2));
        let dead = r.detect_failures(SimTime::from_secs(50));
        assert_eq!(dead, vec![NodeId(1)]);
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Dead));
        assert_eq!(r.state(NodeId(2)), Some(MemberState::Alive));
        assert_eq!(r.alive_count(), 1);
    }

    #[test]
    fn leave_signal_flow() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(7), ClusterId(2));
        r.signal_leave(NodeId(7));
        assert_eq!(r.state(NodeId(7)), Some(MemberState::Leaving));
        assert_eq!(r.take_signals(), vec![NodeId(7)]);
        assert!(r.take_signals().is_empty(), "signals drain once");
        // Node confirms departure.
        r.leave(NodeId(7));
        assert_eq!(r.state(NodeId(7)), Some(MemberState::Left));
        assert_eq!(r.alive_count(), 0);
    }

    #[test]
    fn signalling_a_dead_node_is_a_noop() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.report_crash(NodeId(1));
        r.signal_leave(NodeId(1));
        assert!(r.take_signals().is_empty());
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Dead));
    }

    #[test]
    fn crash_report_is_idempotent_and_logged_once() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.report_crash(NodeId(1));
        r.report_crash(NodeId(1));
        let events = r.take_events();
        let deaths = events
            .iter()
            .filter(|e| matches!(e, RegistryEvent::Died(_)))
            .count();
        assert_eq!(deaths, 1);
    }

    #[test]
    fn alive_in_cluster_filters() {
        let mut r = reg();
        for i in 0..6 {
            r.join(SimTime::ZERO, NodeId(i), ClusterId((i % 2) as u16));
        }
        r.report_crash(NodeId(0));
        let c0 = r.alive_in_cluster(ClusterId(0));
        assert_eq!(c0, vec![NodeId(2), NodeId(4)]);
        assert_eq!(r.alive_in_cluster(ClusterId(1)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_panics() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
    }

    #[test]
    fn rejoin_after_graceful_leave_is_allowed() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.leave(NodeId(1));
        r.join(SimTime::from_secs(10), NodeId(1), ClusterId(0));
        assert_eq!(r.state(NodeId(1)), Some(MemberState::Alive));
        let joins = r
            .take_events()
            .iter()
            .filter(|e| matches!(e, RegistryEvent::Joined(_, _)))
            .count();
        assert_eq!(joins, 2, "both incarnations are logged");
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn rejoin_after_crash_panics() {
        // Crashed nodes are marked lost in the pool and never re-granted;
        // a join for one can only be an engine bookkeeping bug.
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.report_crash(NodeId(1));
        r.join(SimTime::from_secs(10), NodeId(1), ClusterId(0));
    }

    #[test]
    fn heartbeat_from_unknown_node_ignored() {
        let mut r = reg();
        r.heartbeat(SimTime::from_secs(1), NodeId(99));
        assert_eq!(r.alive_count(), 0);
    }

    #[test]
    fn events_record_full_lifecycle() {
        let mut r = reg();
        r.join(SimTime::ZERO, NodeId(1), ClusterId(0));
        r.join(SimTime::ZERO, NodeId(2), ClusterId(0));
        r.leave(NodeId(1));
        r.report_crash(NodeId(2));
        assert_eq!(
            r.take_events(),
            vec![
                RegistryEvent::Joined(NodeId(1), ClusterId(0)),
                RegistryEvent::Joined(NodeId(2), ClusterId(0)),
                RegistryEvent::Left(NodeId(1)),
                RegistryEvent::Died(NodeId(2)),
            ]
        );
    }
}
