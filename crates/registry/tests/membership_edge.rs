//! Edge cases of the membership failure detector that the process-mode
//! hub depends on: the timeout boundary is strict, a detection sweep is
//! idempotent, and members die of heartbeat silence one after another
//! without a late heartbeat bringing the dead back.

use sagrid_core::ids::{ClusterId, NodeId};
use sagrid_core::time::{SimDuration, SimTime};
use sagrid_registry::{MemberState, Membership, RegistryConfig, RegistryEvent};

fn registry(timeout: SimDuration) -> Membership {
    Membership::new(RegistryConfig::with_timeout(timeout))
}

#[test]
fn boundaries_are_strict_for_both_suspicion_and_death() {
    // Both detector transitions use a strict `>` comparison: a member
    // whose silence equals the suspicion threshold exactly is still
    // Alive, one whose silence equals the timeout exactly is still (only)
    // Suspect, and one microsecond more kills it. The hub's wall-clock
    // mapping relies on this, otherwise a heartbeat arriving in the same
    // detector tick would be a coin flip.
    let timeout = SimDuration::from_micros(1_000); // suspect_after = 500
    let mut r = registry(timeout);
    r.join(SimTime::ZERO, NodeId(0), ClusterId(0));

    assert!(r.detect_failures(SimTime::from_micros(500)).is_empty());
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Alive));

    assert!(r.detect_failures(SimTime::from_micros(501)).is_empty());
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Suspect));

    assert!(r.detect_failures(SimTime::from_micros(1_000)).is_empty());
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Suspect));

    let dead = r.detect_failures(SimTime::from_micros(1_001));
    assert_eq!(dead, vec![NodeId(0)]);
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Dead));
}

#[test]
fn suspect_resume_leaves_no_trace_and_full_death_budget() {
    // A suspect that resumes gets its full death budget back from the
    // resume heartbeat — suspicion is not a strike against it.
    let timeout = SimDuration::from_micros(1_000);
    let mut r = registry(timeout);
    r.join(SimTime::ZERO, NodeId(0), ClusterId(0));
    assert!(r.detect_failures(SimTime::from_micros(600)).is_empty());
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Suspect));
    r.heartbeat(SimTime::from_micros(700), NodeId(0));
    assert_eq!(r.state(NodeId(0)), Some(MemberState::Alive));
    // 1_000 µs after the resume: exactly the full budget, still in.
    assert!(r.detect_failures(SimTime::from_micros(1_700)).is_empty());
    assert_ne!(r.state(NodeId(0)), Some(MemberState::Dead));
    // Die only at resume + timeout + 1.
    assert_eq!(
        r.detect_failures(SimTime::from_micros(1_701)),
        vec![NodeId(0)]
    );
}

#[test]
fn detect_failures_is_idempotent() {
    // Repeated sweeps past the same death must not re-report it: the hub
    // runs the detector every tick and forwards each death to the
    // coordinator exactly once (record_crashed is also idempotent, but the
    // wire traffic should not repeat either).
    let mut r = registry(SimDuration::from_secs(1));
    r.join(SimTime::ZERO, NodeId(4), ClusterId(1));

    let first = r.detect_failures(SimTime::from_secs(5));
    assert_eq!(first, vec![NodeId(4)]);
    let second = r.detect_failures(SimTime::from_secs(6));
    assert!(second.is_empty(), "death re-reported: {second:?}");
    let third = r.detect_failures(SimTime::from_secs(60));
    assert!(third.is_empty());

    let died: Vec<_> = r
        .take_events()
        .into_iter()
        .filter(|e| matches!(e, RegistryEvent::Died(_)))
        .collect();
    assert_eq!(died, vec![RegistryEvent::Died(NodeId(4))]);
}

#[test]
fn silent_members_die_in_turn_and_stay_dead() {
    // When the lowest-id member dies of heartbeat silence, heartbeats it
    // sends later are ignored — it cannot resurrect itself.
    let mut r = registry(SimDuration::from_secs(1));
    r.join(SimTime::ZERO, NodeId(2), ClusterId(0));
    r.join(SimTime::ZERO, NodeId(5), ClusterId(0));
    r.join(SimTime::ZERO, NodeId(8), ClusterId(1));

    // Only the two higher-id members keep heartbeating.
    r.heartbeat(SimTime::from_secs(2), NodeId(5));
    r.heartbeat(SimTime::from_secs(2), NodeId(8));
    let dead = r.detect_failures(SimTime::from_secs(2));
    assert_eq!(dead, vec![NodeId(2)]);

    // A late heartbeat from the dead node must not bring it back.
    r.heartbeat(SimTime::from_secs(3), NodeId(2));
    assert_eq!(r.state(NodeId(2)), Some(MemberState::Dead));

    // The next silent member dies too.
    r.heartbeat(SimTime::from_secs(4), NodeId(8));
    let dead = r.detect_failures(SimTime::from_secs(4));
    assert_eq!(dead, vec![NodeId(5)]);
}
