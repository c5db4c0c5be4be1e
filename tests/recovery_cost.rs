//! Crash recovery in the crash-recovery model (2-safe, end-to-end atomic
//! broadcast) costs the unstable suffix, not the whole history. Under a
//! steady rhythm of follower crashes and sequencer kills, a recovering
//! replica must not re-vote every entry it ever logged (stability votes
//! stay at about one per delivery on every replica), and the simulated
//! work per second must not grow with the length of the run. Every
//! figure is a deterministic counter, so the bounds are exact gates.

use groupsafe::core::scenario::{audit_scenario, ScenarioPlan};
use groupsafe::core::{Load, SafetyLevel, System};
use groupsafe::sim::{SimDuration, SimTime};

const SECONDS: u64 = 300;

/// Every 20 s a follower crashes for 800 ms; 10 s later the sequencer is
/// killed and recovers 2 s after.
fn fault_rhythm() -> ScenarioPlan {
    let mut plan = ScenarioPlan::new();
    let mut k = 1u64;
    while 20 * k + 10 < SECONDS {
        plan = plan
            .crash_for(
                SimTime::from_secs(20 * k),
                (k % 2 + 1) as u32,
                SimDuration::from_millis(800),
            )
            .kill_sequencer(
                SimTime::from_secs(20 * k + 10),
                Some(SimDuration::from_secs(2)),
            );
        k += 1;
    }
    plan
}

#[test]
fn recovery_cost_does_not_grow_with_history() {
    let plan = fault_rhythm();
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(4)
        .safety(SafetyLevel::TwoSafe)
        .load(Load::open_tps(6.0))
        .client_timeout(SimDuration::from_secs(2))
        .warmup(SimDuration::ZERO)
        .measure(SimDuration::from_secs(SECONDS))
        .drain(SimDuration::from_secs(5))
        .scenario(plan.clone())
        .seed(7)
        .build()
        .expect("valid configuration");

    // Engine events dispatched in each third of the run.
    let third = SECONDS / 3;
    let mut thirds = Vec::new();
    let mut before = 0;
    for i in 1..=3 {
        run.run_until(SimTime::from_secs(third * i));
        let now = run.system().engine.dispatched();
        thirds.push(now - before);
        before = now;
    }
    let end = SimTime::from_secs(SECONDS);
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(5));
    let system = run.into_system();

    for i in 0..system.n_servers {
        let stats = system.server(i).gcs().expect("2-safe runs a gcs").stats();
        assert!(stats.delivered > 500, "server {i}: {stats:?}");
        assert!(
            stats.acks_sent * 10 <= stats.delivered * 11,
            "server {i} sent {} votes for {} deliveries",
            stats.acks_sent,
            stats.delivered
        );
    }
    assert!(
        thirds[2] * 4 <= thirds[0] * 5,
        "events per third grew with history: {thirds:?}"
    );
    assert!(system.lost_transactions().is_empty());
    let audit = audit_scenario(&plan, &system, SafetyLevel::TwoSafe);
    assert!(audit.clean(), "{:?}", audit.violations);
}
