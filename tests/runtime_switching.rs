//! §5.2: "switching between group-1-safe and group-safe can be done
//! easily at runtime". Run one system, flip every server's safety level
//! mid-run through the `Run` handle's phase hooks, and verify (a) the
//! response-time regime changes accordingly, (b) nothing is lost and the
//! replicas stay convergent throughout.

use groupsafe::core::{Load, SafetyLevel, SwitchSafetyCmd, System};
use groupsafe::sim::{SimDuration, SimTime};

#[test]
fn switching_changes_the_reply_point_live() {
    let mut run = System::builder()
        .servers(5)
        .clients_per_server(3)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(20.0))
        .measure(SimDuration::from_secs(40))
        .drain(SimDuration::from_secs(2))
        .seed(55)
        .build()
        .expect("a valid configuration")
        // Phase 1: group-safe for 12 s. Then switch every server to
        // group-1-safe for 12 s, then back for the rest.
        .switch_safety_at(SimTime::from_secs(12), SafetyLevel::GroupOneSafe)
        .switch_safety_at(SimTime::from_secs(24), SafetyLevel::GroupSafe);
    // `Run::execute` step by step (no warm-up), so the oracle can be read
    // before `finish` consumes the run.
    let end = run.measure_end();
    run.run_until(SimTime::ZERO);
    run.mark_phase("measure");
    run.run_until(end);
    run.mark_phase("drain");
    run.stop_clients_at(end);
    run.run_until(end + SimDuration::from_secs(2));

    // The switch moves the reply point of update transactions only:
    // read-only ones never broadcast, so a read mix (e.g. the session-read
    // env profile) must not dilute the comparison.
    let update_mean_ms = |from: u64, to: SimTime| {
        let oracle = run.system().oracle.borrow();
        let samples: Vec<f64> = oracle
            .acked
            .iter()
            .filter(|(txn, a)| {
                oracle.commits.contains_key(txn) && a.at >= SimTime::from_secs(from) && a.at < to
            })
            .map(|(_, a)| a.response_ms)
            .collect();
        assert!(samples.len() > 50, "{} update commits", samples.len());
        samples.iter().sum::<f64>() / samples.len() as f64
    };
    let gs1 = update_mean_ms(0, SimTime::from_secs(12));
    let g1s = update_mean_ms(12, SimTime::from_secs(24));
    let gs2 = update_mean_ms(24, end);
    // The group-1-safe phase must be noticeably slower (its reply point
    // includes a synchronous log force and page install).
    assert!(
        g1s > gs1 * 1.3,
        "group-1-safe phase must slow responses: {gs1:.1} -> {g1s:.1} ms"
    );
    assert!(
        gs2 < g1s,
        "switching back must speed responses up again: {g1s:.1} -> {gs2:.1} ms"
    );

    let report = run.finish();
    // The per-phase breakdown names each hook's phase after its label.
    assert_eq!(report.phases.len(), 4, "measure + 2 switches + drain");
    assert!(report.phases[..3].iter().all(|p| p.commits > 50));

    // Safety held throughout: nothing lost, replicas agree.
    assert_eq!(report.lost, 0);
    assert_eq!(report.distinct_states, 1);
    assert!(
        report.acked > 300,
        "the system must have processed plenty across all three phases"
    );
}

#[test]
#[should_panic(expected = "runtime switching is defined between")]
fn switching_to_two_safe_is_rejected() {
    let mut run = System::builder()
        .servers(3)
        .clients_per_server(1)
        .safety(SafetyLevel::GroupSafe)
        .load(Load::open_tps(5.0))
        .measure(SimDuration::from_secs(2))
        .drain(SimDuration::ZERO)
        .seed(1)
        .build()
        .expect("a valid configuration");
    run.run_until(SimTime::from_secs(1));
    let system = run.system_mut();
    let now = system.engine.now();
    let s0 = system.servers[0];
    system
        .engine
        .schedule_resilient(now, s0, SwitchSafetyCmd(SafetyLevel::TwoSafe));
    // 2-safe needs a different broadcast primitive (end-to-end): the
    // switch must be refused loudly, not silently mis-configured.
    run.run_until(SimTime::from_secs(2));
}
