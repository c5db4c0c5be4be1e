//! The crash-recovery model's recovery vote rule: a recovering endpoint
//! re-multicasts stability votes only for stable-log entries it has not
//! delivered yet. A delivered entry was stable (uniform delivery waits
//! for a majority of persisted votes, and persistence survives crashes),
//! so voting for it again tells nobody anything new. These tests pin the
//! vote count and the liveness argument that makes the rule safe: a peer
//! stuck on an entry the recovering node had already delivered is
//! unstuck by gap repair, whose `CatchUp` reply carries the recovering
//! node's delivered prefix as its stable point.

use groupsafe_gcs::harness::Cluster;
use groupsafe_gcs::GcsConfig;
use groupsafe_net::NodeId;
use groupsafe_sim::SimTime;

fn ms(v: u64) -> SimTime {
    SimTime::from_millis(v)
}

fn acks_sent(cluster: &Cluster, node: NodeId) -> u64 {
    cluster.endpoint(node).stats().acks_sent
}

#[test]
fn recovery_votes_only_for_undelivered_entries() {
    const K: u64 = 5; // delivered before the crash
    const J: u64 = 3; // persisted, never stable, never delivered
    let n = 3;
    let seq_node = NodeId(0); // the static sequencer: lowest id
    let mut cluster = Cluster::new(n, GcsConfig::end_to_end(), 41);
    for i in 0..K {
        cluster.broadcast_at(ms(10 + i * 5), seq_node, 100 + i);
    }
    cluster.engine.run_until(ms(500));
    assert_eq!(cluster.endpoint(seq_node).next_deliver(), K + 1);

    // With both peers down the sequencer still orders and persists new
    // entries, but no majority can vote for them.
    cluster.engine.schedule_crash(ms(500), cluster.hosts[1]);
    cluster.engine.schedule_crash(ms(500), cluster.hosts[2]);
    for i in 0..J {
        cluster.broadcast_at(ms(600 + i * 5), seq_node, 200 + i);
    }
    cluster.engine.run_until(ms(900));
    let ep = cluster.endpoint(seq_node);
    assert_eq!(ep.stable_log_seqs().len() as u64, K + J);
    assert_eq!(
        ep.next_deliver(),
        K + 1,
        "the J entries must stay undelivered"
    );

    cluster.engine.schedule_crash(ms(1_000), cluster.hosts[0]);
    cluster.engine.schedule_recover(ms(1_100), cluster.hosts[0]);
    cluster.engine.run_until(ms(1_099));
    let before = acks_sent(&cluster, seq_node);
    // Nothing new is persisted while the peers stay down, so every vote
    // sent in this window is a recovery vote.
    cluster.engine.run_until(ms(1_200));
    let ep = cluster.endpoint(seq_node);
    assert_eq!(acks_sent(&cluster, seq_node) - before, J);
    assert_eq!(ep.next_deliver(), K + 1);
    // Delivered implies stable: the recovered node knows its delivered
    // prefix is stable without hearing from anyone.
    assert_eq!(ep.stable_watermark(), K);

    // The undelivered entries still reach everyone once the peers are
    // back: the votes that matter are the ones still owed.
    cluster.engine.schedule_recover(ms(1_300), cluster.hosts[1]);
    cluster.engine.schedule_recover(ms(1_300), cluster.hosts[2]);
    cluster.engine.run_until(ms(3_000));
    let mut expected: Vec<u64> = (100..100 + K).chain(200..200 + J).collect();
    expected.sort_unstable();
    let reference = cluster.stable_values(NodeId(0));
    let mut sorted = reference.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, expected);
    for i in 1..n {
        assert_eq!(cluster.stable_values(NodeId(i)), reference, "node {i}");
    }
}

#[test]
fn peer_stuck_on_an_entry_the_recovering_node_delivered_gets_it_by_gap_repair() {
    let n = 3;
    let (r, q, p) = (NodeId(0), NodeId(1), NodeId(2));
    let mut cluster = Cluster::new(n, GcsConfig::end_to_end(), 43);
    cluster.broadcast_at(ms(10), r, 7);
    // The ordered entry reaches every node at ~10.14 ms; every stability
    // vote leaves only after a stable-log write, milliseconds later. Cut
    // `q` off in between: it persists the entry, but its vote and the
    // others' never cross the partition.
    cluster.engine.run_until(SimTime::from_micros(10_500));
    cluster.net.partition(&[&[r, p], &[q]]);
    cluster.engine.run_until(ms(150));
    assert_eq!(cluster.stable_values(r), vec![7]);
    assert_eq!(cluster.stable_values(p), vec![7]);
    assert_eq!(cluster.endpoint(q).next_deliver(), 1);
    assert_eq!(cluster.endpoint(q).stable_log_seqs(), vec![1]);

    // `p` leaves for good and `r` crashes; after the heal `q` is stuck on
    // a persisted entry with one vote, its own, and nobody to ask.
    cluster
        .engine
        .schedule_crash(ms(200), cluster.hosts[p.index()]);
    cluster
        .engine
        .schedule_crash(ms(200), cluster.hosts[r.index()]);
    cluster.engine.run_until(ms(300));
    cluster.net.heal();
    cluster.engine.run_until(ms(399));
    assert!(cluster.stable_values(q).is_empty());
    assert_eq!(cluster.endpoint(q).next_deliver(), 1);

    // `r` recovers: it delivered the entry, so it sends no vote for it.
    let before = acks_sent(&cluster, r);
    cluster
        .engine
        .schedule_recover(ms(400), cluster.hosts[r.index()]);
    cluster.engine.run_until(ms(1_000));
    assert_eq!(acks_sent(&cluster, r), before, "no recovery vote expected");
    // `q`'s gap repair reaches `r`, whose reply carries stable_up_to = 1.
    assert_eq!(cluster.stable_values(q), vec![7]);
    assert_eq!(cluster.endpoint(q).next_deliver(), 2);
}
