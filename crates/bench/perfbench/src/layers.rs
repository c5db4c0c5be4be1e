//! Isolated layer probes: each times the benchmark's own calls into one
//! crate's public functions, at the workload's shape, to give a host
//! cost per unit of work. Paired with the unit count from the system
//! run, a unit cost estimates that layer's host time in the run.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use groupsafe::core::{certify, certify_snapshot, Technique};
use groupsafe::db::{DbEngine, ItemId, TxnId, Value, Version, WriteOp};
use groupsafe::gcs::harness::Cluster;
use groupsafe::net::NodeId;
use groupsafe::sim::{Actor, ActorId, Ctx, Disk, Engine, Fcfs, Payload, SimDuration, SimTime};

use crate::spans::Spans;
use crate::workloads::Workload;

/// Host cost of one unit of work in each layer.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    pub kernel_ns_per_event: f64,
    pub abcast_us_per_delivery: f64,
    pub db_ns_per_op: f64,
    pub certify_ns: f64,
}

/// A token-passing actor: every event it receives, it forwards to a
/// random actor after a random sub-millisecond delay — the kernel's
/// schedule/dispatch path with no protocol work attached.
struct Relay {
    n: u32,
}

impl Actor for Relay {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _token: Payload) {
        let to = ActorId(ctx.rng().random_range(0..self.n));
        let delay = SimDuration::from_micros(ctx.rng().random_range(1..1_000));
        ctx.send(to, delay, 0u64);
    }
}

/// Bare `Engine` with the workload's actor count and as many tokens in
/// flight as actors.
fn kernel_ns_per_event(w: Workload, seed: u64) -> f64 {
    const EVENTS: u64 = 2_000_000;
    let n = w.actors();
    let mut engine = Engine::new(seed);
    for _ in 0..n {
        engine.add_actor(Box::new(Relay { n }));
    }
    for i in 0..n {
        engine.schedule(SimTime::from_micros(u64::from(i)), ActorId(i), 0u64);
    }
    let t0 = Instant::now();
    let mut horizon = SimTime::ZERO;
    while engine.dispatched() < EVENTS {
        horizon += SimDuration::from_millis(100);
        engine.run_until(horizon);
    }
    t0.elapsed().as_nanos() as f64 / engine.dispatched() as f64
}

/// `gcs::harness::Cluster` at the workload's group size, safety level
/// and batching, fed broadcasts round-robin from every member at the
/// workload's offered update rate per group.
fn abcast_us_per_delivery(w: Workload, seed: u64) -> f64 {
    let cfg = Technique::Dsm(w.level())
        .gcs_config()
        .expect("every workload runs a DSM technique")
        .with_batching(w.batch());
    let n = w.group_size();
    let rate = w.update_tps_per_group();
    let broadcasts = (rate * 300.0).min(20_000.0) as u64;
    let gap = SimDuration::from_secs_f64(1.0 / rate);
    let mut cluster = Cluster::new(n, cfg, seed);
    let mut at = SimTime::from_millis(10);
    for i in 0..broadcasts {
        cluster.broadcast_at(at, NodeId((i % u64::from(n)) as u32), i);
        at += gap;
    }
    let t0 = Instant::now();
    cluster.engine.run_until(at + SimDuration::from_secs(2));
    let spent = t0.elapsed().as_nanos() as f64;
    let delivered: u64 = (0..n)
        .map(|i| cluster.endpoint(NodeId(i)).stats().delivered)
        .sum();
    assert!(
        delivered >= broadcasts * u64::from(n),
        "the isolated abcast probe delivered {delivered} of {} entries",
        broadcasts * u64::from(n)
    );
    spent / 1e3 / delivered as f64
}

fn engine(w: Workload, seed: u64) -> DbEngine {
    DbEngine::new(
        w.db(),
        Rc::new(RefCell::new(Fcfs::new(2))),
        Rc::new(RefCell::new(Disk::paper_default())),
        Rc::new(RefCell::new(Disk::paper_pool())),
        StdRng::seed_from_u64(seed),
    )
}

/// `DbEngine::read`/`read_versioned`/`commit`/`flush_wal` in the mix a
/// Table 4 transaction makes: 15 reads, a commit of 7 writes, and a
/// WAL flush every 8 commits.
fn db_ns_per_op(w: Workload, seed: u64) -> (f64, DbEngine) {
    const TXNS: u64 = 40_000;
    let mut db = engine(w, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0db);
    let n_items = w.db().n_items;
    let mvcc = w.db().mvcc_depth > 0;
    let mut now = SimTime::ZERO;
    let mut ops = 0u64;
    let t0 = Instant::now();
    for seq in 1..=TXNS {
        for _ in 0..15 {
            let item = ItemId(rng.random_range(0..n_items));
            let r = if mvcc {
                db.read_versioned(now, item, seq.saturating_sub(8))
            } else {
                db.read(now, item)
            };
            black_box(r);
        }
        let writes: Vec<WriteOp> = (0..7)
            .map(|_| WriteOp {
                item: ItemId(rng.random_range(0..n_items)),
                value: seq as i64,
                version: seq,
            })
            .collect();
        black_box(db.commit(now, TxnId { client: 0, seq }, &writes));
        ops += 16;
        if seq % 8 == 0 {
            if let Some((_, lsn)) = db.flush_wal(now) {
                db.wal_mark_durable(lsn);
            }
            if mvcc {
                db.prune_versions(seq.saturating_sub(64));
            }
            ops += 1;
        }
        now += SimDuration::from_millis(1);
    }
    (t0.elapsed().as_nanos() as f64 / ops as f64, db)
}

/// `certify` over a 15-item read set and `certify_snapshot` over a
/// 7-item write set, alternating, against a populated engine.
fn certify_ns(w: Workload, db: &DbEngine, seed: u64) -> f64 {
    const CALLS: u64 = 400_000;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xce7);
    let n_items = w.db().n_items;
    let top = db.max_version();
    type Input = (Vec<(ItemId, Version)>, Vec<(ItemId, Value)>);
    let inputs: Vec<Input> = (0..256)
        .map(|_| {
            let reads = (0..15)
                .map(|_| (ItemId(rng.random_range(0..n_items)), top))
                .collect();
            let writes = (0..7)
                .map(|_| (ItemId(rng.random_range(0..n_items)), 0))
                .collect();
            (reads, writes)
        })
        .collect();
    let t0 = Instant::now();
    for i in 0..CALLS {
        let (reads, writes) = &inputs[(i % 256) as usize];
        if i % 2 == 0 {
            black_box(certify(db, reads));
        } else {
            black_box(certify_snapshot(db, top, writes));
        }
    }
    t0.elapsed().as_nanos() as f64 / CALLS as f64
}

/// Run every isolated probe once, each inside its own host span.
pub fn measure(w: Workload, seed: u64, spans: &mut Spans) -> UnitCosts {
    let s = spans.open("layer.sim.kernel", None);
    let kernel_ns_per_event = kernel_ns_per_event(w, seed);
    spans.close(s, 0);
    let s = spans.open("layer.gcs.abcast", None);
    let abcast_us_per_delivery = abcast_us_per_delivery(w, seed);
    spans.close(s, 0);
    let s = spans.open("layer.db.ops", None);
    let (db_ns_per_op, db) = db_ns_per_op(w, seed);
    spans.close(s, 0);
    let s = spans.open("layer.core.certify", None);
    let certify_ns = certify_ns(w, &db, seed);
    spans.close(s, 0);
    UnitCosts {
        kernel_ns_per_event,
        abcast_us_per_delivery,
        db_ns_per_op,
        certify_ns,
    }
}
