//! One run of the real stack through its public API: build → start →
//! one-simulated-second `run_until` slices → stop clients → drain →
//! audit → finish, with host spans around every step and the facts the
//! metrics need collected from the system before `Run::finish`
//! consumes it.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use groupsafe::core::scenario::audit_scenario;
use groupsafe::core::{
    obs_txn, sharded_generator, BuildError, ReplicaServer, Report, SystemBuilder,
};
use groupsafe::db::{ItemId, TxnId, WriteOp};
use groupsafe::sim::{ObsConfig, ObsEvent, SimDuration, SimTime};

use crate::spans::Spans;
use crate::workloads::Workload;

/// Deliberate violations proving the gates are live. Each one must make
/// the benchmark exit non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Poison one replica's delivery-order digest before the audit
    /// (caught where some replica never crashed: the total-order check
    /// compares only replicas that processed every delivery themselves).
    PoisonDigest,
    /// Apply a write to one replica behind the protocol's back, so the
    /// replicas no longer converge.
    RogueWrite,
    /// The generator wrapper draws one extra random number per call, so
    /// the wrapped run no longer matches the unwrapped build.
    WrapperDraw,
    /// The traced run uses another seed than the untraced runs.
    TracedSeed,
    /// The second untraced repeat uses another seed than the first.
    RerunSeed,
}

impl Control {
    pub fn parse(name: &str) -> Option<Control> {
        match name {
            "poison-digest" => Some(Control::PoisonDigest),
            "rogue-write" => Some(Control::RogueWrite),
            "wrapper-draw" => Some(Control::WrapperDraw),
            "traced-seed" => Some(Control::TracedSeed),
            "rerun-seed" => Some(Control::RerunSeed),
            _ => None,
        }
    }
}

/// What the generator wrapper saw: how many transactions it produced,
/// the host time it spent producing them, and which were read-only.
#[derive(Debug, Default)]
pub struct GenStats {
    pub generated: u64,
    pub gen_ns: u64,
    /// `readonly[client][seq - 1]`: the client's `seq`-th transaction
    /// (clients number their transactions from 1 in generation order).
    readonly: Vec<Vec<bool>>,
}

impl GenStats {
    fn record(&mut self, client: u32, readonly: bool, spent: Duration) {
        self.generated += 1;
        self.gen_ns += spent.as_nanos() as u64;
        let c = client as usize;
        if self.readonly.len() <= c {
            self.readonly.resize_with(c + 1, Vec::new);
        }
        self.readonly[c].push(readonly);
    }

    fn is_readonly(&self, txn: TxnId) -> bool {
        self.readonly
            .get(txn.client as usize)
            .and_then(|v| v.get((txn.seq as usize).wrapping_sub(1)))
            .copied()
            .unwrap_or(false)
    }
}

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub traced: bool,
    /// Route the generator `SystemBuilder` would build through the
    /// counting wrapper.
    pub wrapped: bool,
    pub control: Option<Control>,
}

/// Sim-time facts read from the stream of a traced run.
#[derive(Debug, Default, Clone)]
pub struct StreamFacts {
    /// First-submission → ack latency of update transactions, ms.
    pub update_ms: Vec<f64>,
    /// The same for read-only transactions, ms.
    pub read_ms: Vec<f64>,
    /// Delegate broadcast → uniform delivery at the delegate, ms.
    pub order_ms: Vec<f64>,
    /// Certification → the WAL sync covering it, same replica, ms.
    pub wal_sync_ms: Vec<f64>,
    pub certified: u64,
    pub cert_aborts: u64,
    pub exec_ms: f64,
    pub commit_phase_ms: f64,
    /// Peak retained MVCC versions over all replicas, sampled at every
    /// simulated second.
    pub mvcc_peak: u64,
}

/// Counters read from the system once the drain has ended.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub events: u64,
    /// Committed attempts answered to clients (`Oracle::commit_acks`).
    pub commit_acks: u64,
    pub net_sent: u64,
    pub net_transmissions: u64,
    pub net_dropped: u64,
    pub gcs_delivered: u64,
    pub gcs_persists: u64,
    pub gcs_view_changes: u64,
    pub mean_batch: f64,
    pub votes_per_delivery: f64,
    pub db_reads: u64,
    pub db_read_misses: u64,
    pub db_commits: u64,
    pub mvcc_evictions: u64,
}

/// Everything one run yields.
pub struct Outcome {
    pub fingerprint: u64,
    /// `Run::start` returned → audit and finish done, s.
    pub wall_s: f64,
    /// `Run::finish` + `audit_scenario`, s.
    pub audit_s: f64,
    pub sim_s: f64,
    pub report: Report,
    /// Violations the audit found, rendered.
    pub violations: Vec<String>,
    pub counters: Counters,
    pub gen: GenStats,
    /// Acknowledgement instants inside the measurement window.
    pub window_acks: Vec<SimTime>,
    /// Update transactions acknowledged inside the window.
    pub window_commits: u64,
    /// Update transactions acknowledged over the whole run.
    pub acked_updates: u64,
    pub acked_total: u64,
    pub stream: Option<StreamFacts>,
}

impl Outcome {
    /// The correctness gate: nothing acknowledged lost, every replica
    /// converged, and the scenario oracle clean.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut f = Vec::new();
        if self.report.lost != 0 {
            f.push(format!("lost = {}", self.report.lost));
        }
        if self.report.distinct_states != 1 {
            f.push(format!("distinct_states = {}", self.report.distinct_states));
        }
        for v in &self.violations {
            f.push(format!("audit: {v}"));
        }
        f
    }
}

/// The `SystemBuilder` the workload denotes, with the generator it would
/// install itself (`effective_workload` + `sharded_generator`) routed
/// through the counting wrapper.
fn wrapped(
    b: SystemBuilder,
    stats: Rc<RefCell<GenStats>>,
    extra_draw: bool,
) -> Result<SystemBuilder, BuildError> {
    let cfg = b.to_system_config()?;
    let spec = b.effective_workload()?;
    let map = Rc::new(
        cfg.shard
            .resolve(cfg.replica.db.n_items)
            .map_err(BuildError::Shard)?,
    );
    let cross = cfg.shard.cross_fraction;
    Ok(b.generator(move |client| {
        let mut inner = sharded_generator(&spec, map.clone(), cross);
        let stats = stats.clone();
        Box::new(move |rng| {
            let t0 = Instant::now();
            let plan = inner(rng);
            let spent = t0.elapsed();
            if extra_draw {
                let _: u64 = rand::Rng::random(rng);
            }
            let readonly = !plan.ops.is_empty() && plan.ops.iter().all(|o| !o.is_write());
            stats.borrow_mut().record(client, readonly, spent);
            plan
        })
    }))
}

/// Build and start one run (the `setup_s` interval), returning the
/// started run and the generator statistics it feeds.
pub fn setup(
    w: Workload,
    spec: &RunSpec,
    spans: &mut Spans,
) -> Result<(groupsafe::core::Run, Rc<RefCell<GenStats>>, f64), BuildError> {
    let obs = if spec.traced {
        ObsConfig::stream()
    } else {
        ObsConfig::disabled()
    };
    let stats = Rc::new(RefCell::new(GenStats::default()));
    let extra_draw = spec.control == Some(Control::WrapperDraw);
    let b = w.builder(spec.seed, obs);
    let b = if spec.wrapped {
        wrapped(b, stats.clone(), extra_draw)?
    } else {
        b
    };
    let span = spans.open("build", None);
    let t0 = Instant::now();
    let mut run = b.build()?;
    run.start();
    let setup_s = t0.elapsed().as_secs_f64();
    spans.close(span, 0);
    Ok((run, stats, setup_s))
}

/// Execute one full run.
pub fn execute(w: Workload, spec: &RunSpec, spans: &mut Spans) -> Result<Outcome, BuildError> {
    let label = if spec.traced { "run.traced" } else { "run" };
    let root = spans.open(label, None);
    let (mut run, stats, _) = setup(w, spec, spans)?;
    let len = w.lengths();
    let second = SimDuration::from_secs(1);

    let t_run = Instant::now();
    let mut now = SimTime::ZERO;
    // Traced runs also sample the multi-version store at every slice
    // boundary; the sampling time is kept out of the run's wall time.
    let mut mvcc_peak = 0u64;
    let mut sampling = Duration::ZERO;
    let mut slice = |run: &mut groupsafe::core::Run, to: SimTime, spans: &mut Spans| {
        let before = run.system().engine.dispatched();
        let s = spans.open("run_until", Some(root));
        run.run_until(to);
        spans.close(s, run.system().engine.dispatched() - before);
        if spec.traced {
            let t = Instant::now();
            let sys = run.system();
            let retained: u64 = (0..sys.n_servers)
                .map(|i| sys.server(i).db().mvcc_retained() as u64)
                .sum();
            mvcc_peak = mvcc_peak.max(retained);
            sampling += t.elapsed();
        }
    };
    while now < len.measure_end() {
        let to = (now + second).min(len.measure_end());
        slice(&mut run, to, spans);
        now = to;
    }
    run.stop_clients_at(len.measure_end());
    while now < len.end() {
        let to = (now + second).min(len.end());
        slice(&mut run, to, spans);
        now = to;
    }
    match spec.control {
        Some(Control::PoisonDigest) => {
            let id = run.system().servers[1];
            let server: &mut ReplicaServer = run.system_mut().engine.actor_mut(id);
            server.poison_order_digest_for_audit_controls(0xdead_beef_dead_beef);
        }
        Some(Control::RogueWrite) => {
            let at = run.system().engine.now();
            let id = run.system().servers[0];
            let server: &mut ReplicaServer = run.system_mut().engine.actor_mut(id);
            let db = server.db_mut_for_audit_controls();
            let version = db.max_version() + 1;
            let rogue = TxnId {
                client: u32::MAX,
                seq: u64::MAX,
            };
            db.apply_unlogged(
                at,
                rogue,
                &[WriteOp {
                    item: ItemId(0),
                    value: -1,
                    version,
                }],
            );
        }
        Some(Control::WrapperDraw | Control::TracedSeed | Control::RerunSeed) | None => {}
    }

    let audit_span = spans.open("audit", Some(root));
    let t_audit = Instant::now();
    let plan = w.scenario();
    let audit = audit_scenario(&plan, run.system(), w.level());
    let mut audit_s = t_audit.elapsed().as_secs_f64();
    spans.close(audit_span, 0);
    let paused = (t_run.elapsed() - sampling).as_secs_f64();

    // Untimed: read what `finish` would otherwise consume.
    let gen = std::mem::take(&mut *stats.borrow_mut());
    let sys = run.system();
    let counters = counters(sys);
    let (window_acks, window_commits, acked_updates, acked_total) = acks(sys, &gen, w);
    let mut stream = spec.traced.then(|| stream_facts(sys, &gen, w));

    let finish_span = spans.open("finish", Some(root));
    let t_finish = Instant::now();
    let report = run.finish();
    let finish_s = t_finish.elapsed().as_secs_f64();
    spans.close(finish_span, 0);
    audit_s += finish_s;
    spans.close(root, counters.events);

    if let Some(s) = stream.as_mut() {
        s.mvcc_peak = mvcc_peak;
        if let Some(row) = report.obs_phases.first() {
            s.exec_ms = row.exec_ms;
            s.commit_phase_ms = row.commit_ms;
        }
    }
    Ok(Outcome {
        fingerprint: report.fingerprint,
        wall_s: paused + finish_s,
        audit_s,
        sim_s: len.end().as_secs_f64(),
        violations: audit.violations.iter().map(|v| format!("{v:?}")).collect(),
        report,
        counters,
        gen,
        window_acks,
        window_commits,
        acked_updates,
        acked_total,
        stream,
    })
}

fn counters(sys: &groupsafe::core::System) -> Counters {
    let net = sys.net.stats();
    let (gcs, _) = sys.gcs_stats();
    let mut c = Counters {
        events: sys.engine.dispatched(),
        commit_acks: sys.oracle.borrow().commit_acks,
        net_sent: net.sent,
        net_transmissions: net.transmissions,
        net_dropped: net.dropped_partition + net.dropped_loss,
        gcs_delivered: gcs.delivered,
        gcs_persists: gcs.persists,
        gcs_view_changes: gcs.view_changes,
        mean_batch: gcs.mean_batch_size(),
        votes_per_delivery: gcs.votes_per_delivery(),
        ..Counters::default()
    };
    for i in 0..sys.n_servers {
        let db = sys.server(i).db();
        let s = db.stats();
        c.db_reads += s.reads;
        c.db_read_misses += s.read_misses;
        c.db_commits += s.commits;
        c.mvcc_evictions += db.mvcc_evictions();
    }
    c
}

/// Window acknowledgement instants (sorted), window update commits,
/// and whole-run update and total acknowledgements.
fn acks(
    sys: &groupsafe::core::System,
    gen: &GenStats,
    w: Workload,
) -> (Vec<SimTime>, u64, u64, u64) {
    let len = w.lengths();
    let oracle = sys.oracle.borrow();
    let mut window = Vec::new();
    let (mut window_commits, mut updates) = (0u64, 0u64);
    for (&txn, ack) in &oracle.acked {
        let update = !gen.is_readonly(txn);
        updates += u64::from(update);
        if ack.at >= len.measure_start() && ack.at < len.measure_end() {
            window.push(ack.at);
            window_commits += u64::from(update);
        }
    }
    window.sort_unstable();
    (window, window_commits, updates, oracle.acked.len() as u64)
}

fn ms_between(a: SimTime, b: SimTime) -> f64 {
    b.since(a).as_millis_f64()
}

/// Walk the recorded stream once.
fn stream_facts(sys: &groupsafe::core::System, gen: &GenStats, w: Workload) -> StreamFacts {
    let len = w.lengths();
    let events = sys.engine.obs().events();
    let actors = sys.engine.actor_count();
    let mut first_submit = std::collections::BTreeMap::new();
    let mut broadcast = std::collections::BTreeMap::new();
    let mut last_deliver = vec![None; actors];
    let mut pending_sync: Vec<Vec<SimTime>> = vec![Vec::new(); actors];
    let mut f = StreamFacts::default();
    for r in events {
        let a = r.actor.index();
        match r.event {
            ObsEvent::ClientSubmit { txn, .. } | ObsEvent::ReadSubmit { read: txn } => {
                first_submit.entry(txn).or_insert(r.time);
            }
            ObsEvent::BroadcastTxn { txn } => {
                broadcast.insert(txn, (a, r.time));
            }
            ObsEvent::UniformDeliver { .. } => last_deliver[a] = Some(r.time),
            ObsEvent::Certify { txn, committed } => {
                f.certified += 1;
                f.cert_aborts += u64::from(!committed);
                if let (Some(&(origin, t0)), Some(t1)) = (broadcast.get(&txn), last_deliver[a]) {
                    if origin == a && t1 >= t0 {
                        f.order_ms.push(ms_between(t0, t1));
                        broadcast.remove(&txn);
                    }
                }
                if committed {
                    pending_sync[a].push(r.time);
                }
            }
            ObsEvent::WalSync { .. } => {
                for t in pending_sync[a].drain(..) {
                    f.wal_sync_ms.push(ms_between(t, r.time));
                }
            }
            _ => {}
        }
    }
    let oracle = sys.oracle.borrow();
    for (&txn, ack) in &oracle.acked {
        if ack.at < len.measure_start() {
            continue;
        }
        let Some(&t0) = first_submit.get(&obs_txn(txn)) else {
            continue;
        };
        let ms = ms_between(t0, ack.at);
        if gen.is_readonly(txn) {
            f.read_ms.push(ms);
        } else {
            f.update_ms.push(ms);
        }
    }
    f
}
