//! The three benchmark workloads, each a fully pinned `SystemBuilder`.
//!
//! Every knob `SystemBuilder` exposes is set explicitly — including the
//! observability mode and the scheduler — so no `GROUPSAFE_*` env
//! profile and no future change of a `SystemBuilder` default can move what a
//! workload measures. All three are open-loop Poisson: arrivals fire
//! exactly when due on the simulated clock, so the generator is never
//! late.

use groupsafe::core::{
    BatchConfig, Load, ReadConfig, ReadLevel, ReplicaConfig, SafetyLevel, ScenarioPlan, ShardSpec,
    ShardStrategy, System, SystemBuilder, Technique, WorkloadSpec,
};
use groupsafe::db::{BufferModel, DbConfig, FlushPolicy};
use groupsafe::net::NetConfig;
use groupsafe::sim::{ObsConfig, Scheduler, SimDuration, SimTime};

/// One workload: its name, why it is in the benchmark, and its shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline point: Table 4 system, group-safe, 30 tps.
    PaperGroupSafe,
    /// Four batched group-safe groups past their knee, 5 % cross-group.
    ShardedOverload,
    /// 2-safe with session reads, SI transactions and scripted faults.
    Mixed2SafeFaults,
}

/// Every workload, in the order the docs list them.
pub const ALL: [Workload; 3] = [
    Workload::PaperGroupSafe,
    Workload::ShardedOverload,
    Workload::Mixed2SafeFaults,
];

/// Simulated-time lengths of one run.
#[derive(Debug, Clone, Copy)]
pub struct Lengths {
    pub warmup: SimDuration,
    pub measure: SimDuration,
    pub drain: SimDuration,
}

impl Lengths {
    pub fn measure_start(&self) -> SimTime {
        SimTime::ZERO + self.warmup
    }

    pub fn measure_end(&self) -> SimTime {
        self.measure_start() + self.measure
    }

    pub fn end(&self) -> SimTime {
        self.measure_end() + self.drain
    }
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGroupSafe => "paper_group_safe",
            Workload::ShardedOverload => "sharded_overload",
            Workload::Mixed2SafeFaults => "mixed_2safe_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The safety level the run claims (what the audit checks against).
    pub fn level(self) -> SafetyLevel {
        match self {
            Workload::PaperGroupSafe | Workload::ShardedOverload => SafetyLevel::GroupSafe,
            Workload::Mixed2SafeFaults => SafetyLevel::TwoSafe,
        }
    }

    pub fn lengths(self) -> Lengths {
        let s = SimDuration::from_secs;
        match self {
            Workload::PaperGroupSafe => Lengths {
                warmup: s(5),
                measure: s(1200),
                drain: s(5),
            },
            Workload::ShardedOverload => Lengths {
                warmup: s(1),
                measure: s(4),
                drain: s(2),
            },
            Workload::Mixed2SafeFaults => Lengths {
                warmup: s(5),
                measure: s(1200),
                drain: s(5),
            },
        }
    }

    /// Servers per replica group × groups, clients per server.
    fn shape(self) -> (u32, u32, u32) {
        match self {
            Workload::PaperGroupSafe => (9, 1, 4),
            Workload::ShardedOverload => (3, 4, 4),
            Workload::Mixed2SafeFaults => (3, 1, 4),
        }
    }

    /// Engine actors: every server plus every client.
    pub fn actors(self) -> u32 {
        let (spg, groups, cps) = self.shape();
        spg * groups * (1 + cps)
    }

    /// Servers in one replica group.
    pub fn group_size(self) -> u32 {
        self.shape().0
    }

    pub fn batch(self) -> BatchConfig {
        match self {
            Workload::ShardedOverload => BatchConfig::of(32, SimDuration::from_millis(1)),
            Workload::PaperGroupSafe | Workload::Mixed2SafeFaults => BatchConfig::unbatched(),
        }
    }

    /// The engine configuration every replica runs (Table 4 costs; the
    /// multi-version store on where snapshots are served).
    pub fn db(self) -> DbConfig {
        DbConfig {
            n_items: 10_000,
            cpu_per_io: SimDuration::from_micros(400),
            cpu_per_op: SimDuration::from_micros(50),
            buffer: BufferModel::Probabilistic { hit_ratio: 0.2 },
            flush_policy: FlushPolicy::Async,
            mvcc_depth: match self {
                Workload::Mixed2SafeFaults => 64,
                Workload::PaperGroupSafe | Workload::ShardedOverload => 0,
            },
        }
    }

    fn spec(self) -> WorkloadSpec {
        match self {
            Workload::PaperGroupSafe | Workload::Mixed2SafeFaults => WorkloadSpec::table4(),
            Workload::ShardedOverload => groupsafe_bench::ordering_bound_workload(),
        }
    }

    fn reads(self) -> (ReadConfig, f64) {
        match self {
            Workload::Mixed2SafeFaults => (ReadConfig::local(ReadLevel::Session), 0.5),
            Workload::PaperGroupSafe | Workload::ShardedOverload => (ReadConfig::classic(), 0.0),
        }
    }

    fn txns(self) -> (f64, usize, usize) {
        match self {
            Workload::Mixed2SafeFaults => (0.5, 10, 20),
            Workload::PaperGroupSafe | Workload::ShardedOverload => (0.0, 10, 20),
        }
    }

    /// Offered update transactions per second reaching one group.
    pub fn update_tps_per_group(self) -> f64 {
        let (_, groups, _) = self.shape();
        self.offered_tps() * (1.0 - self.reads().1) / f64::from(groups)
    }

    fn offered_tps(self) -> f64 {
        match self {
            Workload::PaperGroupSafe => 30.0,
            Workload::ShardedOverload => 12_000.0,
            Workload::Mixed2SafeFaults => 12.0,
        }
    }

    fn shard(self) -> ShardSpec {
        let (_, groups, _) = self.shape();
        ShardSpec {
            groups,
            strategy: ShardStrategy::Hash,
            cross_fraction: match self {
                Workload::ShardedOverload => 0.05,
                Workload::PaperGroupSafe | Workload::Mixed2SafeFaults => 0.0,
            },
        }
    }

    /// The scripted fault timeline. On `mixed_2safe_faults`, every 20 s
    /// a follower crashes for 800 ms, and 10 s later the sequencer is
    /// killed and recovers 2 s after.
    pub fn scenario(self) -> ScenarioPlan {
        let mut plan = ScenarioPlan::new();
        if self == Workload::Mixed2SafeFaults {
            let len = self.lengths();
            let period = 20u64;
            let mut k = 1u64;
            while SimTime::from_secs(period * k + 10) < len.measure_end() {
                plan = plan
                    .crash_for(
                        SimTime::from_secs(period * k),
                        follower(k),
                        SimDuration::from_millis(800),
                    )
                    .kill_sequencer(
                        SimTime::from_secs(period * k + 10),
                        Some(SimDuration::from_secs(2)),
                    );
                k += 1;
            }
        }
        plan
    }

    /// The pinned `SystemBuilder` for one run at `seed` with the given
    /// observability mode. The caller may still install a generator.
    pub fn builder(self, seed: u64, obs: ObsConfig) -> SystemBuilder {
        let (spg, _, cps) = self.shape();
        let len = self.lengths();
        let (reads, read_fraction) = self.reads();
        let (txn_fraction, ops_min, ops_max) = self.txns();
        let technique = Technique::Dsm(self.level());
        System::builder()
            .servers(spg)
            .clients_per_server(cps)
            .replica(ReplicaConfig {
                technique,
                db: self.db(),
                cpus: 2,
                wal_flush_interval: SimDuration::from_millis(20),
                page_flush_interval: SimDuration::from_millis(100),
                lazy_prop_interval: SimDuration::from_millis(20),
                disk_sequential_factor: 0.3,
                batch: self.batch(),
                reads,
            })
            .batching(self.batch())
            .shard(self.shard())
            .reads(reads)
            .workload(self.spec())
            .read_fraction(read_fraction)
            .txn_fraction(txn_fraction)
            .txn_ops(ops_min, ops_max)
            .load(Load::open_tps(self.offered_tps()))
            .net(NetConfig::default())
            .client_timeout(SimDuration::from_secs(2))
            .warmup(len.warmup)
            .measure(len.measure)
            .drain(len.drain)
            .observe(obs)
            .scheduler(Scheduler::TimingWheel)
            .scenario(self.scenario())
            .seed(seed)
    }
}

/// The server the `k`-th follower crash takes down.
fn follower(k: u64) -> u32 {
    (k % 2 + 1) as u32
}
