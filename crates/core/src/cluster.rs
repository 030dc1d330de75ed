//! The Motor cluster harness: one VM instance per MPI rank.
//!
//! The paper's deployment model is N operating-system processes, each
//! hosting a Motor virtual machine whose runtime embeds the Message
//! Passing Core. Here each rank is an OS *thread* owning a private
//! [`Vm`] (its own heap, collector, safepoints, type registry) wired to
//! its peers through the universe's links — the same isolation the paper
//! gets from process boundaries, minus the address-space separation.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use motor_mpc::universe::{ChannelKind, Proc, Universe, UniverseConfig};
use motor_mpc::{Comm, Source, Tag};
use motor_obs::{Anomaly, ClusterTrace, DoctorConfig, MetricsSnapshot};
use motor_runtime::{MotorThread, TypeRegistry, Vm, VmConfig};
use parking_lot::Mutex;

use crate::bufpool::BufPool;
use crate::doctor::DoctorServer;
use crate::error::{CoreError, CoreResult};
use crate::mp::Mp;
use crate::oomp::{recv_sized, send_sized, zeroed, Oomp};
use crate::pinning::PinPolicy;
use crate::serial::WalkScratch;
use crate::telemetry::{start_monitor, Collector, RankTicket, TelemetryConfig, TelemetryServer};

/// Configuration of a Motor cluster. Build one with
/// [`ClusterConfig::builder`] or fill the fields directly.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of ranks (VM instances) to run.
    pub ranks: usize,
    /// Per-rank VM configuration.
    pub vm: VmConfig,
    /// Universe (transport/device) configuration.
    pub universe: UniverseConfig,
    /// Pinning policy applied by the `System.MP` bindings.
    pub policy: PinPolicy,
    /// Health watchdog (`motor-doctor`): `None` disables it unless the
    /// `MOTOR_DOCTOR` environment variable asks for one at run time.
    pub doctor: Option<DoctorConfig>,
    /// Live telemetry endpoint (`/metrics`, `/healthz`, `/flight`,
    /// `/frames`): `None` disables it unless the `MOTOR_TELEMETRY`
    /// environment variable asks for one at run time.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            ranks: 1,
            vm: VmConfig::default(),
            universe: UniverseConfig::default(),
            policy: PinPolicy::default(),
            doctor: None,
            telemetry: None,
        }
    }
}

impl ClusterConfig {
    /// Start building a cluster configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }
}

/// Fluent builder for [`ClusterConfig`].
#[derive(Clone, Default)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Number of ranks to run.
    pub fn ranks(mut self, n: usize) -> Self {
        self.config.ranks = n;
        self
    }

    /// Transport between ranks (shared-memory rings or loopback TCP).
    pub fn transport(mut self, kind: ChannelKind) -> Self {
        self.config.universe.channel = kind;
        self
    }

    /// Pinning policy for the `System.MP` bindings.
    pub fn policy(mut self, policy: PinPolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Per-rank VM configuration.
    pub fn vm(mut self, vm: VmConfig) -> Self {
        self.config.vm = vm;
        self
    }

    /// Full universe configuration (overrides [`Self::transport`] and
    /// [`Self::eager_threshold`] if set afterwards).
    pub fn universe(mut self, universe: UniverseConfig) -> Self {
        self.config.universe = universe;
        self
    }

    /// Eager/rendezvous protocol switch-over size, in bytes.
    pub fn eager_threshold(mut self, bytes: usize) -> Self {
        self.config.universe.device.eager_threshold = bytes;
        self
    }

    /// Whether a dedicated thread per device drives progress besides the
    /// rank threads; see
    /// [`ProgressMode`](motor_mpc::ProgressMode). Left at the default
    /// `Off`, the `MOTOR_PROGRESS` environment variable decides at run
    /// time.
    pub fn progress(mut self, mode: motor_mpc::ProgressMode) -> Self {
        self.config.universe.progress = mode;
        self
    }

    /// Custom link factory: every inter-rank link pair comes from this
    /// closure instead of the built-in shm/tcp channels. This is how
    /// motor-sim injects fault-carrying `SimLink`s under a full cluster.
    pub fn link_factory(mut self, factory: motor_mpc::LinkFactory) -> Self {
        self.config.universe.link_factory = Some(factory);
        self
    }

    /// Capacity of each rank's event-trace ring: one per rank, which its
    /// device and its VM both record into. The ring overwrites its oldest
    /// entry once full, so a long run keeps the *most recent* `n` events;
    /// size this to cover the window you intend to trace.
    pub fn event_capacity(mut self, n: usize) -> Self {
        self.config.universe.device.event_capacity = n;
        self
    }

    /// Enable the `motor-doctor` watchdog: a monitor thread that scans
    /// every rank's live in-flight op table, diagnoses stalls, deadlock
    /// suspects, pin leaks and GC pressure, and emits a flight record on
    /// anomaly. Runs with the given tuning; see
    /// [`DoctorConfig`](motor_obs::DoctorConfig). The `MOTOR_DOCTOR`
    /// environment variable enables it too (config wins when both are
    /// set).
    pub fn doctor(mut self, cfg: DoctorConfig) -> Self {
        self.config.doctor = Some(cfg);
        self
    }

    /// Enable the live telemetry endpoint: a monitor thread collects one
    /// delta frame per tick into a bounded ring, and an in-process HTTP
    /// listener serves `GET /metrics` (Prometheus text with per-rank
    /// labels), `/healthz`, `/flight` and `/frames` while the workload
    /// runs. See [`TelemetryConfig`]; the `MOTOR_TELEMETRY` environment
    /// variable enables it too (config wins when both are set). Watch it
    /// with `motor-top`.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.config.telemetry = Some(cfg);
        self
    }

    /// Finish building.
    pub fn build(self) -> ClusterConfig {
        self.config
    }
}

/// Per-rank metrics snapshots collected when a cluster run exits.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// One snapshot per rank (transport and runtime alike), in rank
    /// order.
    pub per_rank: Vec<MetricsSnapshot>,
    /// Anomalies the `motor-doctor` watchdog diagnosed during the run
    /// (always empty when the doctor was not enabled).
    pub anomalies: Vec<Anomaly>,
}

impl ClusterMetrics {
    /// Merge every rank's snapshot into one cluster-wide view (counters
    /// add; queue peaks take the max across ranks).
    pub fn aggregate(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::empty();
        for s in &self.per_rank {
            out.merge(s);
        }
        out
    }

    /// Merge the per-rank event rings into one cluster timeline: spans,
    /// matched message edges, calibrated cross-rank time.
    pub fn trace(&self) -> ClusterTrace {
        motor_obs::build_cluster_trace(&self.per_rank)
    }

    /// The cluster timeline in Chrome-trace-event JSON, loadable in
    /// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        motor_obs::to_chrome_json(&self.trace())
    }
}

/// One rank's Motor environment, handed to the rank body.
pub struct MotorProc {
    vm: Arc<Vm>,
    thread: MotorThread,
    comm: Comm,
    pool: Arc<BufPool>,
    /// The serializer's walk scratch, reused by every object send of the
    /// rank as the pool's buffers are.
    walk: RefCell<WalkScratch>,
    policy: PinPolicy,
    proc_: Proc,
    /// This rank's registration with the shared telemetry collector, when
    /// monitoring (doctor and/or endpoint) is enabled.
    monitor: Option<(Arc<Collector>, RankTicket)>,
    doctor: Option<Arc<DoctorServer>>,
    telemetry: Option<Arc<TelemetryServer>>,
}

impl MotorProc {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The rank's VM.
    pub fn vm(&self) -> &Arc<Vm> {
        &self.vm
    }

    /// The rank's attached mutator thread.
    pub fn thread(&self) -> &MotorThread {
        &self.thread
    }

    /// The world communicator.
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// The regular MPI bindings (`System.MP`).
    pub fn mp(&self) -> Mp<'_> {
        Mp::with_policy(&self.thread, self.comm.clone(), self.policy)
    }

    /// The extended object-oriented operations.
    pub fn oomp(&self) -> Oomp<'_> {
        Oomp::new(
            &self.thread,
            self.comm.clone(),
            Arc::clone(&self.pool),
            &self.walk,
        )
    }

    /// The message-passing intrinsic host for interpreted IL: bind it to
    /// an interpreter with `Interp::with_host` so `Op::FCall` routes into
    /// this rank's [`Mp`]/[`Oomp`] bindings.
    pub fn intrinsics(&self) -> crate::fcall::MpIntrinsics<'_> {
        crate::fcall::MpIntrinsics::new(self.mp(), self.oomp())
    }

    /// The OO buffer pool (diagnostics).
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// The underlying universe process (dynamic spawning etc.).
    pub fn native(&self) -> &Proc {
        &self.proc_
    }

    /// The `motor-doctor` watchdog monitoring this rank, if one is
    /// enabled (on-demand flight records, manual scans).
    pub fn doctor(&self) -> Option<&Arc<DoctorServer>> {
        self.doctor.as_ref()
    }

    /// The shared telemetry collector observing this rank, if monitoring
    /// (doctor and/or endpoint) is enabled.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.monitor.as_ref().map(|(c, _)| c)
    }

    /// The live telemetry endpoint, if one is serving this run (read its
    /// bound address with [`TelemetryServer::local_addr`] — useful with
    /// port 0 in tests).
    pub fn telemetry(&self) -> Option<&Arc<TelemetryServer>> {
        self.telemetry.as_ref()
    }

    /// This rank's metrics: the one registry its device (channel, device,
    /// collectives) and its VM (GC and pinning, safepoints, serializer,
    /// buffer pool) record into.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.vm.metrics().snapshot()
    }
}

/// Run a Motor program on `config.ranks` ranks. `define_types` is applied
/// to every rank's fresh type registry before the body starts (all ranks
/// must know the application classes, as all SPMD programs do); `body` is
/// the rank program. On exit, every rank's metrics snapshot is collected
/// and returned in rank order.
pub fn run_cluster<D, B>(
    config: ClusterConfig,
    define_types: D,
    body: B,
) -> CoreResult<ClusterMetrics>
where
    D: Fn(&mut TypeRegistry) + Send + Sync,
    B: Fn(&MotorProc) + Send + Sync,
{
    let n = config.ranks;
    // One epoch for every rank's registry, spawned children included, so
    // event timestamps from different ranks live on a single timebase
    // and matched send/recv edges have meaningful (non-negative)
    // latencies. Respect an epoch the caller pinned explicitly.
    let mut universe = config.universe.clone();
    universe
        .device
        .epoch
        .get_or_insert_with(std::time::Instant::now);
    // A doctor/telemetry config requested explicitly wins; otherwise the
    // MOTOR_DOCTOR / MOTOR_TELEMETRY environment variables may enable
    // them at run time. The collector (and its monitor thread) exists
    // only when at least one consumer does — when neither is enabled the
    // run takes the exact pre-telemetry path.
    let doctor_cfg = config.doctor.clone().or_else(DoctorConfig::from_env);
    let telemetry_cfg = config.telemetry.clone().or_else(TelemetryConfig::from_env);
    let collector = if doctor_cfg.is_some() || telemetry_cfg.is_some() {
        Some(Collector::new(
            telemetry_cfg
                .as_ref()
                .map_or(motor_obs::DEFAULT_FRAME_CAPACITY, |t| t.frame_capacity),
        ))
    } else {
        None
    };
    let doctor = doctor_cfg
        .map(|cfg| DoctorServer::new(cfg, Arc::clone(collector.as_ref().expect("collector"))));
    let telemetry = telemetry_cfg.as_ref().and_then(|cfg| {
        match TelemetryServer::start(
            cfg,
            Arc::clone(collector.as_ref().expect("collector")),
            doctor.clone(),
        ) {
            Ok(srv) => Some(srv),
            Err(e) => {
                eprintln!(
                    "motor-telemetry: cannot bind {}: {e}; running without the endpoint",
                    cfg.addr
                );
                None
            }
        }
    });
    // One monitor loop regardless of how many consumers: tick at the
    // shortest enabled interval.
    let monitor = collector.as_ref().map(|c| {
        let mut interval = Duration::from_secs(3600);
        if let Some(d) = &doctor {
            interval = interval.min(d.config().scan_interval);
        }
        if let Some(t) = &telemetry_cfg {
            interval = interval.min(t.interval);
        }
        start_monitor(Arc::clone(c), doctor.clone(), interval)
    });
    let start = RankStart {
        vm: config.vm,
        policy: config.policy,
        collector: collector.as_ref().map(|c| (Arc::clone(c), 0)),
        doctor: doctor.clone(),
        telemetry: telemetry.clone(),
    };
    let snaps: Mutex<Vec<(usize, MetricsSnapshot)>> = Mutex::new(Vec::with_capacity(n));
    let result = Universe::run_with(n, universe, |proc| {
        start.run(proc, &define_types, |mp| {
            body(mp);
            snaps.lock().push((mp.rank(), mp.metrics()));
        });
    });
    if let Some(m) = monitor {
        m.stop();
    }
    if let Some(t) = &telemetry {
        t.stop();
    }
    let anomalies = match &doctor {
        Some(d) => {
            if d.config().record_on_exit {
                d.write_record(&d.flight_record());
            }
            d.anomalies()
        }
        None => Vec::new(),
    };
    result?;
    let mut per_rank = snaps.into_inner();
    per_rank.sort_by_key(|&(r, _)| r);
    Ok(ClusterMetrics {
        per_rank: per_rank.into_iter().map(|(_, s)| s).collect(),
        anomalies,
    })
}

/// What a Motor rank starts with, world rank or spawned child alike: its
/// VM configuration and pin policy, and the monitoring it joins — the
/// collector with the rank's spawn group (0 for the initial world), the
/// doctor and the telemetry endpoint.
struct RankStart {
    vm: VmConfig,
    policy: PinPolicy,
    collector: Option<(Arc<Collector>, usize)>,
    doctor: Option<Arc<DoctorServer>>,
    telemetry: Option<Arc<TelemetryServer>>,
}

impl RankStart {
    /// Run a rank on `proc`, whose thread already owns the device's
    /// registry: a fresh VM recording into that registry, with the
    /// application's types; registration with the collector before the
    /// body, so even a startup deadlock is visible; and time-bucket
    /// accounting armed, so from here to the body's end every classified
    /// span and phase scope attributes the rank's wall clock and the
    /// `prof_*` counters of its snapshots partition the body's run time.
    /// Then `body`, and the rank is marked done and finalized.
    fn run(
        &self,
        proc: Proc,
        define_types: &dyn Fn(&mut TypeRegistry),
        body: impl FnOnce(&MotorProc),
    ) {
        let vm = Vm::with_metrics(self.vm.clone(), Arc::clone(proc.device().metrics()));
        define_types(&mut vm.registry_mut());
        let thread = MotorThread::attach(Arc::clone(&vm));
        let comm = proc.world().clone();
        let pool = Arc::new(BufPool::new());
        pool.attach_metrics(Arc::clone(vm.metrics()));
        let monitor = self.collector.as_ref().map(|(c, group)| {
            let rank = comm.rank();
            let label = match group {
                0 => format!("rank {rank}"),
                g => format!("child {g}.{rank}"),
            };
            let device = Arc::clone(comm.device());
            let t = c.register_in_group(*group, rank, label, device, Arc::clone(&vm));
            (Arc::clone(c), t)
        });
        let mp = MotorProc {
            vm,
            thread,
            comm,
            pool,
            walk: RefCell::default(),
            policy: self.policy,
            proc_: proc,
            monitor,
            doctor: self.doctor.clone(),
            telemetry: self.telemetry.clone(),
        };
        mp.vm.metrics().profile_start();
        body(&mp);
        if let Some((c, t)) = &mp.monitor {
            c.mark_done(*t);
        }
        finalize_before_heap_drops(&mp);
    }
}

/// Last step of a rank body, while `mp`'s `Vm` — and with it the heap —
/// is still alive: a body may return with a rendezvous send nobody waited
/// for (a forgotten `PendingArray`, a dropped `MpRequest`, an early `?`),
/// whose window lies in that heap and which the device would otherwise
/// still serve from the universe's post-body drain, after the heap is
/// gone. A drain error means a peer is gone; the sends are ended all the
/// same.
fn finalize_before_heap_drops(mp: &MotorProc) {
    let _ = mp.comm.device().finalize();
}

/// [`run_cluster`] on `n` ranks with otherwise default configuration.
pub fn run_cluster_default<D, B>(n: usize, define_types: D, body: B) -> CoreResult<ClusterMetrics>
where
    D: Fn(&mut TypeRegistry) + Send + Sync,
    B: Fn(&MotorProc) + Send + Sync,
{
    run_cluster(
        ClusterConfig::builder().ranks(n).build(),
        define_types,
        body,
    )
}

/// MPI-2 dynamic process management at the Motor level (paper §7: "we
/// have implemented selected MPI-2 functionality such as dynamic process
/// management and dynamic intercommunication routines").
///
/// Collective over `proc`'s world communicator: spawns `count` new Motor
/// processes, each with its own fresh VM (types defined by
/// `define_types`), running `entry`. Every parent receives the
/// parent↔children [`InterComm`]; each child's [`MotorProc::parent_comm`]
/// is the children↔parents intercommunicator.
pub fn spawn_motor_children<D, B>(
    proc: &MotorProc,
    count: usize,
    config: ClusterConfig,
    define_types: D,
    entry: B,
) -> CoreResult<motor_mpc::universe::InterComm>
where
    D: Fn(&mut TypeRegistry) + Send + Sync + 'static,
    B: Fn(&MotorProc) + Send + Sync + 'static,
{
    // Children join the parent's monitoring in a fresh spawn group: their
    // world ranks restart at 0, so peer cross-matching must not mix them
    // with the parents' world.
    let start = RankStart {
        vm: config.vm,
        policy: config.policy,
        collector: proc.collector().map(|c| (Arc::clone(c), c.alloc_group())),
        doctor: proc.doctor().cloned(),
        telemetry: proc.telemetry().cloned(),
    };
    let inter = proc
        .proc_
        .universe()
        .spawn_children(proc.comm(), count, move |child: Proc| {
            start.run(child, &define_types, &entry)
        })?;
    Ok(inter)
}

impl MotorProc {
    /// The parent intercommunicator, if this Motor process was spawned
    /// dynamically (the `MPI_Comm_get_parent` analog).
    pub fn parent_comm(&self) -> Option<&motor_mpc::universe::InterComm> {
        self.proc_.parent()
    }

    /// Object transport to a remote-group rank of an intercommunicator:
    /// serialize with the Motor mechanism, ship size then data.
    pub fn osend_inter(
        &self,
        inter: &motor_mpc::universe::InterComm,
        obj: motor_runtime::Handle,
        remote_rank: usize,
        tag: i32,
    ) -> CoreResult<()> {
        let ser = crate::serial::Serializer::new(&self.thread);
        let (bytes, _) = ser.serialize(obj)?;
        send_sized(&bytes, |b| inter.send_bytes(b, remote_rank, tag))?;
        Ok(())
    }

    /// Receive an object tree from a remote-group rank of an
    /// intercommunicator (`remote_rank` may be [`Source::Any`]).
    pub fn orecv_inter(
        &self,
        inter: &motor_mpc::universe::InterComm,
        remote_rank: impl Into<Source>,
        tag: i32,
    ) -> CoreResult<(motor_runtime::Handle, usize)> {
        let recv = |b: &mut [u8], src: Source, tag: Tag| {
            inter.recv_bytes(b, src, tag).map_err(CoreError::from)
        };
        let (data, st) = recv_sized(remote_rank.into(), Tag::new(tag), recv, zeroed)?;
        let ser = crate::serial::Serializer::new(&self.thread);
        let root = ser.deserialize(&data)?;
        Ok((root, st.source as usize))
    }
}
