//! The `motor-doctor` watchdog: live stall/deadlock diagnosis over a
//! running cluster.
//!
//! Every rank's registries already keep a live in-flight op table (see
//! [`motor_obs::doctor`]): spans register on open, outstanding
//! `Isend`/`Irecv` requests keep their registration until completion, and
//! the transport's polling wait heartbeats the table whenever the
//! progress engine actually moves bytes. The [`DoctorServer`] here is a
//! *consumer* of the shared telemetry plane: the unified monitor loop
//! (see [`crate::telemetry::start_monitor`]) takes one
//! [`Collector::collect`] tick per interval, and hands each tick's
//! observations to [`DoctorServer::process`], which cross-matches waiters
//! against their peers' in-flight ops and device queues and classifies
//! anomalies with [`motor_obs::classify`] — *stall*, *deadlock suspect*,
//! *pin leak*, *GC pressure*. The doctor no longer takes snapshots of its
//! own: the watchdog and the `/metrics`-`/frames` endpoints observe the
//! cluster through the same frames.
//!
//! On the first new anomaly (and on demand) it cuts a [`FlightRecord`]:
//! every rank's merged metrics snapshot, trace-ring drain and in-flight
//! table plus the anomaly list, written as JSON next to the Perfetto
//! export, and prints a one-screen diagnosis naming the blamed ranks and
//! ops. Enable it per run with [`ClusterConfigBuilder::doctor`] or the
//! `MOTOR_DOCTOR` environment variable (see
//! [`DoctorConfig::parse`](motor_obs::DoctorConfig::parse)).
//!
//! [`ClusterConfigBuilder::doctor`]: crate::cluster::ClusterConfigBuilder::doctor
//! [`Collector::collect`]: crate::telemetry::Collector::collect

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use motor_mpc::Device;
use motor_obs::{Anomaly, DoctorConfig, FlightRecord, MetricsSnapshot};
use motor_runtime::Vm;
use parking_lot::Mutex;

use crate::telemetry::{classify_observations, Collector, Observation};

/// Merged per-rank snapshot: the transport-side registry plus the VM-side
/// one (the same merge [`MotorProc::metrics`] performs). No counter is
/// bumped on both, so the sum is each counter's one value.
///
/// [`MotorProc::metrics`]: crate::cluster::MotorProc::metrics
pub(crate) fn merged_metrics(device: &Device, vm: &Vm) -> MetricsSnapshot {
    device.metrics().snapshot().merged(&vm.metrics().snapshot())
}

/// The cluster watchdog: anomaly classification, deduplication, and
/// flight-record policy over a shared [`Collector`]. Create with
/// [`DoctorServer::new`]; the unified monitor loop feeds it one
/// [`process`](DoctorServer::process) call per collection tick.
pub struct DoctorServer {
    cfg: DoctorConfig,
    collector: Arc<Collector>,
    /// Every anomaly diagnosed so far, deduplicated by
    /// [`Anomaly::key`](motor_obs::Anomaly::key).
    anomalies: Mutex<Vec<Anomaly>>,
    records_written: AtomicUsize,
}

impl DoctorServer {
    /// A watchdog consuming `collector`'s observations.
    pub fn new(cfg: DoctorConfig, collector: Arc<Collector>) -> Arc<DoctorServer> {
        Arc::new(DoctorServer {
            cfg,
            collector,
            anomalies: Mutex::new(Vec::new()),
            records_written: AtomicUsize::new(0),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DoctorConfig {
        &self.cfg
    }

    /// The shared collection state this watchdog observes through.
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Classify one tick's observations, record and report anomalies not
    /// seen before. Returns the *new* anomalies. Called by the monitor
    /// loop; callable directly with synthetic observations in tests.
    pub fn process(&self, obs: &[Observation]) -> Vec<Anomaly> {
        if obs.is_empty() {
            return Vec::new();
        }
        let found = classify_observations(obs, &self.cfg);
        let fresh: Vec<Anomaly> = {
            let mut known = self.anomalies.lock();
            let fresh: Vec<Anomaly> = found
                .into_iter()
                .filter(|a| known.iter().all(|k| k.key() != a.key()))
                .collect();
            known.extend(fresh.iter().cloned());
            fresh
        };
        if !fresh.is_empty() {
            let record = self.collector.flight_record_from(obs, fresh.clone());
            eprint!("{}", record.diagnosis());
            self.write_record(&record);
            if let Some(code) = self.cfg.exit_code {
                eprintln!("motor-doctor: aborting the process (exit code {code})");
                std::process::exit(code);
            }
        }
        fresh
    }

    /// One on-demand watchdog pass: take a fresh collection tick (which
    /// also pushes a telemetry frame) and classify it.
    pub fn scan(&self) -> Vec<Anomaly> {
        let obs = self.collector.collect();
        self.process(&obs)
    }

    /// Cut a flight record of the current state on demand (anomalies seen
    /// so far included; the doctor's stall windows are not perturbed).
    pub fn flight_record(&self) -> FlightRecord {
        self.collector.flight_record(self.anomalies())
    }

    /// Write `record` to the configured path, if any.
    pub fn write_record(&self, record: &FlightRecord) {
        if let Some(path) = &self.cfg.record_path {
            match std::fs::write(path, record.to_json()) {
                Ok(()) => {
                    self.records_written.fetch_add(1, Ordering::Relaxed);
                    eprintln!("motor-doctor: flight record written to {path}");
                }
                Err(e) => eprintln!("motor-doctor: cannot write {path}: {e}"),
            }
        }
    }

    /// Every anomaly diagnosed so far (deduplicated).
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.anomalies.lock().clone()
    }

    /// Number of flight records written to disk so far.
    pub fn records_written(&self) -> usize {
        self.records_written.load(Ordering::Relaxed)
    }
}
