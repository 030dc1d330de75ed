//! The `motor-doctor` watchdog: live stall/deadlock diagnosis over a
//! running cluster.
//!
//! Every rank's registries keep a live in-flight op table (see
//! [`motor_obs::doctor`]): spans register on open, outstanding
//! `Isend`/`Irecv` requests keep their registration until completion, and
//! the transport's polling wait heartbeats the table whenever the
//! progress engine actually moves bytes. The [`DoctorServer`] here is a
//! *consumer* of the telemetry plane: the monitor loop (see
//! [`crate::telemetry::start_monitor`]) takes one [`Collector::collect`]
//! tick per interval and hands the frame's records to
//! [`DoctorServer::process`], which classifies them with
//! [`motor_obs::classify`] — *stall*, *deadlock suspect*, *pin leak*, *GC
//! pressure*, *link drop* — so the watchdog and the `/metrics`-`/frames`
//! endpoints see the cluster through the same records.
//!
//! On the first new anomaly (and on demand) it cuts a [`FlightRecord`]:
//! every rank's record with its trace rings drained, plus the anomaly
//! list, written as JSON next to the Perfetto export, and prints a
//! one-screen diagnosis naming the blamed ranks and ops. Enable it per
//! run with [`ClusterConfigBuilder::doctor`] or the `MOTOR_DOCTOR`
//! environment variable (see
//! [`DoctorConfig::parse`](motor_obs::DoctorConfig::parse)).
//!
//! [`ClusterConfigBuilder::doctor`]: crate::cluster::ClusterConfigBuilder::doctor
//! [`Collector::collect`]: crate::telemetry::Collector::collect

use std::sync::Arc;

use motor_obs::{classify, Anomaly, DoctorConfig, FlightRecord, RankRecord};
use parking_lot::Mutex;

use crate::telemetry::Collector;

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
}

impl DoctorServer {
    /// A watchdog consuming `collector`'s observations.
    pub fn new(cfg: DoctorConfig, collector: Arc<Collector>) -> Arc<DoctorServer> {
        Arc::new(DoctorServer {
            cfg,
            collector,
            anomalies: Mutex::new(Vec::new()),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &DoctorConfig {
        &self.cfg
    }

    /// Classify one tick's records, record and report anomalies not seen
    /// before. Returns the *new* anomalies. Called by the monitor loop;
    /// callable directly with synthetic records in tests.
    pub fn process(&self, records: &[RankRecord]) -> Vec<Anomaly> {
        let found = classify(records, &self.cfg);
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
            let record = self.collector.flight_record(fresh.clone());
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
        let frame = self.collector.collect();
        frame.map_or_else(Vec::new, |f| self.process(&f.ranks))
    }

    /// Cut a flight record of the current state on demand (anomalies seen
    /// so far included).
    pub fn flight_record(&self) -> FlightRecord {
        self.collector.flight_record(self.anomalies())
    }

    /// Write `record` to the configured path, if any.
    pub fn write_record(&self, record: &FlightRecord) {
        if let Some(path) = &self.cfg.record_path {
            match std::fs::write(path, record.to_json()) {
                Ok(()) => eprintln!("motor-doctor: flight record written to {path}"),
                Err(e) => eprintln!("motor-doctor: cannot write {path}: {e}"),
            }
        }
    }

    /// Every anomaly diagnosed so far (deduplicated).
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.anomalies.lock().clone()
    }
}
