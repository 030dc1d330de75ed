//! `SimNet` — N ranks' devices on one thread under a virtual clock.
//!
//! The fabric replaces OS-thread nondeterminism with an explicit,
//! seed-driven schedule: every step picks one device (round-robin or
//! seeded-random), pumps its progress engine once, and advances virtual
//! time one tick. Hangs become test failures — a step budget runs out —
//! and every failure dumps a doctor [`FlightRecord`] plus the one-line
//! seed-replay command that reproduces the exact same schedule.

use std::collections::HashMap;
use std::sync::Arc;

use motor_mpc::channel::LinkState;
use motor_mpc::device::{Device, DeviceConfig};
use motor_mpc::packet::Envelope;
use motor_mpc::progress::{Caller, ProgressMode};
use motor_mpc::request::Request;
use motor_obs::{FlightRecord, RankRecord};
use motor_pal::{TickSource, VirtualClock};

use crate::fault::FaultPlan;
use crate::link::{sim_pair, LinkControl};
use crate::rng::SimRng;

/// Which device gets the next progress call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Cycle through ranks in order — the gentlest interleaving.
    RoundRobin,
    /// Pick a rank uniformly per step from the run seed — explores
    /// adversarial interleavings while staying fully reproducible.
    Random,
}

/// Simulation parameters.
#[derive(Clone)]
pub struct SimConfig {
    /// Number of ranks (devices) on the fabric.
    pub ranks: usize,
    /// Device tuning shared by every rank.
    pub device: DeviceConfig,
    /// Progress scheduling policy.
    pub schedule: Schedule,
    /// Fault plan applied to every wire direction.
    pub plan: FaultPlan,
    /// Progress mode, emulated deterministically: mode `thread` makes
    /// each scheduler step the engine's pass. No real thread is spawned —
    /// every interleaving replays from the seed. The environment is
    /// deliberately *not* consulted here.
    pub progress: ProgressMode,
}

impl SimConfig {
    /// A clean `ranks`-rank fabric with default device tuning and a
    /// seeded-random schedule.
    pub fn new(ranks: usize) -> SimConfig {
        SimConfig {
            ranks,
            device: DeviceConfig::default(),
            schedule: Schedule::Random,
            plan: FaultPlan::clean(),
            progress: ProgressMode::Off,
        }
    }
}

/// A deterministic, single-threaded simulation of N communicating ranks.
pub struct SimNet {
    seed: u64,
    clock: Arc<VirtualClock>,
    devices: Vec<Arc<Device>>,
    controls: HashMap<(usize, usize), LinkControl>,
    rng: SimRng,
    schedule: Schedule,
    next_rr: usize,
    steps: u64,
    /// Whose pass a scheduler step runs (the mode's caller).
    caller: Caller,
}

impl SimNet {
    /// Build the fabric: one device per rank, a full mesh of simulated
    /// links (every wire forked from `seed`), and a fresh virtual clock.
    pub fn new(seed: u64, config: SimConfig) -> SimNet {
        assert!(config.ranks >= 1, "a fabric needs at least one rank");
        let clock = VirtualClock::new();
        let mut rng = SimRng::new(seed);
        let mut wire_rng = rng.fork();
        let devices: Vec<Arc<Device>> = (0..config.ranks)
            .map(|r| Device::new(r, config.device.clone()))
            .collect();
        let mut controls = HashMap::new();
        for i in 0..config.ranks {
            for j in (i + 1)..config.ranks {
                let (a, b, ctl) = sim_pair(
                    &clock,
                    config.plan.clone(),
                    config.plan.clone(),
                    &mut wire_rng,
                    false,
                );
                devices[i].set_link(j, LinkState::new(Box::new(a)));
                devices[j].set_link(i, LinkState::new(Box::new(b)));
                controls.insert((i, j), ctl);
            }
        }
        SimNet {
            seed,
            clock,
            devices,
            controls,
            rng,
            schedule: config.schedule,
            next_rr: 0,
            steps: 0,
            caller: match config.progress {
                ProgressMode::Off => Caller::Rank,
                ProgressMode::Thread => Caller::Engine,
            },
        }
    }

    /// The seed this run replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Rank `r`'s device.
    pub fn device(&self, r: usize) -> &Arc<Device> {
        &self.devices[r]
    }

    /// All devices, in rank order.
    pub fn devices(&self) -> &[Arc<Device>] {
        &self.devices
    }

    /// A world-communicator envelope from rank `src` with tag `tag` (the
    /// device fills in length and request id at send time).
    pub fn envelope(src: usize, tag: i32) -> Envelope {
        Envelope {
            src: src as u32,
            gsrc: src as u32,
            tag,
            context: 0,
            len: 0,
            sreq: 0,
            flags: 0,
        }
    }

    /// Sever the link between ranks `a` and `b` at the current point in
    /// the schedule.
    pub fn close_link(&self, a: usize, b: usize) {
        let key = (a.min(b), a.max(b));
        self.controls
            .get(&key)
            .unwrap_or_else(|| panic!("no link between ranks {a} and {b}"))
            .close();
    }

    /// One scheduler step: one device's progress pass, then the clock
    /// advances one tick. Returns whether anything moved.
    pub fn step(&mut self) -> bool {
        let idx = match self.schedule {
            Schedule::RoundRobin => {
                let i = self.next_rr;
                self.next_rr = (self.next_rr + 1) % self.devices.len();
                i
            }
            Schedule::Random => self.rng.below(self.devices.len() as u64) as usize,
        };
        // The same pass in both modes; the mode says who calls it. The
        // engine's pass runs inline on the scheduler thread.
        let moved = self.devices[idx].pass(self.caller);
        self.clock.advance(1);
        self.steps += 1;
        moved
    }

    /// Step until `pred` holds or `budget` steps elapse; returns whether
    /// the predicate held.
    pub fn run_until(&mut self, budget: u64, mut pred: impl FnMut() -> bool) -> bool {
        for _ in 0..budget {
            if pred() {
                return true;
            }
            self.step();
        }
        pred()
    }

    /// Drive the fabric until every request completes; on a failed peer
    /// or budget exhaustion (a simulated hang),
    /// [`fail`](SimNet::fail)s with the seed-replay line and a flight
    /// record.
    pub fn complete(&mut self, reqs: &[Request], budget: u64, test: &str) {
        for _ in 0..budget {
            if reqs.iter().all(|r| r.is_complete()) {
                return;
            }
            if let Some(p) = reqs.iter().find_map(|r| r.failed_peer()) {
                self.fail(
                    test,
                    &format!("in-flight operation lost its peer (rank {p})"),
                );
            }
            self.step();
        }
        if !reqs.iter().all(|r| r.is_complete()) {
            self.fail(test, "requests did not complete within the step budget");
        }
    }

    /// Cut a doctor flight record of the whole fabric as it stands.
    pub fn flight_record(&self) -> FlightRecord {
        FlightRecord {
            t_nanos: self.clock.now_ticks(),
            anomalies: Vec::new(),
            ranks: self
                .devices
                .iter()
                .map(|d| {
                    let reg = d.metrics();
                    RankRecord {
                        rank: d.rank(),
                        label: format!("rank {}", d.rank()),
                        now_nanos: reg.now_nanos(),
                        last_progress_nanos: reg.last_progress_nanos(),
                        inflight: reg.inflight_ops(),
                        queue_depths: d.queue_depths(),
                        snapshot: reg.snapshot(),
                        ..RankRecord::default()
                    }
                })
                .collect(),
        }
    }

    /// Report a failure: print the diagnosis, the seed and the one-line
    /// repro command; write the flight record to `$MOTOR_SIM_RECORD_DIR`
    /// if set; then panic (failing the test).
    pub fn fail(&self, test: &str, why: &str) -> ! {
        let seed = self.seed;
        let record = self.flight_record();
        eprintln!(
            "motor-sim: FAILURE in `{test}` with seed {seed} after {} steps: {why}",
            self.steps
        );
        eprint!("{}", record.diagnosis());
        if let Ok(dir) = std::env::var("MOTOR_SIM_RECORD_DIR") {
            if !dir.is_empty() {
                let path = format!("{dir}/sim-{test}-{seed}.json");
                let _ = std::fs::create_dir_all(&dir);
                match std::fs::write(&path, record.to_json()) {
                    Ok(()) => eprintln!("flight record written to {path}"),
                    Err(e) => eprintln!("could not write flight record to {path}: {e}"),
                }
            }
        }
        panic!(
            "motor-sim `{test}` failed with seed {seed}: {why} \
             (repro: MOTOR_SIM_SEEDS={seed} cargo test --test sim_conformance {test})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(net: &SimNet, from: usize, to: usize, tag: i32, data: &[u8]) -> Request {
        // SAFETY: test buffers outlive every drive loop below.
        unsafe {
            net.device(from)
                .isend_raw(
                    to,
                    SimNet::envelope(from, tag),
                    data.as_ptr(),
                    data.len(),
                    false,
                )
                .unwrap()
        }
    }

    fn recv(net: &SimNet, at: usize, src: i32, tag: i32, buf: &mut [u8]) -> Request {
        // SAFETY: as in `send`.
        unsafe {
            net.device(at)
                .irecv_raw(src, tag, 0, buf.as_mut_ptr(), buf.len())
                .unwrap()
        }
    }

    #[test]
    fn eager_exchange_over_trickle() {
        let mut net = SimNet::new(
            7,
            SimConfig {
                plan: FaultPlan::trickle(1),
                schedule: Schedule::RoundRobin,
                ..SimConfig::new(2)
            },
        );
        let data = [0xABu8; 50];
        let mut buf = [0u8; 50];
        let s = send(&net, 0, 1, 3, &data);
        let r = recv(&net, 1, 0, 3, &mut buf);
        net.complete(&[s, r], 100_000, "eager_exchange_over_trickle");
        assert_eq!(buf, data);
    }

    #[test]
    fn rendezvous_under_latency_and_random_schedule() {
        let mut net = SimNet::new(
            99,
            SimConfig {
                device: DeviceConfig {
                    eager_threshold: 64,
                    ..DeviceConfig::default()
                },
                plan: FaultPlan::trickle(16).with_latency(3),
                ..SimConfig::new(2)
            },
        );
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let mut buf = vec![0u8; data.len()];
        let s = send(&net, 0, 1, 9, &data);
        let r = recv(&net, 1, 0, 9, &mut buf);
        net.complete(&[s, r], 1_000_000, "rendezvous_under_latency");
        assert_eq!(buf, data);
    }

    #[test]
    fn identical_seeds_replay_identical_schedules() {
        let run = |seed: u64| {
            let mut net = SimNet::new(
                seed,
                SimConfig {
                    plan: FaultPlan::trickle(4).with_latency(2),
                    ..SimConfig::new(3)
                },
            );
            let data = [7u8; 200];
            let mut buf = [0u8; 200];
            let s = send(&net, 0, 2, 1, &data);
            let r = recv(&net, 2, 0, 1, &mut buf);
            assert!(net.run_until(200_000, || s.is_complete() && r.is_complete()));
            (net.steps(), net.clock().now_ticks())
        };
        assert_eq!(run(1234), run(1234));
    }

    #[test]
    fn flight_record_covers_every_rank() {
        let net = SimNet::new(5, SimConfig::new(3));
        let rec = net.flight_record();
        assert_eq!(rec.ranks.len(), 3);
        assert!(rec.anomalies.is_empty());
        assert!(rec.to_json().contains("\"rank\""));
    }
}
