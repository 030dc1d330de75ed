//! Who drives communication progress, and how.
//!
//! There is one progress hook, [`Device::pass`], and one wait,
//! `Device::wait_until`; both modes run both, wired and woken the same
//! way. A rank thread passes whenever it posts, tests or waits. That
//! leaves a rank that computes while transfers are in flight with an idle
//! device, so — following *MPI Progress For All* and *Examining MPI and
//! its Extensions for Asynchronous Multithreaded Communication* —
//! [`ProgressMode::Thread`] adds a dedicated progress thread per device
//! ([`ProgressEngine`]) that calls the same pass, chaining passes while
//! work moves and parking on the device's waker when it goes quiet.
//!
//! What differs between the two callers is a [`Caller`], not a code path:
//!
//! | caller             | sweeps | booked to                          | who |
//! |--------------------|--------|------------------------------------|-----|
//! | [`Caller::Rank`]   | 1      | polls                              | post, test, wait, drain on the owning rank |
//! | [`Caller::Engine`] | ≤ 4    | polls, completions, engine time    | the progress thread |
//!
//! Nobody polls on a timer: a pass that moved bytes through a link wakes
//! whatever is parked at its other end (`motor_pal::poll`), and a park
//! quantum only bounds a wake-up that never comes. Both callers are also
//! callable inline, which is how `SimNet` runs both modes under its
//! seeded single-threaded scheduler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::device::Device;

/// Who, besides the rank thread itself, drives a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// Nobody: the device moves only when its rank thread calls into it
    /// (post/test/wait).
    #[default]
    Off,
    /// One dedicated progress thread per device.
    Thread,
}

impl ProgressMode {
    /// `MOTOR_PROGRESS` in the one `MOTOR_*` grammar
    /// ([`motor_obs::spec`]): unset, empty, `0` and `off` mean
    /// [`ProgressMode::Off`]; `thread` and `1` mean
    /// [`ProgressMode::Thread`].
    ///
    /// # Panics
    /// On any other value, naming the variable and the accepted values.
    pub fn from_env() -> ProgressMode {
        motor_obs::spec::from_env("MOTOR_PROGRESS", parse_mode).unwrap_or_default()
    }
}

/// A `MOTOR_PROGRESS` value that is not one of the grammar's "off" spellings.
fn parse_mode(v: &str) -> Result<ProgressMode, String> {
    match v.trim() {
        "thread" | "1" => Ok(ProgressMode::Thread),
        other => Err(format!("unknown mode {other:?} (use off|thread)")),
    }
}

/// On whose behalf a [`Device::pass`] runs: how many sweeps it chains and
/// what its work is booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// The device's own rank thread: one sweep; polls only.
    Rank,
    /// A progress thread: up to four sweeps chained while work moves, so
    /// a reply queued by sweep *n* (CTS, rendezvous data, sync-ack) leaves
    /// in sweep *n+1* of the same call. Its time (`ProgressEngineNanos`,
    /// the off-rank-thread share of the `progress` bucket) and
    /// completions are booked to it.
    Engine,
}

impl Caller {
    /// How many sweeps one pass chains while work moves.
    pub(crate) fn max_sweeps(self) -> usize {
        match self {
            Caller::Rank => 1,
            Caller::Engine => 4,
        }
    }
}

/// How long an idle engine thread parks before looking again: the bound
/// on traffic from a peer that cannot poke this device's waker.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// Dedicated progress threads, one per attached device. Threads run
/// [`Caller::Engine`] passes while work moves and park on the device waker
/// when the device goes quiet; [`ProgressEngine::stop`] wakes and joins
/// them.
#[derive(Default)]
pub struct ProgressEngine {
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<(Arc<Device>, std::thread::JoinHandle<()>)>>,
}

impl ProgressEngine {
    /// Spawn the progress thread for `device`.
    pub fn attach(&self, device: Arc<Device>) {
        let stop = Arc::clone(&self.stop);
        let parked_on = Arc::clone(&device);
        let handle = std::thread::Builder::new()
            .name(format!("motor-progress-{}", device.rank()))
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    if device.pass(Caller::Engine) {
                        continue;
                    }
                    // Quiet device: counted as parked, look once more, then
                    // park until a post, a pass that moved, a peer's poke
                    // or `stop` notifies.
                    let parking = device.waker().prepare();
                    if stop.load(Ordering::Acquire) || device.pass(Caller::Engine) {
                        continue;
                    }
                    parking.park(IDLE_PARK);
                }
            })
            .expect("spawn progress thread");
        self.threads.lock().push((parked_on, handle));
    }

    /// Stop and join every progress thread. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let threads: Vec<_> = self.threads.lock().drain(..).collect();
        for (device, handle) in threads {
            // A parked thread re-checks the flag as soon as its waker fires.
            device.waker().notify();
            let _ = handle.join();
        }
    }
}

impl Drop for ProgressEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_parses_all_modes() {
        // One test owns the variable: tests run in one process.
        for (v, want) in [
            ("thread", ProgressMode::Thread),
            ("1", ProgressMode::Thread),
            ("off", ProgressMode::Off),
            ("0", ProgressMode::Off),
            ("", ProgressMode::Off),
        ] {
            std::env::set_var("MOTOR_PROGRESS", v);
            assert_eq!(ProgressMode::from_env(), want, "{v:?}");
        }
        std::env::remove_var("MOTOR_PROGRESS");
        assert_eq!(ProgressMode::from_env(), ProgressMode::Off);
        // The mode that went is an unknown value, not a silent default
        // (`spec::from_env` panics with it). Asked of the parser: set in
        // the shared environment it would fail every universe other tests
        // are building.
        let why = parse_mode("steal").unwrap_err();
        assert!(
            why.contains("\"steal\"") && why.contains("off|thread"),
            "{why}"
        );
    }
}
