//! Who drives communication progress, and how.
//!
//! There is one progress hook, [`Device::pass`], and one wait,
//! `Device::wait_until`; every mode runs both, wired and woken the same
//! way. A rank thread passes whenever it posts, tests or waits. That
//! leaves a rank that computes while transfers are in flight with an idle
//! device, so — following *MPI Progress For All* and *Examining MPI and
//! its Extensions for Asynchronous Multithreaded Communication* — a
//! [`ProgressMode`] may add *somebody else* who calls the same pass:
//!
//! * **`thread`** — a dedicated progress thread per device
//!   ([`ProgressEngine`]), chaining passes while work moves and parking
//!   on the device's waker when it goes quiet;
//! * **`steal`** — every rank thread parked in a wait lends its cycles to
//!   its *siblings'* devices ([`ProgressSet`]), skipping any link whose
//!   owner is already pumping it.
//!
//! What differs between the callers is a [`Policy`], not a code path:
//!
//! | policy             | `blocking` | `max_passes` | `attribute_to` | caller |
//! |--------------------|-----------|--------------|----------------|--------|
//! | [`Policy::RANK`]   | yes       | 1            | `Rank`         | post, test, wait, drain on the owning rank |
//! | [`Policy::ENGINE`] | yes       | 4            | `Engine`       | the progress thread |
//! | [`Policy::STEAL`]  | no        | 1            | `Thief`        | a sibling's parked waiter |
//!
//! Nobody polls on a timer: a pass that moved bytes through a link wakes
//! whatever is parked at its other end (`motor_pal::poll`), and a park
//! quantum only bounds a wake-up that never comes. Every caller is also
//! callable inline, which is how `SimNet` runs all three modes under its
//! seeded single-threaded scheduler.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
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
    /// Threads parked in waits pump sibling devices.
    Steal,
}

impl ProgressMode {
    /// Parse `MOTOR_PROGRESS` (`thread`, `steal`, `off`; anything else is
    /// rejected loudly rather than silently ignored). Returns `None` when
    /// the variable is unset or empty.
    pub fn from_env() -> Option<ProgressMode> {
        let v = std::env::var("MOTOR_PROGRESS").ok()?;
        let v = v.trim();
        if v.is_empty() {
            return None;
        }
        match v.to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(ProgressMode::Off),
            "thread" | "1" => Some(ProgressMode::Thread),
            "steal" => Some(ProgressMode::Steal),
            other => panic!("MOTOR_PROGRESS: unknown mode {other:?} (use thread|steal|off)"),
        }
    }
}

/// On whose behalf a [`Device::pass`] runs — what its work is booked to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Caller {
    /// The device's own rank thread: polls only.
    Rank,
    /// A progress thread: its time (`ProgressEngineNanos`, the
    /// off-rank-thread share of the `progress` bucket) and completions.
    Engine,
    /// A sibling's parked waiter: completions, and `ProgressSteals`.
    Thief,
}

/// How one caller runs [`Device::pass`]. Callers pick a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Wait for a link whose lock is held (`true`), or skip it: its
    /// holder is pumping it, and waiting would serialize the two on
    /// exactly the lock the split removed (`false`).
    pub blocking: bool,
    /// Chain up to this many sweeps while work moves, so a reply queued
    /// by sweep *n* (CTS, rendezvous data, sync-ack) leaves in sweep
    /// *n+1* of the same call instead of waiting for the next one.
    pub max_passes: usize,
    /// Whose work this is.
    pub attribute_to: Caller,
}

impl Policy {
    /// The owning rank thread: one blocking sweep.
    pub const RANK: Policy = Policy {
        blocking: true,
        max_passes: 1,
        attribute_to: Caller::Rank,
    };
    /// A progress thread: up to four chained blocking sweeps.
    pub const ENGINE: Policy = Policy {
        blocking: true,
        max_passes: 4,
        attribute_to: Caller::Engine,
    };
    /// A stealing sibling: one sweep that skips held links.
    pub const STEAL: Policy = Policy {
        blocking: false,
        max_passes: 1,
        attribute_to: Caller::Thief,
    };
}

/// How long an idle engine thread parks before looking again: the bound
/// on traffic from a peer that cannot poke this device's waker.
const IDLE_PARK: Duration = Duration::from_micros(50);

/// The steal registry: every device in a universe, so a thread parked in
/// one rank's wait can drive the others' pending operations.
#[derive(Default)]
pub struct ProgressSet {
    devices: Mutex<Vec<Weak<Device>>>,
}

impl ProgressSet {
    /// An empty set.
    pub fn new() -> Arc<ProgressSet> {
        Arc::new(ProgressSet::default())
    }

    /// Add a device to the steal pool: waiters parked on it will pump the
    /// set's other members, and vice versa.
    pub fn register(self: &Arc<Self>, device: &Arc<Device>) {
        self.devices.lock().push(Arc::downgrade(device));
        let _ = device.steal_set.set(Arc::clone(self));
    }

    /// One steal sweep on behalf of rank `thief`: a [`Policy::STEAL`]
    /// pass over every *other* live device. Returns whether anything
    /// moved anywhere.
    pub fn steal(&self, thief: usize) -> bool {
        let live: Vec<Arc<Device>> = self
            .devices
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        live.iter()
            .filter(|victim| victim.rank() != thief)
            .fold(false, |moved, victim| victim.pass(Policy::STEAL) | moved)
    }
}

/// Dedicated progress threads, one per attached device. Threads run
/// [`Policy::ENGINE`] passes while work moves and park on the device waker
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
                    let seen = device.waker().generation();
                    if !device.pass(Policy::ENGINE) {
                        // Quiet device: park until a post, a pass that
                        // moved, or a peer that moved bytes on one of our
                        // links notifies.
                        device.waker().wait_next(seen, IDLE_PARK);
                    }
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
        std::env::set_var("MOTOR_PROGRESS", "thread");
        assert_eq!(ProgressMode::from_env(), Some(ProgressMode::Thread));
        std::env::set_var("MOTOR_PROGRESS", "STEAL");
        assert_eq!(ProgressMode::from_env(), Some(ProgressMode::Steal));
        std::env::set_var("MOTOR_PROGRESS", "off");
        assert_eq!(ProgressMode::from_env(), Some(ProgressMode::Off));
        std::env::set_var("MOTOR_PROGRESS", "");
        assert!(ProgressMode::from_env().is_none());
        std::env::remove_var("MOTOR_PROGRESS");
        assert!(ProgressMode::from_env().is_none());
    }
}
