//! The drain that ends a rank: buffered eager sends are delivered after
//! the sender's body has returned, and a peer that has itself finished
//! does not hold the sender up.
//!
//! An eager send completes once its frame is queued, so a body can return
//! with frames still queued behind the peer's full ring (256 KiB by
//! default: about 31 messages of 8 KiB). Each case runs in both progress
//! modes, with a park quantum of an hour — the drain must be woken by the
//! peer making room, not by its timer — and under a watchdog, so a hang
//! fails the test instead of stalling the suite.

use std::time::{Duration, Instant};

use motor::mpc::universe::{Universe, UniverseConfig};
use motor::mpc::{Comm, MpcResult, ProgressMode};
use motor::pal::BackoffConfig;

const MSG: usize = 8 * 1024;

/// Run `body` on both ranks of a 2-rank universe in `mode`, failing if
/// the run has not returned within a minute. Returns how the run ended.
fn run_watched(mode: ProgressMode, body: fn(&Comm)) -> std::thread::Result<MpcResult<()>> {
    let mut cfg = UniverseConfig {
        progress: mode,
        ..UniverseConfig::default()
    };
    cfg.device.wait_backoff = BackoffConfig {
        sleep: Some(Duration::from_secs(3600)),
        ..cfg.device.wait_backoff
    };
    let limit = Duration::from_secs(60);
    let start = Instant::now();
    let run = std::thread::spawn(move || Universe::run_with(2, cfg, |proc| body(proc.world())));
    while !run.is_finished() {
        assert!(
            start.elapsed() < limit,
            "{mode:?}: the run hung (still running after {limit:?})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    run.join()
}

fn both_modes(body: fn(&Comm)) {
    for mode in [ProgressMode::Off, ProgressMode::Thread] {
        match run_watched(mode, body) {
            Ok(result) => result.unwrap(),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

/// The sender returns at once with most of its 40 messages still queued;
/// the receiver starts late and must still get every one.
#[test]
fn eager_sends_queued_at_return_are_delivered() {
    both_modes(|world| {
        const N: usize = 40;
        if world.rank() == 1 {
            for i in 0..N {
                world.send_bytes(&[i as u8; MSG], 0, 1).unwrap();
            }
        } else {
            std::thread::sleep(Duration::from_millis(200));
            let mut buf = vec![0u8; MSG];
            for i in 0..N {
                world.recv_bytes(&mut buf, 1, 1).unwrap();
                assert!(buf.iter().all(|&b| b == i as u8), "message {i}");
            }
        }
    });
}

/// The receiver has finished before the sender starts: the sender's
/// frames beyond the ring have nowhere to go, and its drain must not wait
/// for room that never comes.
#[test]
fn sends_to_a_finished_peer_do_not_hold_the_sender() {
    both_modes(|world| {
        if world.rank() == 1 {
            std::thread::sleep(Duration::from_millis(300));
            for i in 0..128 {
                world.send_bytes(&[i as u8; MSG], 0, 2).unwrap();
            }
        }
    });
}

/// A peer whose body panicked is finished too: the sender's drain must
/// not wait for it, and the panic reaches the caller.
#[test]
fn sends_to_a_panicked_peer_do_not_hold_the_sender() {
    for mode in [ProgressMode::Off, ProgressMode::Thread] {
        let run = run_watched(mode, |world| {
            if world.rank() == 0 {
                panic!("rank 0 fails on purpose");
            }
            std::thread::sleep(Duration::from_millis(300));
            for i in 0..128 {
                world.send_bytes(&[i as u8; MSG], 0, 3).unwrap();
            }
        });
        assert!(run.is_err(), "{mode:?}: the rank's panic is propagated");
    }
}
