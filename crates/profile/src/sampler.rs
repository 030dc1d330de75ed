//! The sampling profiler: a low-frequency observer thread that
//! periodically reads each target rank's lock-free profiling state and
//! turns it into trace events and folded stacks.
//!
//! The sampler never touches the rank being profiled: everything it
//! reads ([`PhaseStats::current_bucket`], [`IlHot::current`],
//! [`IlHot::stack_snapshot`]) is racy-tolerant published state, so a
//! sample costs the profiled rank nothing. Torn reads at worst misplace
//! a single sample.
//!
//! [`PhaseStats::current_bucket`]: motor_obs::PhaseStats::current_bucket
//! [`IlHot::current`]: motor_obs::IlHot::current
//! [`IlHot::stack_snapshot`]: motor_obs::IlHot::stack_snapshot

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use motor_obs::{EventKind, IlHot, Metric, MetricsRegistry};

use crate::folded::FoldedStacks;

/// One rank to be sampled.
pub struct ProfTarget {
    /// The rank number (used as the folded-stack root frame).
    pub rank: usize,
    /// The rank's metrics registry (it received `profile_start`, so its
    /// phase machine is live).
    pub registry: Arc<MetricsRegistry>,
    /// The rank's IL position table, if the rank runs interpreted code
    /// with the interpreter's `profile` feature on. `None` for native
    /// ranks — samples then fold to the rank's current time bucket.
    pub hot: Option<Arc<IlHot>>,
}

/// The clock-free core of the sampler: each [`sample_once`]
/// (Self::sample_once) reads every target exactly once. Driving this
/// from a thread gives the wall-clock profiler; driving it from a test
/// gives a deterministic one — the core itself never consults time.
pub struct SamplerCore {
    targets: Vec<ProfTarget>,
    folded: FoldedStacks,
    rounds: u64,
}

impl SamplerCore {
    /// A core over a fixed set of targets.
    pub fn new(targets: Vec<ProfTarget>) -> SamplerCore {
        SamplerCore {
            targets,
            folded: FoldedStacks::new(),
            rounds: 0,
        }
    }

    /// Sample every target once: stamp a `prof_sample` event into each
    /// rank's trace ring (`a` = packed current `(function+1)<<32 | pc`
    /// or 0 when idle, `b` = current time bucket, `c` = IL stack depth),
    /// bump its `prof_samples` counter, and accumulate a folded stack.
    pub fn sample_once(&mut self) {
        for t in &self.targets {
            let bucket = t.registry.phases().current_bucket();
            let (packed, depth, frames) = match &t.hot {
                Some(hot) => {
                    let cur = hot.current();
                    let stack = hot.stack_snapshot();
                    let mut frames: Vec<&str> = stack
                        .iter()
                        .filter_map(|&f| hot.names().get(f as usize))
                        .map(String::as_str)
                        .collect();
                    if frames.is_empty() {
                        if let Some((f, _)) = cur {
                            if let Some(name) = hot.names().get(f as usize) {
                                frames.push(name.as_str());
                            }
                        }
                    }
                    let packed = cur.map_or(0, |(f, pc)| ((f as u64 + 1) << 32) | pc as u64);
                    (packed, stack.len() as u64, frames)
                }
                None => (0, 0, Vec::new()),
            };
            t.registry
                .event3(EventKind::ProfSample, packed, bucket as u64, depth);
            t.registry.bump(Metric::ProfSamples);

            // Fold: IL frames outermost-first under a rankN root. Ranks
            // with no IL state (or an idle interpreter) fold to their
            // native phase tag; waiting ranks get the bucket appended as
            // a leaf so the flamegraph shows *where* time is lost.
            let bucket_tag = format!("[{}]", bucket.name());
            let mut owned: Vec<&str> = frames;
            if owned.is_empty() || bucket != motor_obs::TimeBucket::Compute {
                owned.push(&bucket_tag);
            }
            self.folded.add_frames(t.rank, &owned);
        }
        self.rounds += 1;
    }

    /// Sampling rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The folded stacks accumulated so far.
    pub fn folded(&self) -> &FoldedStacks {
        &self.folded
    }

    /// Consume the core, yielding `(folded stacks, rounds)`.
    pub fn finish(self) -> (FoldedStacks, u64) {
        (self.folded, self.rounds)
    }
}

/// A wall-clock sampler thread around [`SamplerCore`].
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<(FoldedStacks, u64)>>,
}

impl Sampler {
    /// Spawn a sampler over `targets`, sampling every `period` until
    /// [`stop`](Self::stop). A final sample is taken on the way out so
    /// short-lived runs still profile.
    pub fn spawn(targets: Vec<ProfTarget>, period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("motor-profile".into())
            .spawn(move || {
                let mut core = SamplerCore::new(targets);
                while !flag.load(Ordering::Acquire) {
                    core.sample_once();
                    std::thread::sleep(period);
                }
                core.sample_once();
                core.finish()
            })
            .expect("spawn motor-profile sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the thread and collect `(folded stacks, rounds)`.
    pub fn stop(mut self) -> (FoldedStacks, u64) {
        self.stop.store(true, Ordering::Release);
        let handle = self.handle.take().expect("sampler already stopped");
        handle.join().expect("motor-profile sampler panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_obs::TimeBucket;

    fn target_with_hot() -> (ProfTarget, Arc<IlHot>) {
        let registry = Arc::new(MetricsRegistry::new());
        registry.profile_start();
        let hot = Arc::new(IlHot::new(vec!["main".into(), "kernel".into()]));
        (
            ProfTarget {
                rank: 0,
                registry,
                hot: Some(Arc::clone(&hot)),
            },
            hot,
        )
    }

    #[test]
    fn sample_stamps_event_counter_and_folds_stack() {
        let (t, hot) = target_with_hot();
        let registry = Arc::clone(&t.registry);
        hot.on_call(0);
        hot.on_call(1);
        hot.at(1, 7);
        let mut core = SamplerCore::new(vec![t]);
        core.sample_once();
        let (folded, rounds) = core.finish();
        assert_eq!(rounds, 1);
        assert_eq!(folded.render(), "rank0;main;kernel 1\n");

        let snap = registry.snapshot();
        assert_eq!(snap.get(Metric::ProfSamples), 1);
        let ev = snap
            .events()
            .iter()
            .find(|e| e.kind == EventKind::ProfSample)
            .expect("prof_sample event");
        assert_eq!(ev.a, (2u64 << 32) | 7); // function 1 (+1) at pc 7
        assert_eq!(ev.b, TimeBucket::Compute as u64);
        assert_eq!(ev.c, 2); // two live frames
    }

    #[test]
    fn idle_and_waiting_samples_fold_to_bucket_tags() {
        let (t, hot) = target_with_hot();
        let registry = Arc::clone(&t.registry);
        let mut core = SamplerCore::new(vec![t]);
        // Idle interpreter: folds to the native bucket tag.
        core.sample_once();
        // In a comm-wait phase with live IL frames: bucket tag as leaf.
        hot.on_call(0);
        let scope = registry.phase_scope(TimeBucket::CommWait);
        core.sample_once();
        drop(scope);
        let (folded, _) = core.finish();
        assert_eq!(
            folded.render(),
            "rank0;[compute] 1\nrank0;main;[comm_wait] 1\n"
        );
    }

    #[test]
    fn sampler_thread_runs_and_stops() {
        let (t, hot) = target_with_hot();
        hot.on_call(0);
        let s = Sampler::spawn(vec![t], Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(10));
        let (folded, rounds) = s.stop();
        assert!(rounds >= 2, "expected multiple rounds, got {rounds}");
        assert!(folded.total() >= 2);
        assert!(folded.render().starts_with("rank0;main"));
    }
}
