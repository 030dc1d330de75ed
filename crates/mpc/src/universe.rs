//! The process universe: wiring, startup and MPI-2 dynamic process
//! management.
//!
//! The paper's Motor implements "selected MPI-2 functionality such as
//! dynamic process management and dynamic intercommunication routines"
//! (§7). In this reproduction an MPI *process* is an OS thread (each rank
//! owning its own VM instance at the Motor layer); the [`Universe`] is the
//! process-manager service: it creates devices, wires the full mesh of
//! links (in-process shared-memory rings or real TCP loopback), launches
//! rank bodies and supports spawning additional processes at runtime with
//! a parent↔children [`InterComm`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::channel::LinkState;
use crate::comm::Comm;
use crate::device::{Device, DeviceConfig};
use crate::error::{MpcError, MpcResult};
use crate::packet::Envelope;
use crate::progress::{ProgressEngine, ProgressMode};
use crate::request::{Request, Status};

/// Which PAL transport connects ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// In-process shared-memory rings (the `shm` channel).
    Shm,
    /// Real kernel TCP over loopback (the `sock` channel).
    Tcp,
}

/// Builds the link pair wiring global ranks `(a, b)` — `a`'s end first.
/// Lets a test harness substitute fault-injecting links (e.g. motor-sim's
/// `SimLink`) for the built-in shm/tcp channels without the universe
/// knowing anything about them.
pub type LinkFactory = Arc<dyn Fn(usize, usize) -> MpcResult<(LinkState, LinkState)> + Send + Sync>;

/// Universe construction parameters.
#[derive(Clone)]
pub struct UniverseConfig {
    /// Transport used between ranks.
    pub channel: ChannelKind,
    /// Per-direction ring capacity for the shm channel, in bytes.
    pub ring_capacity: usize,
    /// Device tuning.
    pub device: DeviceConfig,
    /// When set, overrides [`channel`](Self::channel): every link pair
    /// comes from this factory instead.
    pub link_factory: Option<LinkFactory>,
    /// Who besides the rank threads drives the devices. When left at the
    /// default (`Off`), the `MOTOR_PROGRESS` environment variable is
    /// consulted instead, so deployments can switch modes without a
    /// rebuild.
    pub progress: ProgressMode,
}

impl std::fmt::Debug for UniverseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniverseConfig")
            .field("channel", &self.channel)
            .field("ring_capacity", &self.ring_capacity)
            .field("device", &self.device)
            .field("link_factory", &self.link_factory.as_ref().map(|_| "<fn>"))
            .field("progress", &self.progress)
            .finish()
    }
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            channel: ChannelKind::Shm,
            ring_capacity: 256 * 1024,
            device: DeviceConfig::default(),
            link_factory: None,
            progress: ProgressMode::Off,
        }
    }
}

struct UniverseInner {
    config: UniverseConfig,
    /// Global rank → device.
    devices: Mutex<Vec<Arc<Device>>>,
    /// Context-id allocator (each allocation takes a pair).
    ctx_alloc: Arc<AtomicU32>,
    /// Join handles of dynamically spawned processes.
    children: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Resolved progress mode (config, else `MOTOR_PROGRESS`).
    progress: ProgressMode,
    /// Dedicated progress threads (mode `thread`; none otherwise).
    engine: ProgressEngine,
}

/// A universe of communicating processes.
#[derive(Clone)]
pub struct Universe {
    inner: Arc<UniverseInner>,
}

/// One process's view: its device, world communicator and (for spawned
/// processes) the parent intercommunicator.
pub struct Proc {
    universe: Universe,
    device: Arc<Device>,
    world: Comm,
    parent: Option<InterComm>,
}

impl Proc {
    /// The world communicator of this process group.
    pub fn world(&self) -> &Comm {
        &self.world
    }

    /// This process's global rank.
    pub fn global_rank(&self) -> usize {
        self.device.rank()
    }

    /// The universe (for dynamic spawning).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The parent intercommunicator, if this process was spawned
    /// dynamically (the `MPI_Comm_get_parent` analog).
    pub fn parent(&self) -> Option<&InterComm> {
        self.parent.as_ref()
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }
}

impl Universe {
    fn new(config: UniverseConfig) -> Universe {
        // An explicit mode wins; a config left at `Off` defers to
        // `MOTOR_PROGRESS` (mirrors the doctor's from_env fallback).
        let progress = match config.progress {
            ProgressMode::Off => ProgressMode::from_env(),
            explicit => explicit,
        };
        Universe {
            inner: Arc::new(UniverseInner {
                config,
                devices: Mutex::new(Vec::new()),
                // Context 0/1 belong to the world communicator.
                ctx_alloc: Arc::new(AtomicU32::new(2)),
                children: Mutex::new(Vec::new()),
                progress,
                engine: ProgressEngine::default(),
            }),
        }
    }

    fn make_link_pair(
        config: &UniverseConfig,
        a: usize,
        b: usize,
    ) -> MpcResult<(LinkState, LinkState)> {
        if let Some(factory) = &config.link_factory {
            return factory(a, b);
        }
        Ok(match config.channel {
            ChannelKind::Shm => {
                let (a, b) = motor_pal::link::shm_pair(config.ring_capacity);
                (LinkState::new(Box::new(a)), LinkState::new(Box::new(b)))
            }
            ChannelKind::Tcp => {
                let (a, b) = motor_pal::link::tcp_pair()?;
                (LinkState::new(Box::new(a)), LinkState::new(Box::new(b)))
            }
        })
    }

    /// Create `count` fresh devices, wire them to each other and to every
    /// existing device, register them, and return them with their global
    /// ranks.
    fn add_processes(&self, count: usize) -> MpcResult<Vec<Arc<Device>>> {
        let mut devices = self.inner.devices.lock();
        let base = devices.len();
        let mut fresh = Vec::with_capacity(count);
        for i in 0..count {
            fresh.push(Device::new(base + i, self.inner.config.device.clone()));
        }
        // New ↔ existing links.
        for (i, nd) in fresh.iter().enumerate() {
            for (g, od) in devices.iter().enumerate() {
                let (a, b) = Self::make_link_pair(&self.inner.config, base + i, g)?;
                nd.try_set_link(g, a)?;
                od.try_set_link(base + i, b)?;
            }
        }
        // New ↔ new links.
        for i in 0..count {
            for j in (i + 1)..count {
                let (a, b) = Self::make_link_pair(&self.inner.config, base + i, base + j)?;
                fresh[i].try_set_link(base + j, a)?;
                fresh[j].try_set_link(base + i, b)?;
            }
        }
        devices.extend(fresh.iter().cloned());
        // The mode's extra caller — including for dynamically spawned
        // processes, which get their engine thread the moment they are
        // wired.
        if self.inner.progress == ProgressMode::Thread {
            for nd in &fresh {
                self.inner.engine.attach(Arc::clone(nd));
            }
        }
        Ok(fresh)
    }

    /// Run an `n`-rank program with the default configuration: each rank
    /// body runs on its own OS thread with its world communicator.
    /// Panics in rank bodies are propagated.
    pub fn run<F>(n: usize, body: F) -> MpcResult<()>
    where
        F: Fn(Proc) + Send + Sync,
    {
        Self::run_with(n, UniverseConfig::default(), body)
    }

    /// [`Universe::run`] with explicit configuration.
    pub fn run_with<F>(n: usize, config: UniverseConfig, body: F) -> MpcResult<()>
    where
        F: Fn(Proc) + Send + Sync,
    {
        assert!(n >= 1, "a universe needs at least one process");
        let universe = Universe::new(config);
        let devices = universe.add_processes(n)?;
        let group = Arc::new((0..n).collect::<Vec<usize>>());
        let result: Result<(), Box<dyn std::any::Any + Send>> = crossbeam::thread::scope(|s| {
            let mut handles = Vec::new();
            for (rank, device) in devices.iter().enumerate() {
                let device = Arc::clone(device);
                let group = Arc::clone(&group);
                let universe = universe.clone();
                let body = &body;
                handles.push(s.spawn(move |_| {
                    let _exit = RankExit(&device);
                    // This thread posts, waits and pumps for the rank: the
                    // one writer of its registry unless an engine helps.
                    device.metrics().claim();
                    let world = Comm::assemble(
                        Arc::clone(&device),
                        0,
                        group,
                        rank,
                        Arc::clone(&universe.inner.ctx_alloc),
                    );
                    body(Proc {
                        universe,
                        device: Arc::clone(&device),
                        world,
                        parent: None,
                    });
                }));
            }
            for h in handles {
                h.join().expect("rank body panicked");
            }
        })
        .map(|_| ());
        // Join dynamically spawned children too.
        let children: Vec<_> = universe.inner.children.lock().drain(..).collect();
        for c in children {
            c.join().expect("spawned child panicked");
        }
        // Park-and-join the progress threads before the devices go away.
        universe.inner.engine.stop();
        result.map_err(|_| MpcError::Shutdown)?;
        Ok(())
    }

    /// MPI-2 dynamic process management: collectively spawn `count` new
    /// processes running `entry`. Every member of `comm` must call this;
    /// all members receive the parent↔children [`InterComm`]. The children
    /// receive a `Proc` whose world communicator spans the new processes
    /// and whose [`Proc::parent`] is the children↔parents intercomm.
    pub fn spawn_children<F>(&self, comm: &Comm, count: usize, entry: F) -> MpcResult<InterComm>
    where
        F: Fn(Proc) + Send + Sync + 'static,
    {
        assert!(count >= 1);
        // Root allocates ranks/contexts and launches threads; then shares
        // the coordinates with the other parents.
        // coords = [child_world_ctx, intercomm_ctx, child_base_rank, count]
        let mut coords = [0u32; 4];
        if comm.rank() == 0 {
            let child_world_ctx = comm.ctx_alloc().fetch_add(2, Ordering::Relaxed);
            let inter_ctx = comm.ctx_alloc().fetch_add(2, Ordering::Relaxed);
            let fresh = self.add_processes(count)?;
            let base = fresh[0].rank();
            coords = [child_world_ctx, inter_ctx, base as u32, count as u32];
            // Launch child threads.
            let child_group = Arc::new((base..base + count).collect::<Vec<usize>>());
            let parent_group = Arc::new(comm.group().as_ref().clone());
            let entry = Arc::new(entry);
            for (i, device) in fresh.into_iter().enumerate() {
                let child_group = Arc::clone(&child_group);
                let parent_group = Arc::clone(&parent_group);
                let entry = Arc::clone(&entry);
                let universe = self.clone();
                let ctx_alloc = Arc::clone(comm.ctx_alloc());
                let handle = std::thread::spawn(move || {
                    let _exit = RankExit(&device);
                    device.metrics().claim();
                    let world = Comm::assemble(
                        Arc::clone(&device),
                        child_world_ctx,
                        child_group,
                        i,
                        ctx_alloc,
                    );
                    let parent = InterComm {
                        device: Arc::clone(&device),
                        context: inter_ctx,
                        local_rank: i,
                        remote: parent_group,
                    };
                    entry(Proc {
                        universe,
                        device: Arc::clone(&device),
                        world,
                        parent: Some(parent),
                    });
                });
                self.inner.children.lock().push(handle);
            }
        }
        comm.bcast_slice(&mut coords, 0)?;
        let [_, inter_ctx, base, n] = coords;
        Ok(InterComm {
            device: Arc::clone(comm.device()),
            context: inter_ctx,
            local_rank: comm.rank(),
            remote: Arc::new((base as usize..base as usize + n as usize).collect()),
        })
    }

    /// Total processes ever created in this universe.
    pub fn world_size(&self) -> usize {
        self.inner.devices.lock().len()
    }
}

/// A rank thread's last act on its device, by return or by panic. A body
/// that returned drains: buffered eager sends complete when queued, so
/// frames may still be queued when it returns. A body that panicked only
/// finishes, so that no peer's drain waits for it.
struct RankExit<'a>(&'a Device);

impl Drop for RankExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.finish();
        } else {
            let _ = self.0.drain();
        }
    }
}

/// An intercommunicator: point-to-point communication with a *remote*
/// group (the MPI-2 `MPI_Comm_spawn` result).
pub struct InterComm {
    device: Arc<Device>,
    context: u32,
    local_rank: usize,
    /// Remote group: remote rank → global rank.
    remote: Arc<Vec<usize>>,
}

impl InterComm {
    /// Number of processes in the remote group.
    pub fn remote_size(&self) -> usize {
        self.remote.len()
    }

    /// This process's rank in its local group.
    pub fn local_rank(&self) -> usize {
        self.local_rank
    }

    fn envelope(&self, tag: i32) -> Envelope {
        Envelope {
            src: self.local_rank as u32,
            gsrc: self.device.rank() as u32,
            tag,
            context: self.context,
            len: 0,
            sreq: 0,
            flags: 0,
        }
    }

    /// Blocking send to a remote-group rank.
    pub fn send_bytes(
        &self,
        buf: &[u8],
        remote_rank: usize,
        tag: impl Into<crate::Tag>,
    ) -> MpcResult<()> {
        let g = *self
            .remote
            .get(remote_rank)
            .ok_or(MpcError::InvalidRank(remote_rank as i32))?;
        let tag = tag.into().to_device();
        // SAFETY: `buf` is borrowed across the wait below.
        let req: Request = unsafe {
            self.device
                .isend_raw(g, self.envelope(tag), buf.as_ptr(), buf.len(), false)?
        };
        self.device.wait_with(&req, || {})?;
        Ok(())
    }

    /// Blocking receive from a remote-group rank (or [`crate::Source::Any`]).
    pub fn recv_bytes(
        &self,
        buf: &mut [u8],
        remote_rank: impl Into<crate::Source>,
        tag: impl Into<crate::Tag>,
    ) -> MpcResult<Status> {
        let src = remote_rank.into().to_device();
        let tag = tag.into().to_device();
        // SAFETY: `buf` is borrowed across the wait below.
        let req = unsafe {
            self.device
                .irecv_raw(src, tag, self.context, buf.as_mut_ptr(), buf.len())?
        };
        let status = self.device.wait_with(&req, || {})?;
        if status.truncated {
            return Err(MpcError::Truncation {
                message: status.count,
                buffer: buf.len(),
            });
        }
        Ok(status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ANY_TAG;
    use crate::dtype::ReduceOp;
    use crate::source::Source;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn two_rank_pingpong_shm() {
        Universe::run(2, |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                world.send_slice(&[41i32], 1, 0).unwrap();
                let mut buf = [0i32];
                world.recv_slice(&mut buf, 1, 0).unwrap();
                assert_eq!(buf[0], 42);
            } else {
                let mut buf = [0i32];
                world.recv_slice(&mut buf, 0, 0).unwrap();
                world.send_slice(&[buf[0] + 1], 0, 0).unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn two_rank_pingpong_tcp() {
        let cfg = UniverseConfig {
            channel: ChannelKind::Tcp,
            ..Default::default()
        };
        Universe::run_with(2, cfg, |proc| {
            let world = proc.world();
            let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            if world.rank() == 0 {
                world.send_bytes(&data, 1, 7).unwrap();
            } else {
                let mut buf = vec![0u8; data.len()];
                let st = world.recv_bytes(&mut buf, 0, 7).unwrap();
                assert_eq!(st.count, data.len());
                assert_eq!(buf, data);
            }
        })
        .unwrap();
    }

    #[test]
    fn large_rendezvous_transfer_between_ranks() {
        Universe::run(2, |proc| {
            let world = proc.world();
            let n = 300_000usize;
            if world.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 240) as u8).collect();
                world.send_bytes(&data, 1, 1).unwrap();
            } else {
                let mut buf = vec![0u8; n];
                world.recv_bytes(&mut buf, 0, 1).unwrap();
                assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 240) as u8));
            }
        })
        .unwrap();
    }

    #[test]
    fn barrier_orders_phases() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        Universe::run(4, move |proc| {
            let world = proc.world();
            c.fetch_add(1, Ordering::SeqCst);
            world.barrier().unwrap();
            // After the barrier every rank must observe all 4 arrivals.
            assert_eq!(c.load(Ordering::SeqCst), 4);
        })
        .unwrap();
    }

    #[test]
    fn bcast_from_each_root() {
        Universe::run(5, |proc| {
            let world = proc.world();
            for root in 0..5usize {
                let mut buf = if world.rank() == root {
                    [root as i64 * 100 + 7]
                } else {
                    [0i64]
                };
                world.bcast_slice(&mut buf, root).unwrap();
                assert_eq!(buf[0], root as i64 * 100 + 7);
                world.barrier().unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn scatter_gather_roundtrip() {
        Universe::run(4, |proc| {
            let world = proc.world();
            let n = world.size();
            let root = 1usize;
            let send: Option<Vec<u8>> = if world.rank() == root {
                Some((0..(4 * n) as u8).collect())
            } else {
                None
            };
            let mut part = [0u8; 4];
            world
                .scatter_bytes(send.as_deref(), &mut part, root)
                .unwrap();
            let expect: Vec<u8> = (0..4u8).map(|i| (world.rank() * 4) as u8 + i).collect();
            assert_eq!(&part, expect.as_slice());
            // Transform and gather back.
            for b in part.iter_mut() {
                *b = b.wrapping_add(1);
            }
            let mut gathered = vec![0u8; 4 * n];
            let recv = if world.rank() == root {
                Some(&mut gathered[..])
            } else {
                None
            };
            world.gather_bytes(&part, recv, root).unwrap();
            if world.rank() == root {
                let expect: Vec<u8> = (0..(4 * n) as u8).map(|b| b.wrapping_add(1)).collect();
                assert_eq!(gathered, expect);
            }
        })
        .unwrap();
    }

    #[test]
    fn reduce_and_allreduce() {
        Universe::run(4, |proc| {
            let world = proc.world();
            let r = world.rank() as i64;
            let send = [r + 1, 10 * (r + 1)];
            let mut out = [0i64; 2];
            world
                .reduce_slice(
                    &send,
                    if world.rank() == 0 {
                        Some(&mut out[..])
                    } else {
                        None
                    },
                    ReduceOp::Sum,
                    0,
                )
                .unwrap();
            if world.rank() == 0 {
                assert_eq!(out, [10, 100]);
            }
            let mut all = [0i64; 2];
            world
                .allreduce_slice(&send, &mut all, ReduceOp::Max)
                .unwrap();
            assert_eq!(all, [4, 40]);
        })
        .unwrap();
    }

    #[test]
    fn allgather_ring() {
        Universe::run(5, |proc| {
            let world = proc.world();
            let mine = [world.rank() as u16; 3];
            let mut all = vec![0u16; 3 * world.size()];
            world
                .allgather_bytes(
                    crate::dtype::as_bytes(&mine),
                    crate::dtype::as_bytes_mut(&mut all),
                )
                .unwrap();
            for r in 0..world.size() {
                assert_eq!(&all[3 * r..3 * r + 3], [r as u16; 3]);
            }
        })
        .unwrap();
    }

    #[test]
    fn alltoall_exchanges_personalized_chunks() {
        Universe::run(3, |proc| {
            let world = proc.world();
            let n = world.size();
            // Rank r sends byte (10*r + dest) to each dest.
            let send: Vec<u8> = (0..n).map(|d| (10 * world.rank() + d) as u8).collect();
            let mut recv = vec![0u8; n];
            world.alltoall_bytes(&send, &mut recv, 1).unwrap();
            for (src, &got) in recv.iter().enumerate() {
                assert_eq!(got, (10 * src + world.rank()) as u8);
            }
        })
        .unwrap();
    }

    #[test]
    fn comm_dup_isolates_traffic() {
        Universe::run(2, |proc| {
            let world = proc.world();
            let dup = world.dup().unwrap();
            if world.rank() == 0 {
                // Same tag on both communicators; receivers must not mix.
                world.send_slice(&[1i32], 1, 9).unwrap();
                dup.send_slice(&[2i32], 1, 9).unwrap();
            } else {
                let mut a = [0i32];
                let mut b = [0i32];
                // Receive from the dup FIRST: only context keeps them apart.
                dup.recv_slice(&mut b, 0, 9).unwrap();
                world.recv_slice(&mut a, 0, 9).unwrap();
                assert_eq!((a[0], b[0]), (1, 2));
            }
        })
        .unwrap();
    }

    #[test]
    fn comm_split_into_halves() {
        Universe::run(4, |proc| {
            let world = proc.world();
            let color = (world.rank() % 2) as u32;
            let half = world.split(color, world.rank() as i32).unwrap();
            assert_eq!(half.size(), 2);
            // Ranks within the half follow the key order (== world order).
            let mut sum = [0i32];
            half.allreduce_slice(&[world.rank() as i32], &mut sum, ReduceOp::Sum)
                .unwrap();
            if color == 0 {
                assert_eq!(sum[0], 2);
            } else {
                assert_eq!(sum[0], 1 + 3);
            }
        })
        .unwrap();
    }

    #[test]
    fn any_source_any_tag_at_comm_level() {
        Universe::run(3, |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                let mut seen = [false; 3];
                for _ in 0..2 {
                    let mut buf = [0u8; 1];
                    let st = world.recv_bytes(&mut buf, Source::Any, ANY_TAG).unwrap();
                    assert_eq!(buf[0] as u32, st.source);
                    seen[st.source as usize] = true;
                }
                assert!(seen[1] && seen[2]);
            } else {
                world
                    .send_bytes(&[world.rank() as u8], 0, world.rank() as i32)
                    .unwrap();
            }
        })
        .unwrap();
    }

    #[test]
    fn probe_then_sized_receive() {
        Universe::run(2, |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                world.send_bytes(&[9u8; 77], 1, 3).unwrap();
            } else {
                let st = world.probe(Source::Any, ANY_TAG).unwrap();
                assert_eq!(st.count, 77);
                let mut buf = vec![0u8; st.count];
                world
                    .recv_bytes(&mut buf, st.source as usize, st.tag)
                    .unwrap();
                assert_eq!(buf, vec![9u8; 77]);
            }
        })
        .unwrap();
    }

    #[test]
    fn dynamic_spawn_with_intercomm() {
        Universe::run(2, |proc| {
            let world = proc.world();
            let inter = proc
                .universe()
                .spawn_children(world, 2, |child| {
                    let parent = child.parent().expect("spawned child has a parent");
                    assert_eq!(parent.remote_size(), 2);
                    // Child world works like any communicator.
                    let mut sum = [0i32];
                    child
                        .world()
                        .allreduce_slice(
                            &[child.world().rank() as i32 + 1],
                            &mut sum,
                            ReduceOp::Sum,
                        )
                        .unwrap();
                    assert_eq!(sum[0], 3);
                    // Report to the parent with the same local rank.
                    let payload = [child.world().rank() as u8 + 100];
                    parent
                        .send_bytes(&payload, child.world().rank(), 5)
                        .unwrap();
                })
                .unwrap();
            assert_eq!(inter.remote_size(), 2);
            // Parent r receives from child r.
            let mut buf = [0u8; 1];
            inter.recv_bytes(&mut buf, world.rank(), 5).unwrap();
            assert_eq!(buf[0], world.rank() as u8 + 100);
        })
        .unwrap();
    }

    #[test]
    fn progress_thread_mode_runs_universe() {
        let cfg = UniverseConfig {
            progress: ProgressMode::Thread,
            ..Default::default()
        };
        Universe::run_with(3, cfg, |proc| {
            let world = proc.world();
            let mut sum = [0i64];
            world
                .allreduce_slice(&[world.rank() as i64 + 1], &mut sum, ReduceOp::Sum)
                .unwrap();
            assert_eq!(sum[0], 6);
            // Large transfer exercises rendezvous under the engine.
            let n = 200_000usize;
            if world.rank() == 0 {
                let data: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
                world.send_bytes(&data, 1, 2).unwrap();
            } else if world.rank() == 1 {
                let mut buf = vec![0u8; n];
                world.recv_bytes(&mut buf, 0, 2).unwrap();
                assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8));
            }
        })
        .unwrap();
    }

    #[test]
    fn truncation_error_at_comm_level() {
        Universe::run(2, |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                world.send_bytes(&[1u8; 64], 1, 0).unwrap();
            } else {
                let mut small = [0u8; 8];
                let err = world.recv_bytes(&mut small, 0, 0).unwrap_err();
                assert!(matches!(err, MpcError::Truncation { .. }));
            }
        })
        .unwrap();
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        Universe::run(2, |proc| {
            let world = proc.world();
            let me = world.rank();
            let other = 1 - me;
            let send = [me as u8; 32];
            let mut recv = [0u8; 32];
            world
                .sendrecv_bytes(&send, other, &mut recv, other, 4)
                .unwrap();
            assert_eq!(recv, [other as u8; 32]);
        })
        .unwrap();
    }
}
