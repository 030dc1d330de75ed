//! The CH3-style device: matching, eager/rendezvous protocols, progress.
//!
//! Paper §6: MPICH2's "Abstract Device Interface (ADI), or device, layer
//! ... defines operations such as message queuing, packetizing, handling
//! heterogeneous communication and data transfer." This module is that
//! layer: it owns the posted-receive queue, the unexpected-message queue,
//! the envelope matcher (source/tag/context with wildcards, preserving
//! MPI's non-overtaking order; the source is a global rank, as is every
//! peer the device names; both queues are keyed, so a directed
//! receive or arrival costs one lookup at any depth — `matching.rs`), the
//! eager/rendezvous protocol state
//! machines, and the two things every caller above shares: the one
//! progress pass ([`Device::pass`]) that pumps every link and the one
//! wait loop (`Device::wait_until`) that blocks on it.
//!
//! The device works in *raw buffer windows* (`*mut u8` + length): callers
//! above — the native MPI layer, Motor's FCall layer, the wrapper
//! baselines — are responsible for the stability of those windows for the
//! lifetime of the operation. That contract is precisely what the paper's
//! pinning discussion is about.
//!
//! # The two rendezvous conversations
//!
//! A message over the eager threshold is announced, not sent: `isend_raw`
//! queues an RTS (the envelope) and keeps the window. What happens when
//! the RTS meets its receive depends on one thing only — whether the link
//! to the sender has a shared window table
//! ([`motor_pal::window`]; in-process shm links do, TCP, simulated and
//! wrapping links do not). No setting selects it, and both ends of a link
//! see the same answer.
//!
//! * **Streamed** (no table): RTS → CTS → data. The receiver registers
//!   the destination and replies CTS; the sender streams the window
//!   through the link (`OutItem::Raw`) and completes when the last byte
//!   has been handed to the transport; the receiver completes when the
//!   last byte has landed.
//! * **Single copy** (table): RTS → both ranks copy → FIN. The sender
//!   *exposed* its window before queueing the RTS; the receiver looks it
//!   up by `(link, sreq)` and pulls `min(len, cap)` bytes, and replies
//!   FIN — the `SyncAck(sreq)` frame, which already means "matched, done
//!   with your buffer". The copy is shared: a pull longer than one chunk
//!   publishes its destination in the sender's window entry, pokes the
//!   sender's waker, and copies chunks claimed from a shared cursor,
//!   while every [`Device::pass`] of the sender — its wait, its posts,
//!   its engine thread — claims and copies chunks of its own windows
//!   too (`Windows::help`): the sender waits for the FIN anyway, so it
//!   spends the wait on half the copy. A sender that never passes costs
//!   nothing; the receiver copies every chunk nobody claimed. The pull
//!   returns once every chunk is in, whoever copied it. The receive
//!   completes when the FIN is on the link (so a receiver that stops
//!   driving its device the moment its wait returns cannot strand the
//!   sender); the send completes when the FIN arrives. No address
//!   crosses the byte parser: the frames are the same five kinds, byte
//!   for byte, and one pull per message is counted (`RndvPulls`).
//!
//! **Window lifetime.** A window is readable from exposure until the
//! send's request completes *or fails*. The exposure lives in the
//! `PendingSend`, and every path that ends one — FIN, `fail_peer_ops`,
//! [`Device::finalize`], dropping the device — revokes (drops) it *before*
//! it completes, fails or forgets the request. Both copiers hold the
//! window's revoke lock shared across their copies and a revoke takes it
//! exclusive, so a revoke waits for every copy in progress and excludes
//! later ones, per window; a receive that matches a revoked window fails
//! with `PeerClosed` and reads nothing. The receiver's buffer is written
//! only until its pull returns: the pull waits for every chunk the sender
//! claimed before it queues the FIN ([`motor_pal::window`] has the
//! rules).
//!
//! # Locking model
//!
//! Each link has its **own** mutex, so two threads pumping different peers
//! never contend; the matching/protocol tables live in a single
//! `match_state` mutex. The link table is copy-on-write: an immutable
//! `Arc<[Option<Arc<LinkSlot>>]>` that wiring a link and dropping one
//! replace whole, behind an `RwLock` held only to clone or swap it.
//! Lock-order rules (deadlock freedom):
//!
//! 1. The links table guard is **transient**: clone the table (a pass) or
//!    one slot's `Arc` (a post), drop the guard, *then* lock a link.
//!    Never block on a link mutex while holding the table guard. Taking
//!    the guard *under* a link mutex or `match_state` is fine: no writer
//!    of the table holds either. A pass works from the table as it was
//!    when it started, so it may lock a link another thread has dropped
//!    since; the drop marks the slot under its mutex, and whoever locks
//!    a marked slot leaves it alone.
//! 2. `link → match_state` is allowed; `match_state → link` is forbidden.
//!    Handlers that must reply (CTS, sync-ack) return or defer frames and
//!    queue them after dropping `match_state`.
//! 3. At most one link mutex is held per thread at a time.
//! 4. No payload copy under `match_state`, and none under a link mutex:
//!    a single-copy pull is deferred like a reply frame and runs with no
//!    device lock held, and the sender's share of it runs in `pass`
//!    after the sweep's links are unlocked, so an engine thread is never
//!    parked behind a `memcpy`. The only lock held across either copy is
//!    the window's revoke lock, shared by the two copiers.
//!
//! # One pass, one wait
//!
//! Any thread may drive progress (who does: [`crate::progress`]), and all
//! of them call [`Device::pass`], differing only in the [`Caller`] they
//! hand it. A post does its own work and no more: a plain eager send
//! flushes its own link under the lock it queued the frame under and
//! pokes the peer; a rendezvous or synchronous send, a receive, and a
//! send whose flush failed end with a pass. Every blocking call above the
//! device (`wait`, `waitany`, `probe`, and the drain that ends a rank) is
//! `Device::wait_until`: a request that is already finished returns at
//! once, before any wait is recorded; otherwise pass, climb the backoff
//! ladder while nothing moves, then park on the device's [`Waker`] —
//! never sleep blind. Spinning and yielding laps never touch the waker;
//! a lap at the top counts itself as parked before its look and its pass
//! ([`Waker::prepare`]), then parks if neither found anything. Two things
//! notify that waker, in every progress mode: this device's own passes
//! that moved something, and a *peer's* pass that moved bytes through the
//! link the two share (written: we have input; consumed: we have room).
//! The peer finds it in the link pair's wake cells ([`motor_pal::poll`]),
//! where [`Device::set_link`] publishes it.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use motor_obs::trace::{rndv_ctl, MSG_RNDV_FLAG};
use motor_obs::{EventKind, Hist, Metric, MetricsRegistry, SpanKind};
use motor_pal::window::{Exposure, Windows};
use motor_pal::{Backoff, WakeCells, Waker};
use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::channel::{LinkState, PacketSink, RndvDest};
use crate::error::{MpcError, MpcResult};
use crate::matching::{Found, Key, KeyedQueue};
use crate::packet::{self, env_flags, Envelope, ENVELOPE_LEN};
use crate::progress::Caller;
use crate::request::{Request, RequestState, Status};

/// Wildcard source rank (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: i32 = crate::matching::ANY;
/// Wildcard tag (`MPI_ANY_TAG`).
pub const ANY_TAG: i32 = crate::matching::ANY;

/// Device tuning parameters.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Messages up to this many bytes use the eager protocol; larger ones
    /// rendezvous (MPICH2's `MPIDI_CH3_EAGER_MAX_MSG_SIZE` analog).
    pub eager_threshold: usize,
    /// Capacity of the metrics event-trace ring (overwrite-on-wrap; see
    /// [`MetricsRegistry::with_event_capacity`]).
    pub event_capacity: usize,
    /// Shared time epoch for event timestamps. Ranks in one address space
    /// should share an epoch so their traces merge without calibration;
    /// `None` gives the registry a private epoch.
    pub epoch: Option<std::time::Instant>,
    /// Backoff ladder of the wait loop (spin → yield → park on the
    /// device's waker). The benchmark harness (`universe_config` in
    /// `benchmark/src/harness.rs`) sets
    /// [`motor_pal::BackoffConfig::no_sleep`] so its waits never reach the
    /// sleeping tier; the simulator never waits on a device.
    pub wait_backoff: motor_pal::BackoffConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            eager_threshold: 64 * 1024,
            event_capacity: motor_obs::DEFAULT_EVENT_CAPACITY,
            epoch: None,
            wait_backoff: motor_pal::BackoffConfig::default(),
        }
    }
}

/// A posted (pending) receive.
struct PostedRecv {
    /// The sender's global rank, or [`ANY_SOURCE`].
    src: i32,
    tag: i32,
    context: u32,
    ptr: usize,
    cap: usize,
    req: Request,
}

impl PostedRecv {
    /// The pattern this receive is filed under.
    fn key(&self) -> Key {
        Key {
            context: self.context,
            src: self.src,
            tag: self.tag,
        }
    }
}

/// A message that arrived before its receive was posted.
enum Unexpected {
    /// Complete eager payload: `body[at..]`. `body` is the parser's own
    /// frame body (the envelope's bytes lead it), handed over, not copied.
    Eager {
        env: Envelope,
        body: Vec<u8>,
        at: usize,
    },
    /// A rendezvous announcement; data still on the sender.
    Rts { env: Envelope },
}

impl Unexpected {
    fn envelope(&self) -> &Envelope {
        match self {
            Unexpected::Eager { env, .. } | Unexpected::Rts { env } => env,
        }
    }
}

/// A send awaiting CTS (streamed rendezvous) or SyncAck (synchronous
/// eager; FIN of a single-copy rendezvous).
struct PendingSend {
    dst_global: usize,
    ptr: usize,
    len: usize,
    req: Request,
    /// The window's exposure on a link with a shared window table.
    /// Window-lifetime rule: whoever ends this send's obligation — by
    /// completing, failing or forgetting it — drops (revokes) this first.
    window: Option<Exposure>,
}

/// A matched rendezvous receive being streamed.
struct ActiveRecv {
    ptr: usize,
    cap: usize,
    env: Envelope,
    req: Request,
}

/// Work generated while matching under `match_state`, carried out once
/// every lock is dropped: reply frames, and the single-copy pull (lock
/// order rule 4).
enum Deferred {
    Frame {
        dst: usize,
        bytes: Vec<u8>,
    },
    RawWindow {
        dst: usize,
        header: Vec<u8>,
        ptr: usize,
        len: usize,
        done: Request,
    },
    /// The rendezvous announcement `env` met `recv` on a link with a
    /// shared window table: copy from the sender's window.
    Pull {
        windows: Windows,
        env: Envelope,
        recv: PostedRecv,
    },
}

/// The matching/protocol tables — everything except the links.
#[derive(Default)]
struct MatchState {
    /// Peers whose link died (index = global rank). Distinguishes "never
    /// wired" (`InvalidRank`) from "wired, then closed" (`PeerClosed`).
    dead: Vec<bool>,
    posted: KeyedQueue<PostedRecv>,
    unexpected: KeyedQueue<Unexpected>,
    pending_sends: HashMap<u64, PendingSend>,
    active_recvs: HashMap<u64, ActiveRecv>,
}

impl MatchState {
    fn is_dead(&self, peer: usize) -> bool {
        self.dead.get(peer).copied().unwrap_or(false)
    }

    /// Whether a receive or probe for global rank `src` that found nothing
    /// buffered can never be satisfied because that peer's link is gone,
    /// in whatever context it waits. A wildcard never is.
    fn awaits_dead_peer(&self, src: i32) -> bool {
        src >= 0 && self.is_dead(src as usize)
    }

    /// Remove the first posted receive `env` satisfies (post order:
    /// non-overtaking).
    fn take_posted(&mut self, env: &Envelope, metrics: &MetricsRegistry) -> Option<PostedRecv> {
        let (found, looked) = self.posted.first_accepting(envelope_key(env));
        charge_match(metrics, looked);
        found.map(|at| self.posted.remove(at))
    }

    /// Queue a receive nothing buffered matched.
    fn push_posted(&mut self, recv: PostedRecv, metrics: &MetricsRegistry) {
        self.posted.push(recv.key(), recv);
        metrics.bump(Metric::RecvsPosted);
        metrics.record_max(Metric::PostedQueuePeak, self.posted.len() as u64);
    }

    /// The first unexpected message (arrival order) a receive or probe for
    /// `(src, tag, context)` accepts — the one lookup both go through, so
    /// `MatchAttempts` means the same for either.
    fn find_unexpected(
        &self,
        src: i32,
        tag: i32,
        context: u32,
        metrics: &MetricsRegistry,
    ) -> Option<Found> {
        let (found, looked) = self.unexpected.first_accepted_by(Key { context, src, tag });
        charge_match(metrics, looked);
        found
    }

    /// Queue a message no posted receive matched.
    fn push_unexpected(&mut self, msg: Unexpected, metrics: &MetricsRegistry) {
        self.unexpected.push(envelope_key(msg.envelope()), msg);
        metrics.record_max(Metric::UnexpectedQueuePeak, self.unexpected.len() as u64);
    }
}

/// What a message is matched and filed under: its sender by global rank.
fn envelope_key(env: &Envelope) -> Key {
    Key {
        context: env.context,
        src: env.gsrc as i32,
        tag: env.tag,
    }
}

/// Charge `MatchAttempts` what a lookup looked at: buckets for a keyed
/// lookup, entries for a wildcard walk, nothing in an empty queue.
fn charge_match(metrics: &MetricsRegistry, looked: u64) {
    if looked != 0 {
        metrics.add(Metric::MatchAttempts, looked);
    }
}

thread_local! {
    /// The deferred-work list of this thread's passes, kept between them
    /// for its capacity.
    static DEFERRED: Cell<Vec<Deferred>> = const { Cell::new(Vec::new()) };
}

/// One wired peer: the link and, outside its mutex, the link's handles
/// on what its two ends share — the window table (so a pull never holds
/// the link lock) and the wake cells (so a poke never does).
struct LinkSlot {
    link: Mutex<LinkState>,
    /// Set under `link` by the pass that dropped this link; a pass that
    /// still holds an older table, or a post that cloned the slot before
    /// the drop, finds it set and leaves the link alone.
    dropped: AtomicBool,
    windows: Option<Windows>,
    wake: Option<WakeCells>,
}

impl LinkSlot {
    /// The link, locked, unless it has been dropped.
    fn lock(&self) -> Option<MutexGuard<'_, LinkState>> {
        let link = self.link.lock();
        (!self.dropped.load(Ordering::Relaxed)).then_some(link)
    }

    /// Wake whatever is parked at the link's other end.
    fn poke_peer(&self) {
        if let Some(wake) = &self.wake {
            wake.poke_peer();
        }
    }
}

/// The link table: one slot per global rank, replaced whole on change.
type Links = Arc<[Option<Arc<LinkSlot>>]>;

/// One process's message-passing device.
pub struct Device {
    rank: usize,
    /// Per-peer link slots, copy-on-write (module docs, rule 1): a pass
    /// clones the table once, a post clones its one slot; each link has
    /// its own mutex so concurrent senders to different peers never
    /// serialize.
    links: RwLock<Links>,
    /// Matching and protocol state, independent of any link lock.
    match_state: Mutex<MatchState>,
    next_req: AtomicU64,
    config: DeviceConfig,
    metrics: Arc<MetricsRegistry>,
    /// What waiters and engine threads park on: notified whenever any
    /// thread moves this device, or a peer moves bytes on a link to it.
    waker: Arc<Waker>,
}

impl Device {
    /// Create a device for global rank `rank` with no links.
    pub fn new(rank: usize, config: DeviceConfig) -> Arc<Device> {
        let metrics = Arc::new(MetricsRegistry::with_epoch(
            config.epoch.unwrap_or_else(std::time::Instant::now),
            config.event_capacity,
        ));
        Arc::new(Device {
            rank,
            links: RwLock::new(Arc::new([])),
            match_state: Mutex::new(MatchState::default()),
            next_req: AtomicU64::new(1),
            config,
            metrics,
            waker: Arc::new(Waker::default()),
        })
    }

    /// This device's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The per-rank metrics registry every transport layer reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The eager/rendezvous switchover point.
    pub fn eager_threshold(&self) -> usize {
        self.config.eager_threshold
    }

    /// Install the link to `peer` and tell the link's other end whom to
    /// wake when it moves bytes. Refuses — `Protocol`, nothing installed —
    /// a link whose two ends disagree about the window table: the end
    /// that sees one would pull windows the other never exposes, and every
    /// large receive from it would fail as `PeerClosed`. Whichever end is
    /// wired second sees the disagreement (through the pair's wake cells).
    pub fn try_set_link(&self, peer: usize, mut link: LinkState) -> MpcResult<()> {
        link.attach_metrics(Arc::clone(&self.metrics));
        link.set_peer(peer);
        let (windows, wake) = link.shared();
        if let Some(wake) = &wake {
            wake.publish(Arc::clone(&self.waker), windows.is_some());
            if wake
                .peer_windows()
                .is_some_and(|theirs| theirs != windows.is_some())
            {
                return Err(MpcError::Protocol(format!(
                    "the link between ranks {} and {peer} has a window table at one end only",
                    self.rank
                )));
            }
        }
        let mut links = self.links.write();
        let mut table = links.to_vec();
        if table.len() <= peer {
            table.resize_with(peer + 1, || None);
        }
        table[peer] = Some(Arc::new(LinkSlot {
            link: Mutex::new(link),
            dropped: AtomicBool::new(false),
            windows,
            wake,
        }));
        *links = table.into();
        Ok(())
    }

    /// [`Device::try_set_link`] for the two ends of a pair one constructor
    /// built, which agree by construction.
    ///
    /// # Panics
    /// If they do not (a wiring bug).
    pub fn set_link(&self, peer: usize, link: LinkState) {
        if let Err(e) = self.try_set_link(peer, link) {
            panic!("set_link: {e}");
        }
    }

    /// Number of link slots (== known universe size).
    pub fn link_count(&self) -> usize {
        self.links.read().len()
    }

    /// The waker this device's waiters and engine thread park on.
    pub fn waker(&self) -> &Waker {
        &self.waker
    }

    fn new_request(&self) -> Request {
        RequestState::new(self.next_req.fetch_add(1, Ordering::Relaxed))
    }

    /// Clone the slot `Arc` for `peer` under a transient table guard.
    fn slot(&self, peer: usize) -> Option<Arc<LinkSlot>> {
        self.links.read().get(peer)?.clone()
    }

    /// Take `slot`, just dropped, out of the table — unless the table has
    /// moved on (a new link to `peer` was wired meanwhile).
    fn unlink(&self, peer: usize, slot: &LinkSlot) {
        let mut links = self.links.write();
        let current = links.get(peer).and_then(Option::as_deref);
        if current.is_some_and(|s| std::ptr::eq(s, slot)) {
            let mut table = links.to_vec();
            table[peer] = None;
            *links = table.into();
        }
    }

    /// The window table shared with `peer`, if the link to it has one.
    /// This — what the link is, not any setting — selects the single-copy
    /// rendezvous; both ends of a link see the same answer.
    fn windows_to(&self, peer: usize) -> Option<Windows> {
        self.slot(peer)?.windows.clone()
    }

    /// Run `f` on the link to `dst` under its lock, with the legacy
    /// error surface: dead peer → `PeerClosed`, never wired →
    /// `InvalidRank`. `f` also gets the slot, to poke the peer with once
    /// the lock is dropped.
    fn on_link<T>(
        &self,
        dst: usize,
        f: impl FnOnce(MutexGuard<'_, LinkState>, &LinkSlot) -> T,
    ) -> MpcResult<T> {
        let slot = self.slot(dst);
        if let Some(slot) = &slot {
            if let Some(link) = slot.lock() {
                return Ok(f(link, slot));
            }
        }
        if slot.is_some() || self.match_state.lock().is_dead(dst) {
            Err(MpcError::PeerClosed(dst))
        } else {
            Err(MpcError::InvalidRank(dst as i32))
        }
    }

    /// Queue a control frame on the link to `dst`.
    fn queue_frame_on_link(&self, dst: usize, bytes: Vec<u8>) -> MpcResult<()> {
        self.on_link(dst, |mut link, _| link.queue_bytes(bytes))
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Start a send. `env` must carry this sender's comm rank, global rank,
    /// tag, context and `len`.
    ///
    /// Eager messages are copied into the frame immediately (the request
    /// completes as soon as that copy is queued — buffered semantics, as in
    /// MPICH2's eager path). Rendezvous messages keep the raw window: it
    /// is exposed for the receiver to copy from where the link has a
    /// window table, and streamed after CTS where it has none.
    ///
    /// # Safety
    /// The window `(ptr, len)` must stay valid **and stable** (no GC
    /// movement, no free) until the returned request completes — the
    /// pinning obligation of paper §2.3.
    pub unsafe fn isend_raw(
        &self,
        dst_global: usize,
        mut env: Envelope,
        ptr: *const u8,
        len: usize,
        synchronous: bool,
    ) -> MpcResult<Request> {
        let req = self.new_request();
        env.len = len as u64;
        env.sreq = req.id();
        if synchronous {
            env.flags |= env_flags::SYNC;
        }
        let use_eager = len <= self.config.eager_threshold;
        // SAFETY: caller guarantees the window for the operation lifetime;
        // for the eager path we only borrow it for the copy below.
        let data = unsafe { std::slice::from_raw_parts(ptr, len) };

        if dst_global == self.rank {
            self.metrics.event_at_edge(
                EventKind::MsgSend,
                dst_global as u64,
                env.tag as i64 as u64,
                len as u64,
            );
            self.send_to_self(env, data, &req);
            return Ok(req);
        }
        // Stamp the send initiation for cross-rank edge matching — with
        // the reading of the operation that is starting it, if one is —
        // the high bit of the byte count marks the rendezvous path.
        self.metrics.event_at_edge(
            EventKind::MsgSend,
            dst_global as u64,
            env.tag as i64 as u64,
            len as u64 | if use_eager { 0 } else { MSG_RNDV_FLAG },
        );

        // Register completion-awaiting state *before* the frame is queued:
        // with an engine thread pumping concurrently, the CTS or SyncAck
        // reply can race back before this thread takes another lock. For
        // the same reason a rendezvous window is exposed first: the
        // receiver may pull the moment the RTS is on the link.
        if !use_eager || synchronous {
            let window = match self.windows_to(dst_global) {
                // SAFETY: the caller keeps the window valid and unwritten
                // until `req` completes or fails, and every path that
                // ends a `PendingSend` revokes before it does either.
                Some(w) if !use_eager => Some(unsafe { w.expose(env.sreq, ptr, len) }),
                _ => None,
            };
            let mut ms = self.match_state.lock();
            if ms.is_dead(dst_global) {
                return Err(MpcError::PeerClosed(dst_global));
            }
            ms.pending_sends.insert(
                env.sreq,
                PendingSend {
                    dst_global,
                    ptr: ptr as usize,
                    len,
                    req: Arc::clone(&req),
                    window,
                },
            );
        } else if self.match_state.lock().is_dead(dst_global) {
            return Err(MpcError::PeerClosed(dst_global));
        }

        // A plain eager send is finished once its frame is queued: it
        // flushes its own link under the lock it queued under and pokes
        // the peer, and runs no pass. Whatever awaits an answer (an RTS, a
        // synchronous send), and a flush that failed, ends with the pass.
        let flush_own = use_eager && !synchronous;
        let queued = self.on_link(dst_global, |mut link, slot| {
            if use_eager {
                link.queue_eager(&env, data)
            } else {
                link.queue_bytes(packet::encode_rts(&env))
            }
            let flushed = flush_own.then(|| link.pump_out());
            drop(link);
            if let Some(Ok(true)) = flushed {
                slot.poke_peer();
                self.metrics.note_progress();
            }
            flushed
        });
        let flushed = match queued {
            Ok(flushed) => flushed,
            Err(e) => {
                self.match_state.lock().pending_sends.remove(&env.sreq);
                return Err(e);
            }
        };
        if use_eager {
            self.metrics.bump(Metric::SendsEager);
            if synchronous {
                self.metrics.bump(Metric::SendsSync);
            }
            self.metrics.record(Hist::EagerSendBytes, len as u64);
            if !synchronous {
                // Buffer handed off; MPI send-completion semantics met.
                req.complete();
            }
        } else {
            self.metrics.bump(Metric::SendsRndv);
            self.metrics.record(Hist::RndvSendBytes, len as u64);
            self.metrics.event3(
                EventKind::RndvRts,
                env.sreq,
                len as u64,
                rndv_ctl(dst_global, true),
            );
        }
        if !matches!(flushed, Some(Ok(_))) {
            self.pass(Caller::Rank);
        }
        Ok(req)
    }

    /// Self-send: deliver without touching any link.
    fn send_to_self(&self, env: Envelope, data: &[u8], req: &Request) {
        self.metrics.bump(Metric::SendsSelf);
        let mut ms = self.match_state.lock();
        match ms.take_posted(&env, &self.metrics) {
            Some(p) => self.deliver(&env, data, &p),
            // Buffer a copy, as the eager path would.
            None => {
                let (body, at) = (data.to_vec(), 0);
                ms.push_unexpected(Unexpected::Eager { env, body, at }, &self.metrics);
            }
        }
        req.complete();
        drop(ms);
        self.waker.notify();
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Post a receive into the raw window `(ptr, cap)` for a message from
    /// global rank `src` (or [`ANY_SOURCE`]) in `context`: the device
    /// names every peer by global rank, sends and receives alike. A
    /// receive from a peer whose link is gone fails with `PeerClosed` in
    /// every context; a wildcard receive stays posted.
    ///
    /// # Safety
    /// The window must stay valid **and stable** until the returned
    /// request completes (see [`Device::isend_raw`]).
    pub unsafe fn irecv_raw(
        &self,
        src: i32,
        tag: i32,
        context: u32,
        ptr: *mut u8,
        cap: usize,
    ) -> MpcResult<Request> {
        let req = self.new_request();
        let posted = PostedRecv {
            src,
            tag,
            context,
            ptr: ptr as usize,
            cap,
            req: Arc::clone(&req),
        };
        // Reply frame (sync-ack or CTS) or pull generated while matching;
        // carried out after `match_state` drops (lock order rules 2, 4).
        let mut reply: Option<Deferred> = None;
        let mut ms = self.match_state.lock();
        // Unexpected queue first, preserving arrival order (non-overtaking).
        let buffered = ms
            .find_unexpected(src, tag, context, &self.metrics)
            .map(|at| ms.unexpected.remove(at));
        if buffered.is_some() {
            self.metrics.bump(Metric::RecvsUnexpected);
        }
        match buffered {
            Some(Unexpected::Eager { env, body, at }) => {
                if env.is_sync() && env.gsrc as usize != self.rank {
                    reply = Some(Deferred::Frame {
                        dst: env.gsrc as usize,
                        bytes: packet::encode_sync_ack(env.sreq),
                    });
                }
                self.deliver(&env, &body[at..], &posted);
            }
            Some(Unexpected::Rts { env }) => reply = Some(self.match_rts(&mut ms, env, posted)),
            None => {
                if ms.awaits_dead_peer(src) {
                    return Err(MpcError::PeerClosed(src as usize));
                }
                ms.push_posted(posted, &self.metrics);
            }
        }
        drop(ms);
        if let Some(d) = reply {
            self.run_deferred(d)?;
        }
        self.pass(Caller::Rank);
        Ok(req)
    }

    /// Complete the receive `p` with an eager payload: copy into its
    /// window, flag truncation, stamp `MsgRecv` — now, or with the reading
    /// of the receive that found it buffered if that is only just starting
    /// (a pass's deliveries always read the clock: the pass ended any
    /// edge).
    fn deliver(&self, env: &Envelope, data: &[u8], p: &PostedRecv) {
        let n = data.len().min(p.cap);
        // SAFETY: a `PostedRecv` is only ever built by `irecv_raw`, whose
        // caller guarantees the window valid and stable until `p.req`
        // completes — which it does below, after the copy.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), p.ptr as *mut u8, n);
        }
        if data.len() > p.cap {
            p.req.mark_truncated();
        }
        self.metrics.event_at_edge(
            EventKind::MsgRecv,
            env.gsrc as u64,
            env.tag as i64 as u64,
            n as u64,
        );
        p.req.complete_with(env.src, env.tag, n);
    }

    /// A rendezvous announcement met its receive. Returns what the caller
    /// carries out after dropping `match_state`: on a link with a shared
    /// window table the pull; otherwise the CTS reply, with the stream's
    /// destination registered here. Always a remote sender: self-sends
    /// never announce, `send_to_self` delivers or buffers them.
    fn match_rts(&self, ms: &mut MatchState, env: Envelope, p: PostedRecv) -> Deferred {
        if env.len as usize > p.cap {
            p.req.mark_truncated();
        }
        let gsrc = env.gsrc as usize;
        if let Some(windows) = self.windows_to(gsrc) {
            return Deferred::Pull {
                windows,
                env,
                recv: p,
            };
        }
        let rreq = p.req.id();
        ms.active_recvs.insert(
            rreq,
            ActiveRecv {
                ptr: p.ptr,
                cap: p.cap,
                env,
                req: p.req,
            },
        );
        self.metrics
            .event3(EventKind::RndvCts, env.sreq, env.len, rndv_ctl(gsrc, true));
        Deferred::Frame {
            dst: gsrc,
            bytes: packet::encode_cts(env.sreq, rreq),
        }
    }

    /// Carry out one [`Deferred`]. No lock is held on entry.
    fn run_deferred(&self, d: Deferred) -> MpcResult<()> {
        match d {
            Deferred::Frame { dst, bytes } => self.queue_frame_on_link(dst, bytes),
            Deferred::RawWindow {
                dst,
                header,
                ptr,
                len,
                done,
            } => {
                let slot = self.slot(dst);
                if let Some(mut link) = slot.as_deref().and_then(LinkSlot::lock) {
                    link.queue_bytes(header);
                    link.queue_raw(ptr as *const u8, len, Some(done));
                } else {
                    // The CTS arrived but the peer died before the data
                    // window could be queued: fail rather than silently
                    // dropping the request into a hang.
                    done.fail(dst);
                }
                Ok(())
            }
            Deferred::Pull { windows, env, recv } => {
                self.pull(&windows, &env, recv);
                Ok(())
            }
        }
    }

    /// The single-copy rendezvous, receiver side: the copy from the
    /// sender's exposed window into `recv`'s, shared with the sender's
    /// passes and complete when this returns, then the FIN — the
    /// `SyncAck(sreq)` frame, "matched, done with your buffer" — whose
    /// departure completes `recv.req` (no stranded FIN: see
    /// [`LinkState::queue_bytes_completing`]). A window that is gone —
    /// the sender failed, finalised or dropped — fails the receive with
    /// `PeerClosed` and nothing is read.
    fn pull(&self, windows: &Windows, env: &Envelope, recv: PostedRecv) {
        let gsrc = env.gsrc as usize;
        let Some(slot) = self.slot(gsrc) else {
            recv.req.fail(gsrc);
            return;
        };
        // SAFETY: `recv` was built by `irecv_raw`, whose caller keeps the
        // window valid until `recv.req` completes — after this call, which
        // returns once every chunk is in, whoever copied it; the two
        // windows are distinct live buffers of two ranks. Publishing the
        // destination wakes the sender to help.
        let pulled =
            unsafe { windows.pull(env.sreq, recv.ptr as *mut u8, recv.cap, || slot.poke_peer()) };
        let Some(total) = pulled else {
            recv.req.fail(gsrc);
            return;
        };
        let n = total.min(recv.cap);
        self.metrics.bump(Metric::RndvPulls);
        self.metrics.bump(Metric::RndvDone);
        self.metrics.event3(
            EventKind::RndvDone,
            env.sreq,
            total as u64,
            rndv_ctl(gsrc, true),
        );
        self.metrics.event3(
            EventKind::MsgRecv,
            gsrc as u64,
            env.tag as i64 as u64,
            n as u64 | MSG_RNDV_FLAG,
        );
        recv.req.set_status(env.src, env.tag, n);
        let fin = packet::encode_sync_ack(env.sreq);
        match slot.lock() {
            Some(mut link) => link.queue_bytes_completing(fin, recv.req),
            None => recv.req.fail(gsrc),
        };
    }

    // ------------------------------------------------------------------
    // Probe
    // ------------------------------------------------------------------

    /// Status of the first unexpected message from global rank `src` (or
    /// [`ANY_SOURCE`]) matching, without consuming it and without driving
    /// progress. Like a receive, a probe for a peer whose link is gone
    /// (and that left nothing buffered) fails with `PeerClosed`.
    pub(crate) fn peek(&self, src: i32, tag: i32, context: u32) -> MpcResult<Option<Status>> {
        let ms = self.match_state.lock();
        match ms.find_unexpected(src, tag, context, &self.metrics) {
            Some(at) => {
                let e = ms.unexpected.get(at).envelope();
                Ok(Some(Status {
                    source: e.src,
                    tag: e.tag,
                    count: e.len as usize,
                    truncated: false,
                }))
            }
            None if ms.awaits_dead_peer(src) => Err(MpcError::PeerClosed(src as usize)),
            None => Ok(None),
        }
    }

    /// Non-blocking probe: one pass, then a look at the unexpected queue.
    pub fn iprobe(&self, src: i32, tag: i32, context: u32) -> MpcResult<Option<Status>> {
        self.pass(Caller::Rank);
        self.peek(src, tag, context)
    }

    // ------------------------------------------------------------------
    // The progress pass
    // ------------------------------------------------------------------

    /// The one progress hook. A sweep pumps every link — flush its
    /// outgoing queue, parse what came in, run the protocol handlers —
    /// then carries out what the handlers deferred and copies chunks of
    /// this rank's windows that a receiver is pulling; `caller` says how
    /// many sweeps are chained while work moves and whose work it is.
    /// Returns whether anything moved.
    ///
    /// Moving bytes through a link, in either direction, wakes whatever is
    /// parked at its other end. A link whose transport fails, or whose
    /// peer sends what is not a frame, is dropped and every operation
    /// bound to it fails with `PeerClosed`; the other links carry on.
    pub fn pass(&self, caller: Caller) -> bool {
        // Time passes in a pass: what it delivers is stamped afresh, not
        // with the reading of the operation that called it.
        motor_obs::expire_edge();
        let t0 = (caller == Caller::Engine).then(|| self.metrics.now_nanos());
        let mut moved_any = false;
        let mut completions = 0u64;
        let mut deferred = DEFERRED.take();
        // Rule 1: one table clone for the whole pass, no guard held while
        // a link is locked.
        let links = self.links.read().clone();
        for _ in 0..caller.max_sweeps() {
            self.metrics.bump(Metric::ProgressPolls);
            let mut moved = false;
            for (peer, slot) in links.iter().enumerate() {
                if let Some(slot) = slot {
                    moved |= self.pump(peer, slot, &mut deferred, &mut completions);
                }
            }
            // Carry out what the handlers deferred: reply frames, pulls.
            for d in deferred.drain(..) {
                completions += matches!(d, Deferred::Pull { .. }) as u64;
                // A reply to a peer that died meanwhile has nowhere to go.
                let _ = self.run_deferred(d);
                moved = true;
            }
            // Copy chunks of our own windows that a receiver is pulling
            // (rule 4): one relaxed load per shm link when none is.
            for windows in links.iter().flatten().filter_map(|s| s.windows.as_ref()) {
                moved |= windows.help();
            }
            if !moved {
                break;
            }
            moved_any = true;
        }
        DEFERRED.set(deferred);
        if moved_any {
            self.metrics.note_progress();
            self.waker.notify();
        }
        if let Some(t0) = t0 {
            if completions > 0 {
                self.metrics.add(Metric::ProgressOpsCompleted, completions);
                self.metrics.record(Hist::ProgressBatch, completions);
            }
            let spent = self.metrics.now_nanos().saturating_sub(t0);
            self.metrics.add(Metric::ProgressEngineNanos, spent);
        }
        moved_any
    }

    /// Flush and parse one link, running the protocol handlers on what
    /// came in. Returns whether anything moved. A link whose transport
    /// fails, or whose peer sends what is not a frame, is dropped: marked,
    /// taken out of the table, and every operation bound to it failed with
    /// `PeerClosed`, so waiters surface the error instead of spinning for
    /// ever. A slot already dropped — this pass started from an older
    /// table — is left alone.
    fn pump(
        &self,
        peer: usize,
        slot: &LinkSlot,
        deferred: &mut Vec<Deferred>,
        completions: &mut u64,
    ) -> bool {
        let Some(mut link) = slot.lock() else {
            return false;
        };
        let out = link.pump_out();
        let mut sink = DeviceSink {
            dev: self,
            deferred,
            completions,
        };
        let inn = link.pump_in(&mut sink);
        if let (Ok(wrote), Ok(read)) = (out, inn) {
            drop(link);
            if wrote | read {
                slot.poke_peer();
            }
            return wrote | read;
        }
        // That includes windows still queued on the link (post-CTS data
        // left `pending_sends`; only the channel queue knows them).
        slot.dropped.store(true, Ordering::Relaxed);
        for req in link.take_undelivered_reqs() {
            req.fail(peer);
        }
        drop(link);
        self.unlink(peer, slot);
        self.fail_peer_ops(&mut self.match_state.lock(), peer);
        true
    }

    /// Tear down everything that depended on the now-dead link to `peer`:
    /// mark the peer dead and fail every in-flight operation bound to it,
    /// posted receives from it in every context included. Wildcard
    /// receives stay posted — another peer, or this rank, may still
    /// satisfy them.
    fn fail_peer_ops(&self, ms: &mut MatchState, peer: usize) {
        if ms.dead.len() <= peer {
            ms.dead.resize(peer + 1, false);
        }
        if !ms.dead[peer] {
            ms.dead[peer] = true;
            self.metrics.bump(Metric::LinksDropped);
        }
        ms.pending_sends.retain(|_, ps| {
            if ps.dst_global == peer {
                // Revoke first: a failed request frees its buffer.
                ps.window = None;
                ps.req.fail(peer);
                false
            } else {
                true
            }
        });
        ms.active_recvs.retain(|_, ar| {
            if ar.env.gsrc as usize == peer {
                ar.req.fail(peer);
                false
            } else {
                true
            }
        });
        ms.posted
            .retain(|p| p.src != peer as i32, |p| p.req.fail(peer));
    }

    // ------------------------------------------------------------------
    // The wait
    // ------------------------------------------------------------------

    /// The one wait loop: drive progress until `ready` yields, invoking
    /// `yield_poll` each lap — the hook where Motor parks for pending
    /// collections and where the native baseline does nothing. `what`
    /// names the wait in its `DeviceWait` span (a request id, or 0).
    ///
    /// While passes move nothing the wait climbs the backoff ladder: spin,
    /// then yield, then park on the device waker, counted as parked
    /// before the lap's look so that nothing it misses is lost. What cuts
    /// the park short is what it can be waiting for: a completion driven
    /// by another thread, or a peer that moved bytes on a link to this
    /// device; the quantum only bounds a wake-up that never comes. A
    /// wake-up sends the wait back to the bottom of the ladder.
    ///
    /// What is already finished costs no wait: `ready` is asked once
    /// first, and only if it says no does the `DeviceWait` span open —
    /// and the ladder, and the first `yield_poll`.
    pub(crate) fn wait_until<T>(
        &self,
        what: u64,
        mut ready: impl FnMut() -> MpcResult<Option<T>>,
        mut yield_poll: impl FnMut(),
    ) -> MpcResult<T> {
        if let Some(got) = ready()? {
            return Ok(got);
        }
        let wait = self.metrics.span(SpanKind::DeviceWait, what);
        let mut backoff = Backoff::with_config(self.config.wait_backoff);
        loop {
            yield_poll();
            // At the top of the ladder, counted as parked before this
            // lap's look, so a change the look misses wakes the park; an
            // early return or an error cancels.
            let parking = backoff
                .park_quantum()
                .map(|quantum| (self.waker.prepare(), quantum));
            if let Some(got) = ready()? {
                self.metrics.record(Hist::WaitNanos, wait.finish());
                return Ok(got);
            }
            if self.pass(Caller::Rank) {
                wait.heartbeat();
                backoff.reset();
                continue;
            }
            match parking {
                None => backoff.snooze(),
                Some((parking, quantum)) => {
                    if parking.park(quantum) {
                        backoff.reset();
                    }
                }
            }
        }
    }

    /// Drive progress until `req` completes: the wait loop on its outcome.
    pub fn wait_with(&self, req: &Request, yield_poll: impl FnMut()) -> MpcResult<Status> {
        self.wait_until(req.id(), || req.outcome(), yield_poll)
    }

    /// The `MPI_Finalize`-style drain a rank performs when its body
    /// returns: the wait loop until no live link has outgoing data queued,
    /// then every link's peer is told this end is finished. Buffered eager
    /// sends complete as soon as the copy is queued on the channel, so
    /// frames can still sit in an outgoing queue — behind a peer's full
    /// ring, a socket under backpressure, a trickling simulated wire —
    /// when the body returns, and once this thread stops nobody else
    /// pumps them. Between passes that move nothing the drain parks like
    /// any wait; the peer's pass that makes room wakes it.
    ///
    /// A peer that has finished reads nothing more: its link ends the
    /// wait, and what is still queued to it is dropped with the device.
    pub fn drain(&self) -> MpcResult<()> {
        let drained = self.wait_until(0, || Ok((!self.owes_output()).then_some(())), || {});
        self.finish();
        drained
    }

    /// Tell every peer this end is finished: nothing queued to it is read
    /// any more, so no peer's drain waits for it. The end of
    /// [`Device::drain`], and all a rank whose body panicked does: pumping
    /// then could read send windows in memory the unwinding has freed.
    pub(crate) fn finish(&self) {
        let links = self.links.read().clone();
        for wake in links.iter().flatten().filter_map(|slot| slot.wake.as_ref()) {
            wake.finish();
        }
    }

    /// Whether a live link to a peer that has not finished still has
    /// outgoing data queued.
    fn owes_output(&self) -> bool {
        let links = self.links.read().clone();
        links.iter().flatten().any(|slot| {
            !slot.wake.as_ref().is_some_and(WakeCells::peer_finished)
                && slot.lock().is_some_and(|link| link.has_pending_out())
        })
    }

    /// What a rank does before the memory its operations point into goes
    /// away (its heap, at the end of its body): [`Device::drain`], then
    /// end every operation still awaiting its peer. Their requests never
    /// complete; nobody is left to wait on them. Sends: revoke the window,
    /// forget the send — a receive that matches one afterwards fails with
    /// `PeerClosed` where windows are pulled, a late CTS finds no send and
    /// is ignored. Receives: forget the posted and the matched ones and
    /// cut off a stream already landing — a late eager frame or RTS goes
    /// to the unexpected queue, late rendezvous data is read and dropped,
    /// never written through the stale pointer.
    pub fn finalize(&self) -> MpcResult<()> {
        let drained = self.drain();
        let mut ms = self.match_state.lock();
        let forgotten = (
            std::mem::take(&mut ms.pending_sends),
            std::mem::take(&mut ms.posted),
            std::mem::take(&mut ms.active_recvs),
        );
        drop(ms);
        drop(forgotten);
        // With `active_recvs` empty no stream finds a destination any
        // more; the ones that already have are cut off here.
        let links = self.links.read().clone();
        for mut link in links.iter().flatten().filter_map(|slot| slot.lock()) {
            link.discard_stream();
        }
        drained
    }

    /// Test without blocking; returns the status if complete.
    pub fn test(&self, req: &Request) -> MpcResult<Option<Status>> {
        if let Some(st) = req.outcome()? {
            return Ok(Some(st));
        }
        self.pass(Caller::Rank);
        req.outcome()
    }

    /// Diagnostics: lengths of the device queues
    /// `(posted, unexpected, pending_sends, active_recvs)`.
    pub fn queue_depths(&self) -> (usize, usize, usize, usize) {
        let ms = self.match_state.lock();
        (
            ms.posted.len(),
            ms.unexpected.len(),
            ms.pending_sends.len(),
            ms.active_recvs.len(),
        )
    }
}

/// The packet handler wired into each link pump. Called with one link
/// mutex held; takes `match_state` internally per callback (lock order
/// rule 2: link → match_state).
struct DeviceSink<'a> {
    dev: &'a Device,
    deferred: &'a mut Vec<Deferred>,
    /// Requests completed by this pump pass (the engine's throughput
    /// gauge and batch-size sample).
    completions: &'a mut u64,
}

impl DeviceSink<'_> {
    /// An eager message arrived, its data `body[at..]`: deliver it to the
    /// receive posted for it and give `body` back, or keep `body` as the
    /// unexpected message's buffer and give back an empty one.
    fn eager_arrived(&mut self, env: Envelope, body: Vec<u8>, at: usize) -> Vec<u8> {
        let dev = self.dev;
        let mut ms = dev.match_state.lock();
        let Some(p) = ms.take_posted(&env, &dev.metrics) else {
            ms.push_unexpected(Unexpected::Eager { env, body, at }, &dev.metrics);
            return Vec::new();
        };
        if env.is_sync() {
            self.deferred.push(Deferred::Frame {
                dst: env.gsrc as usize,
                bytes: packet::encode_sync_ack(env.sreq),
            });
        }
        dev.deliver(&env, &body[at..], &p);
        *self.completions += 1;
        body
    }
}

impl PacketSink for DeviceSink<'_> {
    /// For a caller that has only borrowed the data (the link parser hands
    /// its body over instead).
    fn on_eager(&mut self, env: Envelope, data: &[u8]) {
        self.eager_arrived(env, data.to_vec(), 0);
    }

    /// What the link parser calls: an unmatched message keeps the parser's
    /// frame body as its buffer, and the parser starts a new one.
    fn on_eager_owned(&mut self, env: Envelope, body: Vec<u8>) -> Vec<u8> {
        self.eager_arrived(env, body, ENVELOPE_LEN)
    }

    fn on_rts(&mut self, env: Envelope) {
        let dev = self.dev;
        dev.metrics.bump(Metric::RndvRtsIn);
        dev.metrics.event3(
            EventKind::RndvRts,
            env.sreq,
            env.len,
            rndv_ctl(env.gsrc as usize, false),
        );
        let mut ms = dev.match_state.lock();
        match ms.take_posted(&env, &dev.metrics) {
            Some(p) => self.deferred.push(dev.match_rts(&mut ms, env, p)),
            None => ms.push_unexpected(Unexpected::Rts { env }, &dev.metrics),
        }
    }

    fn on_cts(&mut self, sreq: u64, rreq: u64) {
        self.dev.metrics.bump(Metric::RndvCtsIn);
        let ps = match self.dev.match_state.lock().pending_sends.remove(&sreq) {
            Some(p) => p,
            None => return, // duplicate CTS; ignore
        };
        self.dev.metrics.event3(
            EventKind::RndvCts,
            sreq,
            ps.len as u64,
            rndv_ctl(ps.dst_global, false),
        );
        debug_assert_ne!(ps.dst_global, self.dev.rank, "self-sends bypass the wire");
        self.deferred.push(Deferred::RawWindow {
            dst: ps.dst_global,
            header: packet::encode_rndv_data_header(rreq, ps.len),
            ptr: ps.ptr,
            len: ps.len,
            done: ps.req,
        });
    }

    fn on_sync_ack(&mut self, sreq: u64) {
        let dev = self.dev;
        let acked = dev.match_state.lock().pending_sends.remove(&sreq);
        let Some(ps) = acked else { return };
        if let Some(window) = ps.window {
            // FIN of a single-copy rendezvous: the receiver has copied.
            dev.metrics.event3(
                EventKind::RndvDone,
                sreq,
                ps.len as u64,
                rndv_ctl(ps.dst_global, false),
            );
            drop(window);
        }
        ps.req.complete();
        *self.completions += 1;
    }

    fn rndv_dest(&mut self, rreq: u64, _total: usize) -> RndvDest {
        match self.dev.match_state.lock().active_recvs.get(&rreq) {
            Some(ar) => RndvDest::Raw(ar.ptr as *mut u8, ar.cap),
            None => RndvDest::Discard,
        }
    }

    fn on_rndv_complete(&mut self, rreq: u64, total: usize) {
        if let Some(ar) = self.dev.match_state.lock().active_recvs.remove(&rreq) {
            let n = total.min(ar.cap);
            self.dev.metrics.bump(Metric::RndvDone);
            self.dev.metrics.event3(
                EventKind::RndvDone,
                ar.env.sreq,
                total as u64,
                rndv_ctl(ar.env.gsrc as usize, false),
            );
            self.dev.metrics.event3(
                EventKind::MsgRecv,
                ar.env.gsrc as u64,
                ar.env.tag as i64 as u64,
                n as u64 | MSG_RNDV_FLAG,
            );
            ar.req.complete_with(ar.env.src, ar.env.tag, n);
            *self.completions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::LinkState;
    use motor_pal::link::{shm_pair, tcp_pair};
    use motor_pal::BoxedLink;
    use std::time::Duration;

    /// What the two devices of a [`duo_on`] are wired with. The link is
    /// the only thing that selects a rendezvous conversation: `Shm` ends
    /// share a window table (single copy), `Tcp` ends do not (streamed).
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Wire {
        Shm,
        Tcp,
    }

    /// Two connected devices over an in-process pair.
    fn duo() -> (Arc<Device>, Arc<Device>) {
        duo_with(DeviceConfig::default())
    }

    fn duo_with(config: DeviceConfig) -> (Arc<Device>, Arc<Device>) {
        duo_on(Wire::Shm, config)
    }

    fn duo_on(wire: Wire, config: DeviceConfig) -> (Arc<Device>, Arc<Device>) {
        let d0 = Device::new(0, config.clone());
        let d1 = Device::new(1, config);
        let (a, b): (BoxedLink, BoxedLink) = match wire {
            Wire::Shm => {
                let (a, b) = shm_pair(64 * 1024);
                (Box::new(a), Box::new(b))
            }
            Wire::Tcp => {
                let (a, b) = tcp_pair().unwrap();
                (Box::new(a), Box::new(b))
            }
        };
        d0.set_link(1, LinkState::new(a));
        d1.set_link(0, LinkState::new(b));
        (d0, d1)
    }

    fn env(src: u32, gsrc: u32, tag: i32) -> Envelope {
        Envelope {
            src,
            gsrc,
            tag,
            context: 0,
            len: 0,
            sreq: 0,
            flags: 0,
        }
    }

    /// Test wrapper: the slice window outlives every drive loop below.
    fn send(d: &Device, dst: usize, e: Envelope, data: &[u8], sync: bool) -> MpcResult<Request> {
        // SAFETY: test buffers are plain slices that outlive the request.
        unsafe { d.isend_raw(dst, e, data.as_ptr(), data.len(), sync) }
    }

    /// Test wrapper for receives.
    fn recv(d: &Device, src: i32, tag: i32, ctx: u32, buf: &mut [u8]) -> MpcResult<Request> {
        // SAFETY: as in `send`.
        unsafe { d.irecv_raw(src, tag, ctx, buf.as_mut_ptr(), buf.len()) }
    }

    fn drive(d0: &Device, d1: &Device) {
        for _ in 0..10_000 {
            let a = d0.pass(Caller::Rank);
            let b = d1.pass(Caller::Rank);
            if !a && !b {
                return;
            }
        }
        panic!("devices did not quiesce");
    }

    #[test]
    fn eager_send_recv() {
        let (d0, d1) = duo();
        let data = [7u8; 100];
        let sreq = send(&d0, 1, env(0, 0, 5), &data, false).unwrap();
        let mut buf = [0u8; 100];
        let rreq = recv(&d1, ANY_SOURCE, 5, 0, &mut buf).unwrap();
        drive(&d0, &d1);
        assert!(sreq.is_complete());
        assert!(rreq.is_complete());
        let s = rreq.status();
        assert_eq!(s.source, 0);
        assert_eq!(s.tag, 5);
        assert_eq!(s.count, 100);
        assert!(!s.truncated);
        assert_eq!(buf, [7u8; 100]);
    }

    #[test]
    fn recv_posted_before_send() {
        let (d0, d1) = duo();
        let mut buf = [0u8; 16];
        let rreq = recv(&d1, 0, 1, 0, &mut buf).unwrap();
        assert!(!rreq.is_complete());
        let data = [3u8; 16];
        let _s = send(&d0, 1, env(0, 0, 1), &data[..16], false).unwrap();
        drive(&d0, &d1);
        assert!(rreq.is_complete());
        assert_eq!(buf, [3u8; 16]);
    }

    #[test]
    fn rendezvous_large_message() {
        let (d0, d1) = duo_with(DeviceConfig {
            eager_threshold: 1024,
            ..DeviceConfig::default()
        });
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
        let sreq = send(&d0, 1, env(0, 0, 9), &data, false).unwrap();
        assert!(
            !sreq.is_complete(),
            "rendezvous send cannot complete before CTS"
        );
        let mut buf = vec![0u8; data.len()];
        let rreq = recv(&d1, 0, 9, 0, &mut buf).unwrap();
        drive(&d0, &d1);
        assert!(sreq.is_complete());
        assert!(rreq.is_complete());
        assert_eq!(rreq.status().count, data.len());
        assert_eq!(buf, data);
    }

    #[test]
    fn rendezvous_unexpected_rts_then_recv() {
        let (d0, d1) = duo_with(DeviceConfig {
            eager_threshold: 64,
            ..DeviceConfig::default()
        });
        let data = vec![0xA5u8; 4096];
        let sreq = send(&d0, 1, env(0, 0, 2), &data, false).unwrap();
        // Let the RTS land unexpected.
        drive(&d0, &d1);
        assert_eq!(d1.queue_depths().1, 1, "RTS queued unexpected");
        let mut buf = vec![0u8; 4096];
        let rreq = recv(&d1, ANY_SOURCE, ANY_TAG, 0, &mut buf).unwrap();
        drive(&d0, &d1);
        assert!(sreq.is_complete() && rreq.is_complete());
        assert_eq!(buf, data);
    }

    #[test]
    fn tag_and_source_matching_with_wildcards() {
        let (d0, d1) = duo();
        let a = [1u8; 4];
        let b = [2u8; 4];
        send(&d0, 1, env(0, 0, 10), &a[..4], false).unwrap();
        send(&d0, 1, env(0, 0, 20), &b[..4], false).unwrap();
        drive(&d0, &d1);
        // Receive tag 20 first even though tag 10 arrived first.
        let mut buf = [0u8; 4];
        let r = recv(&d1, ANY_SOURCE, 20, 0, &mut buf[..4]).unwrap();
        drive(&d0, &d1);
        assert!(r.is_complete());
        assert_eq!(buf, [2u8; 4]);
        // Wildcard then picks up the remaining tag-10 message.
        let mut buf2 = [0u8; 4];
        let r2 = recv(&d1, ANY_SOURCE, ANY_TAG, 0, &mut buf2[..4]).unwrap();
        drive(&d0, &d1);
        assert!(r2.is_complete());
        assert_eq!(r2.status().tag, 10);
        assert_eq!(buf2, [1u8; 4]);
    }

    #[test]
    fn non_overtaking_order_same_envelope() {
        let (d0, d1) = duo();
        for i in 0..5u8 {
            let data = [i; 8];
            send(&d0, 1, env(0, 0, 1), &data[..8], false).unwrap();
        }
        drive(&d0, &d1);
        for i in 0..5u8 {
            let mut buf = [0u8; 8];
            let r = recv(&d1, 0, 1, 0, &mut buf[..8]).unwrap();
            drive(&d0, &d1);
            assert!(r.is_complete());
            assert_eq!(
                buf, [i; 8],
                "messages with equal envelopes must not overtake"
            );
        }
    }

    #[test]
    fn synchronous_send_completes_only_after_match() {
        let (d0, d1) = duo();
        let data = [9u8; 32];
        let sreq = send(&d0, 1, env(0, 0, 7), &data[..32], true).unwrap();
        drive(&d0, &d1);
        assert!(
            !sreq.is_complete(),
            "ssend must wait for the receiver to match"
        );
        let mut buf = [0u8; 32];
        let rreq = recv(&d1, 0, 7, 0, &mut buf[..32]).unwrap();
        drive(&d0, &d1);
        assert!(rreq.is_complete());
        assert!(sreq.is_complete(), "matched ⇒ acknowledged ⇒ complete");
    }

    #[test]
    fn truncation_is_flagged() {
        let (d0, d1) = duo();
        let data = [1u8; 100];
        send(&d0, 1, env(0, 0, 3), &data[..100], false).unwrap();
        let mut small = [0u8; 10];
        let rreq = recv(&d1, 0, 3, 0, &mut small[..10]).unwrap();
        drive(&d0, &d1);
        assert!(rreq.is_complete());
        let s = rreq.status();
        assert!(s.truncated);
        assert_eq!(s.count, 10);
        assert_eq!(small, [1u8; 10]);
    }

    #[test]
    fn self_send_and_recv() {
        let (d0, _d1) = duo();
        let data = [5u8; 64];
        let s = send(&d0, 0, env(0, 0, 4), &data[..64], false).unwrap();
        let mut buf = [0u8; 64];
        let r = recv(&d0, 0, 4, 0, &mut buf[..64]).unwrap();
        d0.pass(Caller::Rank);
        assert!(s.is_complete() && r.is_complete());
        assert_eq!(buf, [5u8; 64]);
    }

    #[test]
    fn contexts_isolate_messages() {
        let (d0, d1) = duo();
        let a = [1u8; 4];
        let mut e = env(0, 0, 1);
        e.context = 77;
        send(&d0, 1, e, &a, false).unwrap();
        drive(&d0, &d1);
        // A receive on context 0 must not see the context-77 message.
        let mut buf = [0u8; 4];
        let r = recv(&d1, ANY_SOURCE, ANY_TAG, 0, &mut buf[..4]).unwrap();
        drive(&d0, &d1);
        assert!(!r.is_complete());
        // The right context matches.
        let r2 = recv(&d1, ANY_SOURCE, ANY_TAG, 77, &mut buf[..4]).unwrap();
        drive(&d0, &d1);
        assert!(r2.is_complete());
    }

    #[test]
    fn iprobe_reports_without_consuming() {
        let (d0, d1) = duo();
        let data = [8u8; 24];
        send(&d0, 1, env(0, 0, 6), &data[..24], false).unwrap();
        drive(&d0, &d1);
        let st = d1
            .iprobe(ANY_SOURCE, ANY_TAG, 0)
            .unwrap()
            .expect("message probed");
        assert_eq!(st.count, 24);
        assert_eq!(st.tag, 6);
        // Still there.
        assert!(d1.iprobe(0, 6, 0).unwrap().is_some());
        let mut buf = [0u8; 24];
        let r = recv(&d1, 0, 6, 0, &mut buf[..24]).unwrap();
        drive(&d0, &d1);
        assert!(r.is_complete());
        assert!(
            d1.iprobe(0, 6, 0).unwrap().is_none(),
            "consumed by the receive"
        );
    }

    #[test]
    fn wait_with_drives_progress() {
        let (d0, d1) = duo();
        let data = [2u8; 50];
        let mut buf = [0u8; 50];
        let rreq = recv(&d1, 0, 1, 0, &mut buf[..50]).unwrap();
        send(&d0, 1, env(0, 0, 1), &data[..50], false).unwrap();
        // d1 drives both sides here because shm links need no peer pump —
        // but the sender must flush; pump it once.
        d0.pass(Caller::Rank);
        let mut polls = 0;
        let st = d1
            .wait_with(&rreq, || {
                polls += 1;
            })
            .unwrap();
        assert!(polls >= 1, "yield hook invoked");
        assert_eq!(st.count, 50);
        assert_eq!(buf, [2u8; 50]);
    }

    #[test]
    fn send_to_unknown_rank_is_invalid() {
        let (d0, _d1) = duo();
        let data = [0u8; 4];
        assert!(matches!(
            send(&d0, 9, env(0, 0, 1), &data[..4], false),
            Err(MpcError::InvalidRank(9))
        ));
    }

    /// A pass works from the link table as it was when it started. A link
    /// another thread drops meanwhile is pumped once more from that stale
    /// table: the second failure finds the slot marked and does nothing —
    /// one `LinksDropped`, each request failed once, no panic.
    #[test]
    fn a_stale_table_pumps_a_dropped_link_to_no_effect() {
        let (d0, d1) = duo_with(DeviceConfig {
            eager_threshold: 64,
            ..DeviceConfig::default()
        });
        let data = vec![1u8; 4096];
        let sreq = send(&d0, 1, env(0, 0, 3), &data, false).unwrap();
        let mut buf = [0u8; 16];
        let rreq = recv(&d0, 1, 4, 0, &mut buf).unwrap();
        let stale = d0.links.read().clone();
        drop(d1);
        std::thread::scope(|s| {
            s.spawn(|| assert!(d0.pass(Caller::Engine)));
        });
        let dropped = || d0.metrics().snapshot().get(Metric::LinksDropped);
        assert_eq!(dropped(), 1);
        assert!(d0.slot(1).is_none(), "taken out of the table");
        let slot = stale[1].as_ref().expect("the stale table still has it");
        let (mut deferred, mut completions) = (Vec::new(), 0);
        assert!(!d0.pump(1, slot, &mut deferred, &mut completions));
        assert!(deferred.is_empty() && completions == 0);
        assert_eq!(dropped(), 1);
        for req in [&sreq, &rreq] {
            assert!(matches!(req.outcome(), Err(MpcError::PeerClosed(1))));
        }
        assert_eq!(d0.queue_depths(), (0, 0, 0, 0));
        assert!(matches!(
            send(&d0, 1, env(0, 0, 5), &[0u8; 4], false),
            Err(MpcError::PeerClosed(1))
        ));
    }

    // --------------------------------------------------------------
    // Asynchronous progress
    // --------------------------------------------------------------

    /// A wait parked in the backoff sleep tier must be woken by progress
    /// another thread makes — not wait out the sleep quantum. The quantum
    /// here is absurdly long so a missed wakeup fails loudly (hangs the
    /// test harness timeout) rather than passing slowly.
    #[test]
    fn parked_wait_is_woken_by_external_progress() {
        let (d0, d1) = duo_with(DeviceConfig {
            eager_threshold: 64,
            wait_backoff: motor_pal::BackoffConfig {
                spin_limit: 1,
                yield_limit: 1,
                sleep: Some(Duration::from_secs(3600)),
            },
            ..DeviceConfig::default()
        });
        let data = vec![0x42u8; 4096];
        let sreq = send(&d0, 1, env(0, 0, 1), &data, false).unwrap();

        let d0c = Arc::clone(&d0);
        let d1c = Arc::clone(&d1);
        let driver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let mut buf = vec![0u8; 4096];
            let rreq = recv(&d1c, 0, 1, 0, &mut buf).unwrap();
            for _ in 0..10_000 {
                if rreq.is_complete() {
                    break;
                }
                d1c.pass(Caller::Engine);
                d0c.pass(Caller::Engine);
            }
            assert!(rreq.is_complete());
            assert_eq!(buf, vec![0x42u8; 4096]);
        });

        let start = std::time::Instant::now();
        let _st = d0.wait_with(&sreq, || {}).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(600),
            "woken by notification, not the timer"
        );
        driver.join().unwrap();
    }

    /// The per-message path writes no waker while nobody is parked: a
    /// ping-pong whose waits spin and yield but never park leaves both
    /// devices' generations where they started, though every frame pokes
    /// the peer and every pass that moved notifies its own device.
    #[test]
    fn no_message_writes_a_waker() {
        let (d0, d1) = duo_with(DeviceConfig {
            wait_backoff: motor_pal::BackoffConfig::no_sleep(),
            ..DeviceConfig::default()
        });
        let before = (d0.waker().generation(), d1.waker().generation());
        let bounce = |d: &Device, peer: usize, first: bool| {
            let e = env(d.rank() as u32, d.rank() as u32, 3);
            let put = |data: &[u8]| {
                let s = send(d, peer, e, data, false).unwrap();
                d.wait_with(&s, || {}).unwrap();
            };
            let mut buf = [0u8; 4];
            for i in 0..1_000u32 {
                if first {
                    put(&i.to_le_bytes());
                }
                let r = recv(d, peer as i32, 3, 0, &mut buf).unwrap();
                d.wait_with(&r, || {}).unwrap();
                assert_eq!(u32::from_le_bytes(buf), i);
                if !first {
                    put(&buf);
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| bounce(&d1, 0, false));
            bounce(&d0, 1, true);
        });
        assert_eq!(
            (d0.waker().generation(), d1.waker().generation()),
            before,
            "a notify with nobody parked wrote the waker"
        );
    }

    /// Completion batching: one engine pass on each side finishes a full
    /// rendezvous (RTS→copy→FIN), where single sweeps would need a call
    /// per protocol leg.
    #[test]
    fn engine_pass_completes_rendezvous_in_one_call() {
        let (d0, d1) = duo_with(DeviceConfig {
            eager_threshold: 64,
            ..DeviceConfig::default()
        });
        let data = vec![9u8; 4096];
        let sreq = send(&d0, 1, env(0, 0, 8), &data, false).unwrap();
        let mut buf = vec![0u8; 4096];
        let rreq = recv(&d1, 0, 8, 0, &mut buf).unwrap();
        // RTS flushed by the send's own pass and matched by the receive's
        // (which copies and queues the FIN); one engine pass per side:
        // d1 flushes the FIN and completes, d0 completes on it.
        d1.pass(Caller::Engine);
        d0.pass(Caller::Engine);
        assert!(sreq.is_complete(), "sender done after its engine pass");
        assert!(rreq.is_complete(), "receiver done once the FIN left");
        assert_eq!(buf, data);
        let snap = d0.metrics().snapshot();
        assert!(
            snap.get(Metric::ProgressOpsCompleted) >= 1,
            "engine completions are counted"
        );
    }

    /// Lock-split smoke (the TSan target): two threads send from the same
    /// device to different peers while an engine-style thread pumps all
    /// three devices concurrently.
    #[test]
    fn concurrent_senders_with_engine_thread() {
        let d0 = Device::new(0, DeviceConfig::default());
        let d1 = Device::new(1, DeviceConfig::default());
        let d2 = Device::new(2, DeviceConfig::default());
        let (a, b) = shm_pair(64 * 1024);
        d0.set_link(1, LinkState::new(Box::new(a)));
        d1.set_link(0, LinkState::new(Box::new(b)));
        let (c, d) = shm_pair(64 * 1024);
        d0.set_link(2, LinkState::new(Box::new(c)));
        d2.set_link(0, LinkState::new(Box::new(d)));

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let engine = {
            let (d0, d1, d2) = (Arc::clone(&d0), Arc::clone(&d1), Arc::clone(&d2));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    d0.pass(Caller::Engine);
                    d1.pass(Caller::Engine);
                    d2.pass(Caller::Engine);
                }
            })
        };

        const N: usize = 64;
        let senders: Vec<_> = [1usize, 2usize]
            .into_iter()
            .map(|peer| {
                let d0 = Arc::clone(&d0);
                std::thread::spawn(move || {
                    for i in 0..N {
                        let data = [peer as u8; 128];
                        let r = send(&d0, peer, env(0, 0, i as i32), &data, false).unwrap();
                        d0.wait_with(&r, || {}).unwrap();
                    }
                })
            })
            .collect();

        for (peer, dev) in [(1usize, &d1), (2usize, &d2)] {
            for i in 0..N {
                let mut buf = [0u8; 128];
                let r = recv(dev, 0, i as i32, 0, &mut buf).unwrap();
                dev.wait_with(&r, || {}).unwrap();
                assert_eq!(buf, [peer as u8; 128]);
            }
        }
        for s in senders {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        engine.join().unwrap();
    }
    // --------------------------------------------------------------
    // The two rendezvous conversations, selected by the link alone
    // --------------------------------------------------------------

    /// Each scenario runs over a shm pair (single copy) and over a TCP
    /// pair (streamed) and must behave the same above the device.
    macro_rules! on_both_wires {
        ($($scenario:ident),* $(,)?) => {
            mod shm {
                $(#[test] fn $scenario() { super::$scenario(super::Wire::Shm) })*
            }
            mod tcp {
                $(#[test] fn $scenario() { super::$scenario(super::Wire::Tcp) })*
            }
        };
    }

    on_both_wires!(
        rndv_receive_posted_first,
        rndv_unexpected_then_wildcard_receive,
        rndv_truncation_leaves_the_tail_untouched,
        eager_behind_rendezvous_does_not_overtake,
        rndv_sender_gone_before_the_match_is_peer_closed,
        receiver_that_never_polls_again_does_not_strand_the_sender,
        eight_concurrent_windows_with_engine_thread,
    );

    fn small_threshold() -> DeviceConfig {
        DeviceConfig {
            eager_threshold: 1024,
            ..DeviceConfig::default()
        }
    }

    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 7 + salt) % 251) as u8).collect()
    }

    /// `drive` for either wire: a socket may hand bytes over a moment
    /// after the write returned, so quiescence is not the end there.
    fn drive_until(d0: &Device, d1: &Device, done: impl Fn() -> bool) {
        for _ in 0..1_000_000 {
            if done() {
                return;
            }
            d0.pass(Caller::Rank);
            d1.pass(Caller::Rank);
        }
        panic!("devices did not get there");
    }

    /// The path taken by `n` completed rendezvous from `tx` to `rx`.
    fn assert_path(wire: Wire, tx: &Device, rx: &Device, n: u64) {
        let (t, r) = (tx.metrics().snapshot(), rx.metrics().snapshot());
        assert_eq!(t.get(Metric::SendsRndv), n);
        assert_eq!(r.get(Metric::RndvRtsIn), n);
        assert_eq!(r.get(Metric::RndvDone), n);
        let (pulls, cts) = if wire == Wire::Shm { (n, 0) } else { (0, n) };
        assert_eq!(r.get(Metric::RndvPulls), pulls, "{wire:?}");
        assert_eq!(t.get(Metric::RndvCtsIn), cts, "{wire:?}");
    }

    fn rndv_receive_posted_first(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let data = pattern(100_000, 1);
        let mut buf = vec![0u8; data.len()];
        let rreq = recv(&d1, 0, 9, 0, &mut buf).unwrap();
        let sreq = send(&d0, 1, env(0, 0, 9), &data, false).unwrap();
        assert!(!sreq.is_complete(), "a rendezvous send waits for its peer");
        drive_until(&d0, &d1, || sreq.is_complete() && rreq.is_complete());
        let st = rreq.status();
        assert_eq!((st.source, st.tag, st.count), (0, 9, data.len()));
        assert!(!st.truncated);
        assert_eq!(buf, data);
        assert_eq!(d0.queue_depths(), (0, 0, 0, 0));
        assert_eq!(d1.queue_depths(), (0, 0, 0, 0));
        assert_path(wire, &d0, &d1, 1);
    }

    fn rndv_unexpected_then_wildcard_receive(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let data = pattern(40_000, 2);
        let sreq = send(&d0, 1, env(0, 0, 2), &data, false).unwrap();
        drive_until(&d0, &d1, || d1.queue_depths().1 == 1);
        assert!(!sreq.is_complete(), "announced, not yet matched");
        let mut buf = vec![0u8; data.len()];
        let rreq = recv(&d1, ANY_SOURCE, ANY_TAG, 0, &mut buf).unwrap();
        drive_until(&d0, &d1, || sreq.is_complete() && rreq.is_complete());
        let st = rreq.status();
        assert_eq!((st.source, st.tag, st.count), (0, 2, data.len()));
        assert_eq!(buf, data);
        assert_path(wire, &d0, &d1, 1);
    }

    fn rndv_truncation_leaves_the_tail_untouched(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let data = pattern(20_000, 3);
        let cap = 5_000;
        let mut buf = vec![0xFFu8; 8_000];
        let rreq = recv(&d1, 0, 4, 0, &mut buf[..cap]).unwrap();
        let sreq = send(&d0, 1, env(0, 0, 4), &data, false).unwrap();
        drive_until(&d0, &d1, || sreq.is_complete() && rreq.is_complete());
        let st = rreq.status();
        assert!(st.truncated);
        assert_eq!(st.count, cap);
        assert_eq!(&buf[..cap], &data[..cap]);
        assert!(
            buf[cap..].iter().all(|&b| b == 0xFF),
            "beyond cap untouched"
        );
        assert_path(wire, &d0, &d1, 1);
    }

    fn eager_behind_rendezvous_does_not_overtake(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let big = pattern(30_000, 4);
        let small = pattern(100, 5);
        let s_big = send(&d0, 1, env(0, 0, 6), &big, false).unwrap();
        let s_small = send(&d0, 1, env(0, 0, 6), &small, false).unwrap();
        drive_until(&d0, &d1, || d1.queue_depths().1 == 2);
        // Same envelope: the first receive gets the rendezvous message
        // although the eager one behind it is already complete here.
        let mut first = vec![0u8; big.len()];
        let mut second = vec![0u8; big.len()];
        let r1 = recv(&d1, 0, 6, 0, &mut first).unwrap();
        let r2 = recv(&d1, 0, 6, 0, &mut second).unwrap();
        drive_until(&d0, &d1, || {
            s_big.is_complete() && s_small.is_complete() && r1.is_complete() && r2.is_complete()
        });
        assert_eq!(r1.status().count, big.len());
        assert_eq!(first, big);
        assert_eq!(r2.status().count, small.len());
        assert_eq!(&second[..small.len()], &small[..]);
    }

    fn rndv_sender_gone_before_the_match_is_peer_closed(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let data = pattern(10_000, 6);
        let sreq = send(&d0, 1, env(0, 0, 7), &data, false).unwrap();
        drive_until(&d0, &d1, || d1.queue_depths().1 == 1);
        // The sender's end of the link goes away with its device; then
        // its buffer does.
        drop((sreq, d0));
        drop(data);
        let mut buf = vec![0u8; 10_000];
        let outcome = recv(&d1, 0, 7, 0, &mut buf).and_then(|r| d1.wait_with(&r, || {}));
        assert!(
            matches!(outcome, Err(MpcError::PeerClosed(0))),
            "{wire:?}: {outcome:?}"
        );
        assert_eq!(buf, vec![0u8; 10_000], "nothing was delivered");
    }

    /// No stranded FIN: the receiver returns from its wait and never
    /// drives its device again; the sender must still complete. (If the
    /// receive were complete before its FIN is on the link, the FIN would
    /// sit in the receiver's queue for ever.)
    fn receiver_that_never_polls_again_does_not_strand_the_sender(wire: Wire) {
        let (d0, d1) = duo_on(wire, small_threshold());
        let data = pattern(50_000, 7);
        std::thread::scope(|s| {
            let receiver = s.spawn(|| {
                let mut buf = vec![0u8; 50_000];
                let r = recv(&d1, 0, 1, 0, &mut buf).unwrap();
                d1.wait_with(&r, || {}).unwrap();
                buf
            });
            let sreq = send(&d0, 1, env(0, 0, 1), &data, false).unwrap();
            // Whatever the receiver leaves undone when its wait returns,
            // nobody does: this thread drives the sender's device only.
            d0.wait_with(&sreq, || {}).unwrap();
            assert_eq!(receiver.join().unwrap(), data);
        });
    }

    /// The shared copy leans on no help: a sender that posts a 256 KiB
    /// rendezvous and never passes again has every chunk copied by the
    /// receiver, whose receive completes with every byte.
    #[test]
    fn rndv_sender_that_never_passes_again_is_pulled_whole() {
        let (d0, d1) = duo();
        let data = pattern(256 * 1024, 8);
        let sreq = send(&d0, 1, env(0, 0, 3), &data, false).unwrap();
        let buf = std::thread::scope(|s| {
            s.spawn(|| {
                let mut buf = vec![0u8; data.len()];
                let r = recv(&d1, 0, 3, 0, &mut buf).unwrap();
                let st = d1.wait_with(&r, || {}).unwrap();
                assert_eq!((st.count, st.truncated), (data.len(), false));
                buf
            })
            .join()
            .unwrap()
        });
        assert!(buf == data, "the receive holds every byte");
        assert_eq!(d1.metrics().snapshot().get(Metric::RndvPulls), 1);
        assert!(!sreq.is_complete(), "the sender has not passed since");
        d0.wait_with(&sreq, || {}).unwrap();
    }

    /// Windows of eight 256 KiB messages (the `stream_large` shape) while
    /// an engine-style thread pumps both devices: pulls, FINs and
    /// revokes race the rank threads' own progress. Every byte compared.
    fn eight_concurrent_windows_with_engine_thread(wire: Wire) {
        const WINDOW: usize = 8;
        const LEN: usize = 256 * 1024;
        const ROUNDS: usize = 4;
        let (d0, d1) = duo_on(wire, DeviceConfig::default());
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    d0.pass(Caller::Engine);
                    d1.pass(Caller::Engine);
                }
            });
            let sender = s.spawn(|| {
                for round in 0..ROUNDS {
                    let msgs: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|k| pattern(LEN, round * WINDOW + k))
                        .collect();
                    let reqs: Vec<Request> = msgs
                        .iter()
                        .enumerate()
                        .map(|(k, m)| send(&d0, 1, env(0, 0, k as i32), m, false).unwrap())
                        .collect();
                    for r in &reqs {
                        d0.wait_with(r, || {}).unwrap();
                    }
                    // Reuse is legal the moment the wait returns.
                    drop(msgs);
                }
            });
            for round in 0..ROUNDS {
                let mut bufs = vec![vec![0u8; LEN]; WINDOW];
                let reqs: Vec<Request> = bufs
                    .iter_mut()
                    .enumerate()
                    .map(|(k, b)| recv(&d1, 0, k as i32, 0, b).unwrap())
                    .collect();
                for (k, r) in reqs.iter().enumerate() {
                    let st = d1.wait_with(r, || {}).unwrap();
                    assert_eq!(st.count, LEN);
                    assert!(bufs[k] == pattern(LEN, round * WINDOW + k), "window {k}");
                }
            }
            sender.join().unwrap();
            stop.store(true, Ordering::Release);
        });
        assert_path(wire, &d0, &d1, (ROUNDS * WINDOW) as u64);
    }

    /// A frame header that names no packet kind leaves the parser with no
    /// way to find the next frame: the link is dropped like a dead
    /// transport — rank 1's operations fail cleanly, nothing is wedged —
    /// and the link to rank 2 keeps delivering.
    #[test]
    fn corrupt_frame_header_drops_that_link_only() {
        let d0 = Device::new(0, DeviceConfig::default());
        let d2 = Device::new(2, DeviceConfig::default());
        // Rank 1 is played by a bare channel end that sends garbage.
        let (a, b) = shm_pair(64 * 1024);
        d0.set_link(1, LinkState::new(Box::new(a)));
        let mut rank1 = LinkState::new(Box::new(b));
        let (c, d) = shm_pair(64 * 1024);
        d0.set_link(2, LinkState::new(Box::new(c)));
        d2.set_link(0, LinkState::new(Box::new(d)));

        let mut from1 = [0u8; 8];
        let doomed_recv = recv(&d0, 1, 1, 0, &mut from1).unwrap();
        let payload = [1u8; 8];
        let doomed_send = send(&d0, 1, env(0, 0, 2), &payload, true).unwrap();
        rank1.queue_bytes(vec![9, 0, 0, 0, 0xEE, 1, 2, 3, 4, 5, 6, 7, 8]);
        rank1.pump_out().unwrap();

        assert!(d0.pass(Caller::Rank), "dropping a link is movement");
        for doomed in [&doomed_recv, &doomed_send] {
            assert!(matches!(
                d0.wait_with(doomed, || {}),
                Err(MpcError::PeerClosed(1))
            ));
        }
        assert_eq!(d0.metrics().snapshot().get(Metric::LinksDropped), 1);
        assert!(matches!(
            send(&d0, 1, env(0, 0, 3), &payload, false),
            Err(MpcError::PeerClosed(1))
        ));

        let data = [7u8; 32];
        let mut buf = [0u8; 32];
        let r = recv(&d0, 2, 4, 0, &mut buf).unwrap();
        send(&d2, 0, env(2, 2, 4), &data, false).unwrap();
        drive(&d0, &d2);
        assert!(r.is_complete());
        assert_eq!(buf, data);
    }

    /// A shm end that keeps its window table to itself: rendezvous is
    /// streamed through the ring, a ring's worth per pass.
    struct Streamed(motor_pal::link::ShmLink);

    impl motor_pal::ByteLink for Streamed {
        fn try_write(&mut self, src: &[u8]) -> motor_pal::PalResult<usize> {
            self.0.try_write(src)
        }
        fn try_read(&mut self, dst: &mut [u8]) -> motor_pal::PalResult<usize> {
            self.0.try_read(dst)
        }
        fn is_closed(&self) -> bool {
            self.0.is_closed()
        }
    }

    /// A shm end that keeps its window table to itself but still shares
    /// the pair's wake cells — what a wrapping link that forwards one
    /// accessor and forgets the other looks like.
    struct TableHidden(motor_pal::link::ShmLink);

    impl motor_pal::ByteLink for TableHidden {
        fn try_write(&mut self, src: &[u8]) -> motor_pal::PalResult<usize> {
            self.0.try_write(src)
        }
        fn try_read(&mut self, dst: &mut [u8]) -> motor_pal::PalResult<usize> {
            self.0.try_read(dst)
        }
        fn is_closed(&self) -> bool {
            self.0.is_closed()
        }
        fn wake_cells(&self) -> Option<WakeCells> {
            self.0.wake_cells()
        }
    }

    /// A link with a window table at one end only would have that end pull
    /// windows the other never exposes — every large receive `PeerClosed`.
    /// Whichever end is wired second refuses it, in either order, and
    /// nothing is installed.
    #[test]
    fn a_window_table_at_one_end_only_is_refused_at_wiring() {
        for hidden_first in [false, true] {
            let d0 = Device::new(0, DeviceConfig::default());
            let d1 = Device::new(1, DeviceConfig::default());
            let (a, b) = shm_pair(4096);
            let table = LinkState::new(Box::new(a));
            let hidden = LinkState::new(Box::new(TableHidden(b)));
            let second = if hidden_first {
                d1.try_set_link(0, hidden).unwrap();
                d0.try_set_link(1, table)
            } else {
                d0.try_set_link(1, table).unwrap();
                d1.try_set_link(0, hidden)
            };
            match second {
                Err(MpcError::Protocol(why)) => assert!(why.contains("one end only"), "{why}"),
                other => panic!("hidden first = {hidden_first}: {other:?}"),
            }
            let unwired = if hidden_first { &d0 } else { &d1 };
            assert_eq!(unwired.link_count(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "one end only")]
    fn set_link_asserts_the_symmetry_it_assumes() {
        let d0 = Device::new(0, DeviceConfig::default());
        let d1 = Device::new(1, DeviceConfig::default());
        let (a, b) = shm_pair(4096);
        d0.set_link(1, LinkState::new(Box::new(a)));
        d1.set_link(0, LinkState::new(Box::new(TableHidden(b))));
    }

    /// Rank teardown, receive side: once a rank has finalised, nothing is
    /// written into the memory its receives named. A posted receive is
    /// forgotten (the late message lands in the unexpected queue), and a
    /// streamed rendezvous already matched and half landed is read to its
    /// end and dropped.
    #[test]
    fn finalized_receiver_windows_are_never_written() {
        let d0 = Device::new(0, small_threshold());
        let d1 = Device::new(1, small_threshold());
        let (a, b) = shm_pair(4096);
        d0.set_link(1, LinkState::new(Box::new(Streamed(a))));
        d1.set_link(0, LinkState::new(Box::new(Streamed(b))));

        let mut posted = vec![0u8; 64];
        let mut matched = vec![0u8; 20_000];
        let r_posted = recv(&d1, 0, 1, 0, &mut posted).unwrap();
        let r_matched = recv(&d1, 0, 2, 0, &mut matched).unwrap();
        let big = pattern(20_000, 11);
        let s_big = send(&d0, 1, env(0, 0, 2), &big, false).unwrap();
        // RTS over, CTS back, and the first ring's worth has landed.
        drive_until(&d0, &d1, || matched[0] == big[0]);
        assert_eq!(d1.queue_depths(), (1, 0, 0, 1), "mid-stream");
        d1.finalize().unwrap();
        assert_eq!(d1.queue_depths(), (0, 0, 0, 0), "forgotten");
        let landed = matched.clone();

        let small = pattern(64, 12);
        send(&d0, 1, env(0, 0, 1), &small, false).unwrap();
        drive_until(&d0, &d1, || s_big.is_complete() && d1.queue_depths().1 == 1);
        assert_eq!(posted, vec![0u8; 64], "late eager went to the queue");
        assert!(matched == landed, "the rest of the stream was dropped");
        assert!(matched != big);
        assert!(!r_posted.is_complete() && !r_matched.is_complete());
    }

    /// Rank teardown: a rendezvous send nobody waited for must not leave
    /// its window readable once the rank's memory is gone. The sender
    /// finalises and frees; the receive that matches afterwards fails
    /// with `PeerClosed` and never reads the window (under Miri a read
    /// would be a use-after-free).
    #[test]
    fn finalized_sender_window_is_never_read() {
        let (d0, d1) = duo_with(small_threshold());
        let data = pattern(10_000, 8);
        let sreq = send(&d0, 1, env(0, 0, 3), &data, false).unwrap();
        assert_eq!(d0.queue_depths().2, 1, "awaiting its peer");
        d0.finalize().unwrap();
        assert_eq!(d0.queue_depths().2, 0, "forgotten");
        drop(data);
        let mut buf = vec![0u8; 10_000];
        let outcome = recv(&d1, 0, 3, 0, &mut buf).and_then(|r| d1.wait_with(&r, || {}));
        assert!(
            matches!(outcome, Err(MpcError::PeerClosed(0))),
            "{outcome:?}"
        );
        assert_eq!(buf, vec![0u8; 10_000]);
        assert!(!sreq.is_complete(), "a forgotten send never completes");
        assert_eq!(d1.metrics().snapshot().get(Metric::RndvPulls), 0);
        // The universe's post-body drain still runs; it finds nothing.
        d0.drain().unwrap();
    }
}
