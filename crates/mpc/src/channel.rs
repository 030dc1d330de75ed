//! The channel layer: per-link framing, parsing and send queues.
//!
//! MPICH2's channel layer "is specifically responsible for data transfer"
//! (paper §6). A [`LinkState`] wraps one PAL byte link (shared-memory ring
//! or TCP socket) and implements:
//!
//! * **Outgoing**: a queue of pending frames. Control and eager frames are
//!   owned byte vectors; rendezvous payloads are *raw windows* into the
//!   sender's buffer — the zero-copy path that makes pinning necessary in
//!   a managed environment (paper §2.3). An item may carry a request that
//!   completes when the item has been handed to the transport.
//! * **Incoming**: an incremental parser that buffers control/eager frames
//!   whole but streams rendezvous data directly into the posted receive
//!   buffer (zero-copy on the receive side), asking the device for the
//!   destination window via the [`PacketSink`] callback interface.
//!
//! A rendezvous is one of two conversations, and the link decides which
//! (see the device's module docs). Over a link without a shared window
//! table — TCP, simulated, wrapped — it is **streamed**: RTS, CTS, then a
//! `RndvData` frame whose body is the raw window above, two copies (into
//! the transport, out of it). Over an in-process link, whose two ends
//! share a table ([`LinkState::shared`]), it is a **single copy**: RTS,
//! the message copied straight from the sender's exposed window into the
//! receiver's buffer — by the receiver's pull and, chunk by chunk, by the
//! sender's passes while it waits — then a `SyncAck` as FIN. The payload
//! never enters this layer: only the RTS and the FIN are framed, queued
//! and parsed, and the FIN is queued with
//! [`LinkState::queue_bytes_completing`] so the receive it acknowledges
//! completes only once the frame is on the link. The wire format is the
//! same five frame kinds either way; no address is ever framed or parsed.

use std::collections::VecDeque;
use std::sync::Arc;

use motor_obs::trace::rndv_ctl;
use motor_obs::{EventKind, Metric, MetricsRegistry};
use motor_pal::window::Windows;
use motor_pal::{BoxedLink, PalError, WakeCells};

use crate::error::{MpcError, MpcResult};
use crate::packet::{self, Envelope, PacketKind, ENVELOPE_LEN};
use crate::request::Request;

/// Where a rendezvous stream should land.
pub enum RndvDest {
    /// Write into this raw window (pointer stability is the caller's
    /// pinning obligation). `(ptr, capacity)`.
    Raw(*mut u8, usize),
    /// No matching receive (protocol error recovery): discard the bytes.
    Discard,
}

/// Device-side packet handler invoked by the link parser.
pub trait PacketSink {
    /// A complete eager message arrived.
    fn on_eager(&mut self, env: Envelope, data: &[u8]);
    /// A complete eager message arrived, and its frame body — `env`'s
    /// encoding, then the data — is the sink's to keep: what the parser
    /// calls. Returns the buffer the parser reads its next body into: the
    /// same one if the sink is done with it, any other (an empty one will
    /// do) if it kept it. A sink that only looks at the data needs no more
    /// than [`PacketSink::on_eager`].
    fn on_eager_owned(&mut self, env: Envelope, body: Vec<u8>) -> Vec<u8> {
        self.on_eager(env, &body[ENVELOPE_LEN..]);
        body
    }
    /// A rendezvous request-to-send arrived.
    fn on_rts(&mut self, env: Envelope);
    /// A clear-to-send arrived for our send request `sreq`.
    fn on_cts(&mut self, sreq: u64, rreq: u64);
    /// A synchronous-send acknowledgement arrived for `sreq`.
    fn on_sync_ack(&mut self, sreq: u64);
    /// A rendezvous data stream for receive request `rreq` is starting;
    /// return its destination window.
    fn rndv_dest(&mut self, rreq: u64, total: usize) -> RndvDest;
    /// The rendezvous stream for `rreq` finished.
    fn on_rndv_complete(&mut self, rreq: u64, total: usize);
}

/// One queued outgoing item. `done` (if any) completes when the item has
/// been fully handed to the transport.
enum OutItem {
    /// An owned frame (header + control/eager body).
    Bytes {
        buf: Vec<u8>,
        off: usize,
        done: Option<Request>,
    },
    /// A raw zero-copy window (rendezvous payload). The pointer is stored
    /// as `usize` and must remain valid until fully flushed — the sender's
    /// pin guarantees this.
    Raw {
        ptr: usize,
        len: usize,
        off: usize,
        done: Option<Request>,
    },
}

enum InState {
    /// Reading the 5-byte frame header.
    Header { buf: [u8; 5], got: usize },
    /// Buffering a whole control/eager body.
    Body {
        kind: PacketKind,
        need: usize,
        buf: Vec<u8>,
    },
    /// Reading the 8-byte rreq prefix of a RndvData frame.
    RndvPrefix {
        buf: [u8; 8],
        got: usize,
        data_len: usize,
    },
    /// Streaming rendezvous payload into the destination window.
    Stream {
        rreq: u64,
        dest: RndvDest,
        total: usize,
        written: usize,
    },
}

/// How many sent frame buffers a link keeps for reuse, and how large a
/// buffer may be to be kept (small frames are where the allocation is a
/// visible share of the send).
const SPARE_FRAMES: usize = 4;
const SPARE_FRAME_BYTES: usize = 1024;

/// Framing and queueing state for one peer link.
pub struct LinkState {
    link: BoxedLink,
    outq: VecDeque<OutItem>,
    in_state: InState,
    /// Scratch buffer for discarded streams.
    scratch: Vec<u8>,
    /// The buffer the next control/eager body is read into: the previous
    /// one, emptied, unless a sink kept it.
    body: Vec<u8>,
    /// Small frame buffers that have left the queue, for the next eager
    /// frames to be encoded into ([`LinkState::queue_eager`]).
    spare_frames: Vec<Vec<u8>>,
    /// Per-rank registry for frame/byte accounting (attached by the device
    /// that owns this link; standalone links go unmetered).
    metrics: Option<Arc<MetricsRegistry>>,
    /// Global rank at the far end (set by the device at wiring time; used
    /// to stamp sender-side rendezvous completion events).
    peer: Option<usize>,
}

// SAFETY: the raw pointers held in `OutItem::Raw` and `InState::Stream`
// refer to buffers whose stability (pinning) and liveness the device layer
// guarantees for the duration of the operation; the struct itself is only
// accessed under its per-link mutex in the device's link table (the lock
// that replaced the old whole-device progress lock), so at most one
// thread — rank or progress engine — touches it at a time.
unsafe impl Send for LinkState {}

impl LinkState {
    /// Wrap a connected link.
    pub fn new(link: BoxedLink) -> Self {
        LinkState {
            link,
            outq: VecDeque::new(),
            in_state: InState::Header {
                buf: [0; 5],
                got: 0,
            },
            scratch: vec![0u8; 16 * 1024],
            body: Vec::new(),
            spare_frames: Vec::new(),
            metrics: None,
            peer: None,
        }
    }

    /// Report frame/byte traffic into `registry` from now on.
    pub fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.metrics = Some(registry);
    }

    /// Record which global rank this link reaches.
    pub fn set_peer(&mut self, peer: usize) {
        self.peer = Some(peer);
    }

    #[inline]
    fn meter(&self, m: Metric, n: u64) {
        if n != 0 {
            if let Some(r) = &self.metrics {
                r.add(m, n);
            }
        }
    }

    /// This end's handles on what the link shares with its peer: the
    /// window table (in-process shm links only) and the wake cells (every
    /// pair built inside one process).
    pub fn shared(&self) -> (Option<Windows>, Option<WakeCells>) {
        (self.link.windows(), self.link.wake_cells())
    }

    /// Stop writing a rendezvous stream in progress to its destination:
    /// what is still to come is read and dropped. The receiving rank's
    /// memory is going away ([`crate::Device::finalize`]).
    pub fn discard_stream(&mut self) {
        if let InState::Stream { dest, .. } = &mut self.in_state {
            *dest = RndvDest::Discard;
        }
    }

    fn push_frame(&mut self, buf: Vec<u8>, done: Option<Request>) {
        self.outq.push_back(OutItem::Bytes { buf, off: 0, done });
    }

    /// Queue an owned frame.
    pub fn queue_bytes(&mut self, buf: Vec<u8>) {
        self.push_frame(buf, None);
    }

    /// Queue the eager frame of `data` under `env`, encoded into a buffer
    /// an earlier frame has left behind if there is one: a send whose
    /// frame goes out with the pass that follows it allocates no frame.
    pub fn queue_eager(&mut self, env: &Envelope, data: &[u8]) {
        let mut buf = self.spare_frames.pop().unwrap_or_default();
        packet::encode_eager_into(&mut buf, env, data);
        self.push_frame(buf, None);
    }

    /// Queue an owned frame whose departure completes `done`: the FIN of
    /// a single-copy rendezvous. The receive it acknowledges must not be
    /// observable as complete before the frame is on the link — a waiter
    /// that returns and never drives this device again would otherwise
    /// strand the frame in the queue and the sender with it.
    pub fn queue_bytes_completing(&mut self, buf: Vec<u8>, done: Request) {
        self.push_frame(buf, Some(done));
    }

    /// Queue a raw zero-copy window; `done` (if any) completes when the
    /// window has been fully handed to the transport (MPI send-completion
    /// semantics: the buffer is then reusable).
    pub fn queue_raw(&mut self, ptr: *const u8, len: usize, done: Option<Request>) {
        self.outq.push_back(OutItem::Raw {
            ptr: ptr as usize,
            len,
            off: 0,
            done,
        });
    }

    /// Whether any outgoing data is still queued.
    pub fn has_pending_out(&self) -> bool {
        !self.outq.is_empty()
    }

    /// Drop everything still queued and return the requests bound to
    /// queued items. Called when the link dies: those requests can never
    /// complete and their waiters must fail over to `PeerClosed` instead
    /// of spinning on a queue nobody will ever flush again.
    pub fn take_undelivered_reqs(&mut self) -> Vec<Request> {
        self.outq
            .drain(..)
            .filter_map(|item| match item {
                OutItem::Raw { done, .. } | OutItem::Bytes { done, .. } => done,
            })
            .collect()
    }

    /// Flush as much outgoing data as the link accepts. Returns `true` if
    /// any bytes moved.
    pub fn pump_out(&mut self) -> MpcResult<bool> {
        let mut progressed = false;
        let (mut bytes_out, mut frames_out) = (0u64, 0u64);
        while let Some(front) = self.outq.front_mut() {
            let wrote = match front {
                OutItem::Bytes { buf, off, done } => {
                    let n = self.link.try_write(&buf[*off..])?;
                    *off += n;
                    let finished = *off == buf.len();
                    if finished {
                        if let Some(req) = done.take() {
                            req.complete();
                        }
                        // Keep a few small buffers for the frames to come:
                        // bounded, so a burst of large eager frames is not
                        // held on to.
                        let buf = std::mem::take(buf);
                        if self.spare_frames.len() < SPARE_FRAMES
                            && buf.capacity() <= SPARE_FRAME_BYTES
                        {
                            self.spare_frames.push(buf);
                        }
                        self.outq.pop_front();
                    }
                    (n, finished)
                }
                OutItem::Raw {
                    ptr,
                    len,
                    off,
                    done,
                } => {
                    // SAFETY: the sender pinned (or owns) this window until
                    // `done` completes; see `queue_raw`.
                    let slice = unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) };
                    // The clock is read before the write that may hand over
                    // the last byte: a receiver can stamp its own `RndvDone`
                    // the moment that byte lands, and the sender's stamp must
                    // not come after it.
                    let stamp = match (&self.metrics, self.peer, &*done) {
                        (Some(r), Some(peer), Some(_)) => Some((r, peer, r.now_nanos())),
                        _ => None,
                    };
                    let n = self.link.try_write(&slice[*off..])?;
                    *off += n;
                    let finished = *off == *len;
                    if finished {
                        if let Some(req) = done.take() {
                            // Sender-side rendezvous completion: the whole
                            // window has been handed to the transport.
                            if let Some((r, peer, t)) = stamp {
                                r.event_at(
                                    t,
                                    EventKind::RndvDone,
                                    req.id(),
                                    *len as u64,
                                    rndv_ctl(peer, true),
                                );
                            }
                            req.complete();
                        }
                        self.outq.pop_front();
                    }
                    (n, finished)
                }
            };
            progressed |= wrote.0 > 0;
            bytes_out += wrote.0 as u64;
            frames_out += wrote.1 as u64;
            if !wrote.1 {
                break; // link is full
            }
        }
        self.meter(Metric::ChanBytesOut, bytes_out);
        self.meter(Metric::ChanFramesOut, frames_out);
        Ok(progressed)
    }

    /// Parse as much incoming data as available, dispatching complete
    /// packets to `sink`. Returns `true` if any bytes moved.
    pub fn pump_in(&mut self, sink: &mut dyn PacketSink) -> MpcResult<bool> {
        let (mut bytes_in, mut frames_in) = (0u64, 0u64);
        let res = self.pump_in_inner(sink, &mut bytes_in, &mut frames_in);
        self.meter(Metric::ChanBytesIn, bytes_in);
        self.meter(Metric::ChanFramesIn, frames_in);
        res
    }

    fn pump_in_inner(
        &mut self,
        sink: &mut dyn PacketSink,
        bytes_in: &mut u64,
        frames_in: &mut u64,
    ) -> MpcResult<bool> {
        let mut progressed = false;
        loop {
            match &mut self.in_state {
                InState::Header { buf, got } => {
                    let n = match self.link.try_read(&mut buf[*got..]) {
                        Ok(n) => n,
                        Err(PalError::Disconnected) if *got == 0 && !progressed => {
                            return Err(MpcError::Transport(PalError::Disconnected))
                        }
                        Err(e) => return Err(e.into()),
                    };
                    if n == 0 {
                        return Ok(progressed);
                    }
                    progressed = true;
                    *bytes_in += n as u64;
                    *got += n;
                    if *got < 5 {
                        continue;
                    }
                    let frame_len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
                    let kind = PacketKind::from_u8(buf[4])?;
                    if frame_len == 0 {
                        return Err(MpcError::Protocol("zero-length frame".into()));
                    }
                    // The header is the peer's say-so: refuse a length no
                    // frame of this kind can have before buffering for it.
                    let body = frame_len - 1;
                    let plausible = match kind {
                        PacketKind::Eager => body >= ENVELOPE_LEN,
                        PacketKind::RndvRts => body == ENVELOPE_LEN,
                        PacketKind::RndvCts => body == 16,
                        PacketKind::SyncAck => body == 8,
                        PacketKind::RndvData => body >= 8,
                    };
                    if !plausible {
                        return Err(MpcError::Protocol(format!(
                            "{kind:?} frame with a {body}-byte body"
                        )));
                    }
                    self.in_state = match kind {
                        PacketKind::RndvData => InState::RndvPrefix {
                            buf: [0; 8],
                            got: 0,
                            data_len: body - 8,
                        },
                        k => InState::Body {
                            kind: k,
                            need: body,
                            buf: std::mem::take(&mut self.body),
                        },
                    };
                }
                InState::Body { kind, need, buf } => {
                    if buf.len() < *need {
                        // Grow the body only by bytes the link delivered
                        // (through the scratch buffer), never by what the
                        // header claimed is still to come.
                        let want = (*need - buf.len()).min(self.scratch.len());
                        let n = self.link.try_read(&mut self.scratch[..want])?;
                        if n == 0 {
                            return Ok(progressed);
                        }
                        buf.extend_from_slice(&self.scratch[..n]);
                        progressed = true;
                        *bytes_in += n as u64;
                        if buf.len() < *need {
                            continue;
                        }
                    }
                    let kind = *kind;
                    let body = std::mem::take(buf);
                    self.in_state = InState::Header {
                        buf: [0; 5],
                        got: 0,
                    };
                    *frames_in += 1;
                    // Lengths were checked against the kind at header time.
                    let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
                    self.body = match kind {
                        PacketKind::Eager => {
                            let env = Envelope::decode(&body)?;
                            sink.on_eager_owned(env, body)
                        }
                        PacketKind::RndvRts => {
                            sink.on_rts(Envelope::decode(&body)?);
                            body
                        }
                        PacketKind::RndvCts => {
                            sink.on_cts(word(0), word(8));
                            body
                        }
                        PacketKind::SyncAck => {
                            sink.on_sync_ack(word(0));
                            body
                        }
                        PacketKind::RndvData => unreachable!("handled in Header state"),
                    };
                    self.body.clear();
                }
                InState::RndvPrefix { buf, got, data_len } => {
                    let n = self.link.try_read(&mut buf[*got..])?;
                    if n == 0 {
                        return Ok(progressed);
                    }
                    progressed = true;
                    *bytes_in += n as u64;
                    *got += n;
                    if *got < 8 {
                        continue;
                    }
                    let rreq = u64::from_le_bytes(*buf);
                    let total = *data_len;
                    let dest = sink.rndv_dest(rreq, total);
                    if total == 0 {
                        sink.on_rndv_complete(rreq, 0);
                        self.in_state = InState::Header {
                            buf: [0; 5],
                            got: 0,
                        };
                        *frames_in += 1;
                    } else {
                        self.in_state = InState::Stream {
                            rreq,
                            dest,
                            total,
                            written: 0,
                        };
                    }
                }
                InState::Stream {
                    rreq,
                    dest,
                    total,
                    written,
                } => {
                    let remaining = *total - *written;
                    let n = match dest {
                        RndvDest::Raw(ptr, cap) => {
                            let take = remaining.min(*cap - *written);
                            if take == 0 {
                                // Buffer exhausted but stream continues:
                                // drain the overflow into scratch.
                                let take = remaining.min(self.scratch.len());
                                self.link.try_read(&mut self.scratch[..take])?
                            } else {
                                // SAFETY: window provided by the device;
                                // receiver pinned/owns it for the stream.
                                let slice = unsafe {
                                    std::slice::from_raw_parts_mut(ptr.add(*written), take)
                                };
                                self.link.try_read(slice)?
                            }
                        }
                        RndvDest::Discard => {
                            let take = remaining.min(self.scratch.len());
                            self.link.try_read(&mut self.scratch[..take])?
                        }
                    };
                    if n == 0 {
                        return Ok(progressed);
                    }
                    progressed = true;
                    *bytes_in += n as u64;
                    *written += n;
                    if *written == *total {
                        let rreq = *rreq;
                        let total = *total;
                        self.in_state = InState::Header {
                            buf: [0; 5],
                            got: 0,
                        };
                        *frames_in += 1;
                        sink.on_rndv_complete(rreq, total);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet;
    use crate::request::RequestState;
    use motor_pal::link::shm_pair;

    #[derive(Default)]
    struct RecordingSink {
        eager: Vec<(Envelope, Vec<u8>)>,
        rts: Vec<Envelope>,
        cts: Vec<(u64, u64)>,
        acks: Vec<u64>,
        rndv_buf: Vec<u8>,
        rndv_done: Vec<(u64, usize)>,
    }

    impl PacketSink for RecordingSink {
        fn on_eager(&mut self, env: Envelope, data: &[u8]) {
            self.eager.push((env, data.to_vec()));
        }
        fn on_rts(&mut self, env: Envelope) {
            self.rts.push(env);
        }
        fn on_cts(&mut self, sreq: u64, rreq: u64) {
            self.cts.push((sreq, rreq));
        }
        fn on_sync_ack(&mut self, sreq: u64) {
            self.acks.push(sreq);
        }
        fn rndv_dest(&mut self, _rreq: u64, total: usize) -> RndvDest {
            self.rndv_buf = vec![0u8; total];
            RndvDest::Raw(self.rndv_buf.as_mut_ptr(), total)
        }
        fn on_rndv_complete(&mut self, rreq: u64, total: usize) {
            self.rndv_done.push((rreq, total));
        }
    }

    fn env(len: u64) -> Envelope {
        Envelope {
            src: 1,
            gsrc: 1,
            tag: 5,
            context: 0,
            len,
            sreq: 9,
            flags: 0,
        }
    }

    fn pump_until_idle(tx: &mut LinkState, rx: &mut LinkState, sink: &mut RecordingSink) {
        for _ in 0..10_000 {
            let a = tx.pump_out().unwrap();
            let b = rx.pump_in(sink).unwrap();
            if !a && !b && !tx.has_pending_out() {
                break;
            }
        }
    }

    fn pair() -> (LinkState, LinkState) {
        let (a, b) = shm_pair(4096);
        (LinkState::new(Box::new(a)), LinkState::new(Box::new(b)))
    }

    #[test]
    fn eager_roundtrip() {
        let (mut tx, mut rx) = pair();
        let data = b"payload".to_vec();
        tx.queue_bytes(packet::encode_eager(&env(7), &data));
        let mut sink = RecordingSink::default();
        pump_until_idle(&mut tx, &mut rx, &mut sink);
        assert_eq!(sink.eager.len(), 1);
        assert_eq!(sink.eager[0].1, data);
        assert_eq!(sink.eager[0].0.tag, 5);
    }

    #[test]
    fn control_frames_roundtrip() {
        let (mut tx, mut rx) = pair();
        tx.queue_bytes(packet::encode_rts(&env(100)));
        tx.queue_bytes(packet::encode_cts(11, 22));
        tx.queue_bytes(packet::encode_sync_ack(33));
        let mut sink = RecordingSink::default();
        pump_until_idle(&mut tx, &mut rx, &mut sink);
        assert_eq!(sink.rts.len(), 1);
        assert_eq!(sink.cts, vec![(11, 22)]);
        assert_eq!(sink.acks, vec![33]);
    }

    #[test]
    fn rndv_stream_larger_than_ring() {
        // 64 KiB payload through a 4 KiB ring: exercises streaming.
        let (mut tx, mut rx) = pair();
        let data: Vec<u8> = (0..65536u32).map(|i| (i % 251) as u8).collect();
        let req = RequestState::new(1);
        tx.queue_bytes(packet::encode_rndv_data_header(42, data.len()));
        tx.queue_raw(data.as_ptr(), data.len(), Some(std::sync::Arc::clone(&req)));
        let mut sink = RecordingSink::default();
        pump_until_idle(&mut tx, &mut rx, &mut sink);
        assert!(
            req.is_complete(),
            "send request completed when fully flushed"
        );
        assert_eq!(sink.rndv_done, vec![(42, 65536)]);
        assert_eq!(sink.rndv_buf, data);
    }

    #[test]
    fn interleaved_frames_parse_in_order() {
        let (mut tx, mut rx) = pair();
        for i in 0..20u8 {
            tx.queue_bytes(packet::encode_eager(&env(3), &[i, i, i]));
        }
        let mut sink = RecordingSink::default();
        pump_until_idle(&mut tx, &mut rx, &mut sink);
        assert_eq!(sink.eager.len(), 20);
        for (i, (_, d)) in sink.eager.iter().enumerate() {
            assert_eq!(d, &vec![i as u8; 3], "frames arrive in order");
        }
    }

    #[test]
    fn zero_length_eager_message() {
        let (mut tx, mut rx) = pair();
        tx.queue_bytes(packet::encode_eager(&env(0), &[]));
        let mut sink = RecordingSink::default();
        pump_until_idle(&mut tx, &mut rx, &mut sink);
        assert_eq!(sink.eager.len(), 1);
        assert!(sink.eager[0].1.is_empty());
    }

    /// The owned-body hand-over: a sink that keeps a frame's body gets the
    /// very buffer the parser filled — envelope bytes, then data — and the
    /// parser carries on with whatever the sink gives back; a sink that
    /// does not care sees `on_eager` as ever, and its buffer is reused.
    #[test]
    fn a_sink_may_keep_the_frame_body_it_is_handed() {
        #[derive(Default)]
        struct Keeper {
            kept: Vec<(Envelope, Vec<u8>)>,
            inner: RecordingSink,
        }
        impl PacketSink for Keeper {
            fn on_eager(&mut self, _: Envelope, _: &[u8]) {
                unreachable!("the parser hands bodies over");
            }
            fn on_eager_owned(&mut self, env: Envelope, body: Vec<u8>) -> Vec<u8> {
                self.kept.push((env, body));
                Vec::new()
            }
            fn on_rts(&mut self, env: Envelope) {
                self.inner.on_rts(env);
            }
            fn on_cts(&mut self, sreq: u64, rreq: u64) {
                self.inner.on_cts(sreq, rreq);
            }
            fn on_sync_ack(&mut self, sreq: u64) {
                self.inner.on_sync_ack(sreq);
            }
            fn rndv_dest(&mut self, rreq: u64, total: usize) -> RndvDest {
                self.inner.rndv_dest(rreq, total)
            }
            fn on_rndv_complete(&mut self, rreq: u64, total: usize) {
                self.inner.on_rndv_complete(rreq, total);
            }
        }

        let (mut tx, mut rx) = pair();
        for i in 0..3u8 {
            tx.queue_eager(&env(4), &[i; 4]);
            tx.queue_bytes(packet::encode_sync_ack(i as u64));
        }
        let mut keeper = Keeper::default();
        for _ in 0..100 {
            tx.pump_out().unwrap();
            rx.pump_in(&mut keeper).unwrap();
        }
        assert_eq!(
            keeper.inner.acks,
            vec![0, 1, 2],
            "control frames in between"
        );
        assert_eq!(keeper.kept.len(), 3);
        for (i, (e, body)) in keeper.kept.iter().enumerate() {
            assert_eq!((e.tag, e.len), (5, 4));
            assert_eq!(Envelope::decode(body).unwrap(), *e, "the envelope leads");
            assert_eq!(&body[ENVELOPE_LEN..], &[i as u8; 4]);
        }
        // The default hand-over is `on_eager` on the data, body returned:
        // one buffer serves every frame.
        let mut plain = RecordingSink::default();
        for i in 0..3u8 {
            tx.queue_eager(&env(2), &[i; 2]);
            pump_until_idle(&mut tx, &mut rx, &mut plain);
        }
        assert_eq!(plain.eager.len(), 3);
        assert_eq!(plain.eager[2].1, vec![2u8; 2]);
        assert!(tx.spare_frames.len() <= SPARE_FRAMES && !tx.spare_frames.is_empty());
    }

    /// Capacity held for a partially received control/eager body.
    fn buffered_capacity(link: &LinkState) -> usize {
        match &link.in_state {
            InState::Body { buf, .. } => buf.capacity(),
            _ => 0,
        }
    }

    fn raw_frame(claimed_len: u32, kind: PacketKind, body: &[u8]) -> Vec<u8> {
        let mut frame = claimed_len.to_le_bytes().to_vec();
        frame.push(kind as u8);
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn inflated_eager_header_buffers_only_what_arrives() {
        // A header claiming a 4 GiB eager body, three body bytes, then the
        // peer goes away: what is held is what was sent, and the failure
        // is the transport's.
        let (mut tx, mut rx) = pair();
        let frame = raw_frame(u32::MAX, PacketKind::Eager, &[1, 2, 3]);
        let written = frame.len();
        tx.queue_bytes(frame);
        tx.pump_out().unwrap();
        let mut sink = RecordingSink::default();
        assert!(rx.pump_in(&mut sink).unwrap());
        assert!(matches!(rx.in_state, InState::Body { .. }));
        assert!(buffered_capacity(&rx) <= written);
        drop(tx);
        assert!(matches!(rx.pump_in(&mut sink), Err(MpcError::Transport(_))));
        assert!(buffered_capacity(&rx) <= written);
        assert!(sink.eager.is_empty());
    }

    #[test]
    fn wrong_length_control_frames_are_refused_at_the_header() {
        for (kind, body) in [
            (PacketKind::RndvCts, 24),
            (PacketKind::RndvCts, 8),
            (PacketKind::SyncAck, 16),
            (PacketKind::RndvRts, ENVELOPE_LEN + 1),
            (PacketKind::Eager, ENVELOPE_LEN - 1),
            (PacketKind::RndvData, 7),
        ] {
            let (mut tx, mut rx) = pair();
            tx.queue_bytes(raw_frame(body as u32 + 1, kind, &vec![0; body]));
            tx.pump_out().unwrap();
            let mut sink = RecordingSink::default();
            match rx.pump_in(&mut sink) {
                Err(MpcError::Protocol(why)) => assert!(why.contains(&format!("{kind:?}"))),
                other => panic!("{kind:?}/{body}: expected Protocol, got {other:?}"),
            }
            assert_eq!(buffered_capacity(&rx), 0, "nothing buffered for {kind:?}");
            assert!(sink.cts.is_empty() && sink.acks.is_empty() && sink.rts.is_empty());
        }
    }

    #[test]
    fn disconnect_surfaces_as_transport_error() {
        let (tx, mut rx) = pair();
        drop(tx);
        let mut sink = RecordingSink::default();
        assert!(matches!(rx.pump_in(&mut sink), Err(MpcError::Transport(_))));
    }
}
