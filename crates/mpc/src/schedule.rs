//! Collective schedules and their one executor (the collectives section
//! of the [`comm`](crate::comm) module docs says how they work).

use crate::comm::Comm;
use crate::dtype::{reduce_in_place, DType, ReduceOp};
use crate::error::{MpcError, MpcResult};
use crate::request::Request;

/// A collective and its arguments. Roots and peers are communicator
/// ranks; counts are bytes per rank, significant at the root only.
#[derive(Clone, Copy, Debug)]
pub enum Coll<'a> {
    /// Dissemination barrier.
    Barrier,
    /// Binomial-tree broadcast of the receive buffer from a root.
    Bcast(usize),
    /// Root's send buffer in equal parts, in rank order, to every rank.
    Scatter(usize),
    /// Every send buffer into root's receive buffer, in rank order.
    Gather(usize),
    /// [`Coll::Scatter`] of `counts[r]` bytes to rank r.
    Scatterv(&'a [usize], usize),
    /// [`Coll::Gather`] of `counts[r]` bytes from rank r.
    Gatherv(&'a [usize], usize),
    /// Ring allgather.
    Allgather,
    /// Rank-ordered reduction to a root.
    Reduce(DType, ReduceOp, usize),
    /// The rank-ordered reduction to rank 0, then its broadcast.
    Allreduce(DType, ReduceOp),
    /// Pairwise exchange of parts of the given size.
    Alltoall(usize),
    /// Inclusive prefix reduction along a chain.
    Scan(DType, ReduceOp),
}

/// The buffer a block lies in: the call's send or receive buffer, or the
/// schedule's scratch.
#[derive(Clone, Copy)]
enum Buf {
    Send,
    Recv,
    Scratch,
}

/// `len` bytes at an offset of a buffer: `(buffer, offset, len)`.
type Block = (Buf, usize, usize);

/// One step: the first two are posted, the other two applied on the spot.
#[derive(Clone, Copy)]
enum Step {
    /// Send the block to a rank, with a tag.
    Send(usize, i32, Block),
    /// Receive from a rank, with a tag, into the block.
    Recv(usize, i32, Block),
    /// Fold the second block into the first, elementwise.
    ReduceInto(Block, Block, DType, ReduceOp),
    /// Copy the second block into the first.
    Copy(Block, Block),
}

/// One rank's part of one collective call: its steps in rounds, and the
/// requests of the round in flight.
pub struct Schedule<'c> {
    comm: &'c Comm,
    send: (*const u8, usize),
    recv: (*mut u8, usize),
    scratch: Vec<u8>,
    /// Every step with its round, in round order; `next` is the first
    /// step not started yet.
    steps: Vec<(usize, Step)>,
    next: usize,
    /// The requests of the round started last, and a failure among them.
    reqs: Vec<Request>,
    failed: Option<MpcError>,
}

impl<'c> Schedule<'c> {
    /// This rank's schedule of `coll` over its buffers, for the caller to
    /// [`advance`](Schedule::advance). Bad arguments are a typed error,
    /// returned before anything is posted.
    ///
    /// # Safety
    /// As [`Comm::isend_ptr`], for both buffers: they stay valid and
    /// stable, and nothing else touches `recv`, until
    /// [`Schedule::advance`] has returned `Some` or an error.
    pub unsafe fn new(comm: &'c Comm, send: &[u8], recv: &mut [u8], coll: Coll) -> MpcResult<Self> {
        Schedule::build(comm, send, recv, coll)
    }

    /// A blocking collective: build, then wait the schedule out in one
    /// trip through the wait loop. Sound without `unsafe`: both borrows
    /// outlive the wait, which ends only once every posted request has
    /// settled.
    pub(crate) fn run(comm: &'c Comm, send: &[u8], recv: &mut [u8], coll: Coll) -> MpcResult<()> {
        let mut s = Schedule::build(comm, send, recv, coll)?;
        comm.device().wait_until(0, || s.advance(), || {})
    }

    /// The whole schedule, built in one go: nothing adds a step to it
    /// later, and its scratch is sized here once.
    fn build(comm: &'c Comm, send: &[u8], recv: &mut [u8], coll: Coll) -> MpcResult<Self> {
        let mut s = Schedule {
            comm,
            send: (send.as_ptr(), send.len()),
            recv: (recv.as_mut_ptr(), recv.len()),
            scratch: Vec::new(),
            steps: Vec::new(),
            next: 0,
            reqs: Vec::new(),
            failed: None,
        };
        use Coll::*;
        let root = match coll {
            Bcast(r) | Scatter(r) | Gather(r) | Scatterv(_, r) | Gatherv(_, r) | Reduce(.., r) => r,
            _ => 0,
        };
        if root >= comm.size() {
            return Err(MpcError::InvalidRank(root as i32));
        }
        match coll {
            Barrier => s.barrier(),
            Bcast(root) => s.bcast(root),
            Scatter(root) => s.linear(root, 1_001, true, None)?,
            Gather(root) => s.linear(root, 1_002, false, None)?,
            Scatterv(counts, root) => s.linear(root, 1_007, true, Some(counts))?,
            Gatherv(counts, root) => s.linear(root, 1_006, false, Some(counts))?,
            Allgather => s.allgather()?,
            Reduce(dtype, op, root) => s.reduce(dtype, op, root)?,
            Allreduce(dtype, op) => {
                s.check_fold(dtype)?;
                s.reduce(dtype, op, 0)?;
                s.bcast(0);
            }
            Alltoall(chunk) => s.alltoall(chunk)?,
            Scan(dtype, op) => s.scan(dtype, op)?,
        }
        Ok(s)
    }

    /// Number of rounds.
    pub fn rounds(&self) -> usize {
        self.steps.last().map_or(0, |&(round, _)| round + 1)
    }

    /// Number of sends.
    pub fn sends(&self) -> usize {
        let is_send = |s: &&(usize, Step)| matches!(s.1, Step::Send(..));
        self.steps.iter().filter(is_send).count()
    }

    /// The executor. Once every request of the round in flight has an
    /// outcome, start the next round: its steps in order, local ones
    /// applied, sends and receives posted. `Some` once the last round has
    /// settled; an error once the round that failed has, which ends the
    /// schedule.
    pub fn advance(&mut self) -> MpcResult<Option<()>> {
        let (comm, ctx) = (self.comm, self.comm.context() + 1);
        loop {
            while let Some(req) = self.reqs.last() {
                match req.outcome() {
                    Ok(None) => return Ok(None),
                    Ok(Some(_)) => {}
                    Err(e) => self.failed = Some(e),
                }
                self.reqs.pop();
            }
            if let Some(e) = self.failed.take() {
                self.next = self.steps.len();
                return Err(e);
            }
            let Some(&(round, _)) = self.steps.get(self.next) else {
                return Ok(Some(()));
            };
            while let Some(&(_, step)) = self.steps.get(self.next).filter(|s| s.0 == round) {
                self.next += 1;
                let dev = comm.device();
                // SAFETY: the send and receive windows are the caller's,
                // valid and stable until the schedule ends (`new`'s
                // contract, or the borrows `run` holds); the scratch is
                // owned and sized once, by `build`. `window` keeps every
                // block inside its buffer. A round's steps start in order,
                // so a local step reads a block before a later receive of
                // the round is posted into it, and no two requests of a
                // round touch a block one of them writes.
                let posted = unsafe {
                    match step {
                        Step::Send(to, tag, block) => {
                            let ((ptr, len), env) = (self.window(block), comm.envelope(tag, true));
                            let send = |g| dev.isend_raw(g, env, ptr, len, false);
                            comm.global_rank(to).and_then(send).map(Some)
                        }
                        Step::Recv(from, tag, block) => {
                            let (ptr, len) = self.window(block);
                            let recv = |g| dev.irecv_raw(g as i32, tag, ctx, ptr, len);
                            comm.global_rank(from).and_then(recv).map(Some)
                        }
                        Step::ReduceInto(acc, from, dtype, op) => {
                            let ((a, n), (b, m)) = (self.window(acc), self.window(from));
                            let acc = std::slice::from_raw_parts_mut(a, n);
                            reduce_in_place(op, dtype, acc, std::slice::from_raw_parts(b, m));
                            Ok(None)
                        }
                        Step::Copy(to, from) => {
                            let ((a, n), (b, m)) = (self.window(to), self.window(from));
                            let to = std::slice::from_raw_parts_mut(a, n);
                            to.copy_from_slice(std::slice::from_raw_parts(b, m));
                            Ok(None)
                        }
                    }
                };
                match posted {
                    Ok(req) => self.reqs.extend(req),
                    Err(e) => {
                        self.failed = Some(e);
                        break;
                    }
                }
            }
        }
    }

    /// The raw window of `block`; panics if the block leaves its buffer.
    fn window(&mut self, (buf, off, len): Block) -> (*mut u8, usize) {
        let (base, cap) = match buf {
            Buf::Send => (self.send.0.cast_mut(), self.send.1),
            Buf::Recv => self.recv,
            Buf::Scratch => (self.scratch.as_mut_ptr(), self.scratch.len()),
        };
        let inside = off.checked_add(len).is_some_and(|end| end <= cap);
        assert!(inside, "block {off}+{len} outside its {cap}-byte buffer");
        (base.wrapping_add(off), len)
    }

    fn push(&mut self, round: usize, step: Step) {
        self.steps.push((round, step));
    }

    /// A reduction's two buffers: the same length, in whole elements.
    fn check_fold(&self, dtype: DType) -> MpcResult<()> {
        let (s, r) = (self.send.1, self.recv.1);
        let ok = s == r && s % dtype.size() == 0;
        ensure(ok, || format!("{dtype:?} reduction over {s} and {r} bytes"))
    }

    /// Dissemination barrier, ⌈log₂ n⌉ rounds: in round k a token goes to
    /// rank + 2ᵏ and one comes from rank − 2ᵏ, both in the scratch.
    fn barrier(&mut self) {
        let (n, me) = (self.comm.size(), self.comm.rank());
        self.scratch = vec![0; 2];
        for (k, d) in (0..).map(|k| (k, 1 << k)).take_while(|&(_, d)| d < n) {
            let (from, to, tag) = ((me + n - d) % n, (me + d) % n, k as i32);
            self.push(k, Step::Recv(from, tag, (Buf::Scratch, 1, 1)));
            self.push(k, Step::Send(to, tag, (Buf::Scratch, 0, 1)));
        }
    }

    /// Binomial-tree broadcast of the receive buffer from `root`, after
    /// any rounds already built: receive from the parent (the virtual
    /// rank, root = 0, with its lowest set bit cleared), then send to every
    /// child (one bit below it set).
    fn bcast(&mut self, root: usize) {
        let (n, me) = (self.comm.size(), self.comm.rank());
        let all = (Buf::Recv, 0, self.recv.1);
        let (vrank, mut round) = ((me + n - root) % n, self.rounds());
        if vrank != 0 {
            let parent = ((vrank & (vrank - 1)) + root) % n;
            self.push(round, Step::Recv(parent, 1_000, all));
            round += 1;
        }
        let bits = (0..)
            .map(|b| 1 << b)
            .take_while(|&m| m < n && vrank & m == 0);
        for child in bits.map(|m| vrank | m).filter(|&c| c < n) {
            self.push(round, Step::Send((child + root) % n, 1_000, all));
        }
    }

    /// Both scatters and both gathers, in one round: root exchanges part r
    /// of its buffer — `counts[r]` bytes, or equal parts, in rank order —
    /// with every rank r and copies its own. The variable-count scatter
    /// sends nothing for an empty part.
    fn linear(
        &mut self,
        root: usize,
        tag: i32,
        scatter: bool,
        v: Option<&[usize]>,
    ) -> MpcResult<()> {
        let (n, me) = (self.comm.size(), self.comm.rank());
        // Root's parts lie in `theirs`, every rank's own part in `ours`.
        let ((theirs, whole), (ours, mine)) = match scatter {
            true => ((Buf::Send, self.send.1), (Buf::Recv, self.recv.1)),
            false => ((Buf::Recv, self.recv.1), (Buf::Send, self.send.1)),
        };
        let outward = scatter == (me == root);
        let exchange = |peer, block| match outward {
            true => Step::Send(peer, tag, block),
            false => Step::Recv(peer, tag, block),
        };
        let skip = |len| scatter && v.is_some() && len == 0;
        if me != root {
            if !skip(mine) {
                self.push(0, exchange(root, (ours, 0, mine)));
            }
            return Ok(());
        }
        let count = |r: usize| v.map_or(mine, |counts| counts[r]);
        // The caller's counts become raw windows: their sum must not wrap.
        let sum = || (0..n).try_fold(0usize, |t, r| t.checked_add(count(r)));
        let ok = v.is_none_or(|counts| counts.len() == n) && sum() == Some(whole);
        ensure(ok && count(root) == mine, || {
            format!("root's parts do not fill its {whole} bytes with {mine} its own")
        })?;
        let mut off = 0;
        for (r, c) in (0..n).map(|r| (r, count(r))) {
            let part = (theirs, off, c);
            off += c;
            if r == root {
                let own = (ours, 0, mine);
                let (to, from) = if scatter { (own, part) } else { (part, own) };
                self.push(0, Step::Copy(to, from));
            } else if !skip(c) {
                self.push(0, exchange(r, part));
            }
        }
        Ok(())
    }

    /// Ring allgather, n − 1 rounds: in round s the block that originated
    /// at rank − s goes right and the one from rank − s − 1 comes from the
    /// left, straight into its place in the receive buffer.
    fn allgather(&mut self) -> MpcResult<()> {
        let (n, me, chunk, len) = (self.comm.size(), self.comm.rank(), self.send.1, self.recv.1);
        ensure(chunk.checked_mul(n) == Some(len), || {
            format!("allgather recv buffer is {len} bytes, not {n} × {chunk}")
        })?;
        let block = |b: usize| (Buf::Recv, (b % n) * chunk, chunk);
        self.push(0, Step::Copy(block(me), (Buf::Send, 0, chunk)));
        for s in 0..n - 1 {
            let tag = 1_003 + s as i32;
            self.push(s, Step::Recv((me + n - 1) % n, tag, block(me + n - s - 1)));
            self.push(s, Step::Send((me + 1) % n, tag, block(me + n - s)));
        }
        Ok(())
    }

    /// Rank-ordered reduction to `root`, so deterministic for floating
    /// point: root folds ranks 0, 1, …, n − 1 into its receive buffer in
    /// that order, one receive into the scratch per round.
    fn reduce(&mut self, dtype: DType, op: ReduceOp, root: usize) -> MpcResult<()> {
        let (n, me, len) = (self.comm.size(), self.comm.rank(), self.send.1);
        if me != root {
            self.push(0, Step::Send(root, 1_004, (Buf::Send, 0, len)));
            return Ok(());
        }
        self.check_fold(dtype)?;
        self.scratch = vec![0; len];
        let (acc, part, mut round) = ((Buf::Recv, 0, len), (Buf::Scratch, 0, len), 0);
        for r in 0..n {
            if r != root {
                self.push(round, Step::Recv(r, 1_004, part));
                round += 1;
            }
            let from = if r == root { (Buf::Send, 0, len) } else { part };
            let step = match r {
                0 => Step::Copy(acc, from),
                _ => Step::ReduceInto(acc, from, dtype, op),
            };
            self.push(round, step);
        }
        Ok(())
    }

    /// Pairwise all-to-all of `chunk`-byte parts: every receive, then
    /// every send, in one round.
    fn alltoall(&mut self, chunk: usize) -> MpcResult<()> {
        let (n, me) = (self.comm.size(), self.comm.rank());
        let whole = chunk.checked_mul(n);
        let ok = whole == Some(self.send.1) && whole == Some(self.recv.1);
        ensure(ok, || "alltoall buffer size mismatch".into())?;
        let part = |buf, r: usize| (buf, r * chunk, chunk);
        self.push(0, Step::Copy(part(Buf::Recv, me), part(Buf::Send, me)));
        for r in (0..n).filter(|&r| r != me) {
            self.push(0, Step::Recv(r, 1_100, part(Buf::Recv, r)));
        }
        for r in (0..n).filter(|&r| r != me) {
            self.push(0, Step::Send(r, 1_100, part(Buf::Send, r)));
        }
        Ok(())
    }

    /// Inclusive prefix reduction along a chain: receive the prefix of the
    /// ranks to the left, fold in this rank's part, pass it right.
    fn scan(&mut self, dtype: DType, op: ReduceOp) -> MpcResult<()> {
        self.check_fold(dtype)?;
        let (n, me) = (self.comm.size(), self.comm.rank());
        let (acc, mine) = ((Buf::Recv, 0, self.recv.1), (Buf::Send, 0, self.send.1));
        if me == 0 {
            self.push(0, Step::Copy(acc, mine));
        } else {
            self.push(0, Step::Recv(me - 1, 1_005, acc));
            self.push(1, Step::ReduceInto(acc, mine, dtype, op));
        }
        if me + 1 < n {
            self.push(self.rounds() - 1, Step::Send(me + 1, 1_005, acc));
        }
        Ok(())
    }
}

/// `Ok` if `ok`, else a protocol error saying `what`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> MpcResult<()> {
    ok.then_some(()).ok_or_else(|| MpcError::Protocol(what()))
}

impl Drop for Schedule<'_> {
    /// A schedule dropped with a round in flight leaves its scratch to the
    /// receives that may still land in it.
    fn drop(&mut self) {
        if self.reqs.iter().any(|r| matches!(r.outcome(), Ok(None))) {
            std::mem::forget(std::mem::take(&mut self.scratch));
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    use motor_pal::link::shm_pair;

    use super::*;
    use crate::channel::LinkState;
    use crate::device::{Device, DeviceConfig};
    use crate::dtype::as_bytes;
    use crate::progress::Caller;

    /// `n` ranks over in-process pairs, all driven from this thread. A
    /// 16-byte eager threshold sends the larger blocks by single-copy
    /// rendezvous.
    fn mesh(n: usize) -> Vec<Comm> {
        let config = DeviceConfig {
            eager_threshold: 16,
            ..DeviceConfig::default()
        };
        let devs: Vec<_> = (0..n).map(|r| Device::new(r, config.clone())).collect();
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = shm_pair(4096);
                devs[i].set_link(j, LinkState::new(Box::new(a)));
                devs[j].set_link(i, LinkState::new(Box::new(b)));
            }
        }
        let group = Arc::new((0..n).collect::<Vec<_>>());
        let ctx = Arc::new(AtomicU32::new(2));
        let assemble = |(r, d)| Comm::assemble(d, 0, Arc::clone(&group), r, Arc::clone(&ctx));
        devs.into_iter().enumerate().map(assemble).collect()
    }

    /// One schedule of `coll` per rank over its own pair of buffers,
    /// advanced in turn with a pass of every device in between until all
    /// are done.
    fn run_all(world: &[Comm], send: &[Vec<u8>], recv: &mut [Vec<u8>], coll: Coll) {
        let bufs = world.iter().zip(send).zip(recv.iter_mut());
        // SAFETY: the buffers outlive the loop below, which runs every
        // schedule to its end.
        let new =
            |((c, s), r): ((_, &Vec<u8>), &mut Vec<u8>)| unsafe { Schedule::new(c, s, r, coll) };
        let mut scheds: Vec<_> = bufs.map(|b| new(b).unwrap()).collect();
        let mut done = vec![false; scheds.len()];
        for _ in 0..10_000 {
            for (s, d) in scheds.iter_mut().zip(&mut done) {
                *d = *d || s.advance().unwrap().is_some();
            }
            if done.iter().all(|&d| d) {
                return;
            }
            pump(world);
        }
        panic!("schedules did not finish");
    }

    fn bytes<T: crate::dtype::MpcPrim>(xs: &[T]) -> Vec<u8> {
        as_bytes(xs).to_vec()
    }

    #[test]
    fn every_collective_runs_on_one_thread() {
        let world = mesh(3);
        let n = world.len();
        let none = vec![Vec::new(); n];

        // f64 allreduce: the rank-ordered fold, bit for bit.
        let vals = |r: usize| [0.1 + r as f64 / 3.0, 1e16 + r as f64];
        let send: Vec<_> = (0..n).map(|r| bytes(&vals(r))).collect();
        let mut recv = vec![vec![0u8; 16]; n];
        run_all(
            &world,
            &send,
            &mut recv,
            Coll::Allreduce(DType::F64, ReduceOp::Sum),
        );
        let want = (1..n).fold(vals(0), |a, r| [a[0] + vals(r)[0], a[1] + vals(r)[1]]);
        assert!(recv.iter().all(|v| *v == bytes(&want)), "allreduce");

        // Ring allgather of rendezvous-sized blocks.
        let send: Vec<_> = (0..n).map(|r| vec![r as u8 + 1; 24]).collect();
        let mut recv = vec![vec![0u8; 24 * n]; n];
        run_all(&world, &send, &mut recv, Coll::Allgather);
        assert!(recv.iter().all(|v| *v == send.concat()), "allgather");

        // Broadcast from a middle root.
        let mut buf: Vec<_> = (0..n).map(|r| vec![7 * u8::from(r == 1); 32]).collect();
        run_all(&world, &none, &mut buf, Coll::Bcast(1));
        assert!(buf.iter().all(|b| *b == [7; 32]), "bcast");

        // Reduce to the last rank, and a scan.
        let send: Vec<_> = (0..n).map(|r| bytes(&[r as i64 + 1, 10])).collect();
        let mut recv: Vec<_> = (0..n)
            .map(|r| vec![0u8; if r == 2 { 16 } else { 0 }])
            .collect();
        run_all(
            &world,
            &send,
            &mut recv,
            Coll::Reduce(DType::I64, ReduceOp::Sum, 2),
        );
        assert_eq!(recv[2], bytes(&[6i64, 30]), "reduce");
        let mut recv = vec![vec![0u8; 16]; n];
        run_all(
            &world,
            &send,
            &mut recv,
            Coll::Scan(DType::I64, ReduceOp::Sum),
        );
        for (r, got) in recv.iter().enumerate() {
            let prefix = (1..=r as i64 + 1).sum::<i64>();
            assert_eq!(*got, bytes(&[prefix, 10 * (r as i64 + 1)]), "scan at {r}");
        }

        // Alltoall and a barrier.
        let send: Vec<_> = (0..n)
            .map(|r| (0..n).map(|d| (10 * r + d) as u8).collect())
            .collect();
        let mut recv = vec![vec![0u8; n]; n];
        run_all(&world, &send, &mut recv, Coll::Alltoall(1));
        for (r, got) in recv.iter().enumerate() {
            assert!(got
                .iter()
                .enumerate()
                .all(|(src, &b)| b as usize == 10 * src + r));
        }
        run_all(&world, &none, &mut none.clone(), Coll::Barrier);

        // Scatterv with an empty part, then gatherv back.
        let counts = [20, 0, 5];
        let flat: Vec<u8> = (0..25).collect();
        let send: Vec<_> = (0..n)
            .map(|r| if r == 0 { flat.clone() } else { vec![] })
            .collect();
        let mut parts: Vec<_> = counts.iter().map(|&c| vec![0u8; c]).collect();
        run_all(&world, &send, &mut parts, Coll::Scatterv(&counts, 0));
        assert_eq!(parts.concat(), flat, "scatterv");
        let mut back: Vec<_> = (0..n)
            .map(|r| vec![0u8; if r == 0 { 25 } else { 0 }])
            .collect();
        run_all(&world, &parts, &mut back, Coll::Gatherv(&counts, 0));
        assert_eq!(back[0], flat, "gatherv");
    }

    #[test]
    fn argument_errors_come_back_before_anything_is_posted() {
        let world = mesh(2);
        let c = &world[0];
        let refusal = |send: &[u8], recv: &mut [u8], coll| {
            // SAFETY: every schedule below is refused, so nothing is posted.
            let s = unsafe { Schedule::new(c, send, recv, coll) };
            s.err().expect("the builder refuses")
        };
        let (s4, mut r4, mut r16) = ([0u8; 4], [0u8; 4], [0u8; 16]);
        let sum = (DType::I32, ReduceOp::Sum);
        let invalid = |e| matches!(e, MpcError::InvalidRank(2));
        assert!(invalid(refusal(&[], &mut r4, Coll::Bcast(2))));
        assert!(invalid(refusal(&s4, &mut r4, Coll::Scatter(2))));
        assert!(invalid(refusal(&s4, &mut r4, Coll::Gather(2))));
        assert!(invalid(refusal(&s4, &mut r4, Coll::Gatherv(&[4, 4], 2))));
        assert!(invalid(refusal(&s4, &mut r4, Coll::Scatterv(&[4, 4], 2))));
        assert!(invalid(refusal(
            &s4,
            &mut r4,
            Coll::Reduce(sum.0, sum.1, 2)
        )));
        let protocol = |e| matches!(e, MpcError::Protocol(_));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Scatter(0))));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Gather(0))));
        assert!(protocol(refusal(
            &s4,
            &mut r16,
            Coll::Reduce(sum.0, sum.1, 0)
        )));
        assert!(protocol(refusal(
            &s4,
            &mut r16,
            Coll::Allreduce(sum.0, sum.1)
        )));
        assert!(protocol(refusal(&s4, &mut r16, Coll::Scan(sum.0, sum.1))));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Gatherv(&[4], 0))));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Scatterv(&[2, 2], 0))));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Allgather)));
        assert!(protocol(refusal(&s4, &mut r4, Coll::Alltoall(4))));
        assert!(protocol(refusal(
            &[0; 6],
            &mut [0; 6],
            Coll::Scan(sum.0, sum.1)
        )));
        // Sizes that would wrap are refused, not turned into windows.
        let huge = usize::MAX / 2 + 1;
        assert!(protocol(refusal(&[], &mut [], Coll::Alltoall(huge))));
        let wraps = [4, usize::MAX];
        assert!(protocol(refusal(&s4, &mut r4, Coll::Gatherv(&wraps, 0))));
        assert_eq!(c.device().queue_depths(), (0, 0, 0, 0), "nothing posted");
    }

    #[test]
    fn rounds_and_sends_follow_the_algorithm() {
        let world = mesh(5);
        // SAFETY: these schedules are built, counted and dropped unposted.
        let new = |r: usize, recv: &mut [u8], coll| unsafe {
            Schedule::new(&world[r], &[0; 8], recv, coll).unwrap()
        };
        assert_eq!(new(3, &mut [], Coll::Barrier).rounds(), 3);
        assert_eq!(new(3, &mut [0; 40], Coll::Allgather).rounds(), 4);
        assert_eq!(new(0, &mut [], Coll::Bcast(0)).sends(), 3);
        assert_eq!(new(1, &mut [], Coll::Bcast(0)).sends(), 0);
        assert_eq!(new(2, &mut [], Coll::Bcast(0)).sends(), 1);
        let reduce = Coll::Reduce(DType::U8, ReduceOp::Sum, 1);
        assert_eq!(new(0, &mut [], reduce).sends(), 1);
        // Allreduce is the reduction's rounds, then the broadcast's after
        // them: rank 0 receives from 1..5 in four rounds, folds the last
        // part in a fifth, and sends to its three children in a sixth.
        let allreduce = new(0, &mut [0; 8], Coll::Allreduce(DType::U8, ReduceOp::Sum));
        assert_eq!((allreduce.rounds(), allreduce.sends()), (6, 3));
    }

    /// A schedule dropped with a receive into its scratch still posted
    /// leaves the scratch to that receive: the late part lands in live
    /// memory (Miri checks that it does; the leak is deliberate).
    #[test]
    fn a_schedule_dropped_mid_round_leaves_its_scratch_to_the_device() {
        let world = mesh(2);
        let (part, mut sum) = ([1u8; 8], [0u8; 8]);
        let reduce = Coll::Reduce(DType::U8, ReduceOp::Sum, 0);
        // SAFETY: `part` and `sum` outlive both schedules and every pass.
        let mut root = unsafe { Schedule::new(&world[0], &part, &mut sum, reduce) }.unwrap();
        assert_eq!(root.advance().unwrap(), None, "waits for rank 1's part");
        drop(root);
        // SAFETY: as above.
        let mut leaf = unsafe { Schedule::new(&world[1], &part, &mut [], reduce) }.unwrap();
        while leaf.advance().unwrap().is_none() {
            pump(&world);
        }
        for _ in 0..16 {
            pump(&world);
        }
        assert_eq!(world[0].device().queue_depths().0, 0, "the receive matched");
    }

    /// The builders keep every block inside its buffer; should one not,
    /// the executor stops before the block becomes a raw window.
    #[test]
    #[should_panic(expected = "outside its 4-byte buffer")]
    fn a_block_outside_its_buffer_panics_before_it_becomes_a_window() {
        let world = mesh(1);
        let (send, mut recv) = ([1u8; 4], [0u8; 4]);
        // SAFETY: both buffers outlive the schedule; nothing is posted.
        let mut s = unsafe { Schedule::new(&world[0], &send, &mut recv, Coll::Barrier) }.unwrap();
        s.push(0, Step::Copy((Buf::Recv, 2, 4), (Buf::Send, 0, 4)));
        let _ = s.advance();
    }

    fn pump(world: &[Comm]) {
        for c in world {
            c.device().pass(Caller::Rank);
        }
    }
}
