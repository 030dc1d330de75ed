//! The linear request discipline on the typed pending operations,
//! observed through a fake transport: every issued request must reach
//! exactly one completion — `wait()`, a successful `test()`, or an
//! explicit `forget()` — and abandoning one is a panic, mirroring the
//! static verifier's rule for managed IL.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use motor_api::comm::Comm;
use motor_api::{Coll, Communicator, Error, Result, Source, Status, Tag};

/// A transport that completes everything instantly and counts waits.
#[derive(Default)]
struct FakeComm {
    waited: Cell<usize>,
    /// When set, receives complete truncated with this many message bytes.
    truncate_to: Cell<Option<usize>>,
}

struct FakeReq {
    bytes: usize,
}

impl FakeComm {
    fn status(&self, bytes: usize) -> Status {
        match self.truncate_to.get() {
            Some(msg) => Status {
                source: 1,
                tag: 0,
                count: msg,
                truncated: true,
            },
            None => Status {
                source: 1,
                tag: 0,
                count: bytes,
                truncated: false,
            },
        }
    }
}

impl Comm for FakeComm {
    type Request = FakeReq;

    fn rank(&self) -> usize {
        0
    }
    fn size(&self) -> usize {
        2
    }
    unsafe fn isend_raw(
        &self,
        _ptr: *const u8,
        len: usize,
        _dest: usize,
        _tag: Tag,
    ) -> Result<FakeReq> {
        Ok(FakeReq { bytes: len })
    }
    unsafe fn irecv_raw(
        &self,
        _ptr: *mut u8,
        cap: usize,
        _src: Source,
        _tag: Tag,
    ) -> Result<FakeReq> {
        Ok(FakeReq { bytes: cap })
    }
    fn wait(&self, req: &FakeReq) -> Result<Status> {
        self.waited.set(self.waited.get() + 1);
        Ok(self.status(req.bytes))
    }
    fn test(&self, req: &FakeReq) -> Result<Option<Status>> {
        Ok(Some(self.status(req.bytes)))
    }
    fn probe(&self, _src: Source, _tag: Tag) -> Result<Status> {
        unimplemented!("not exercised")
    }
    fn iprobe(&self, _src: Source, _tag: Tag) -> Result<Option<Status>> {
        Ok(None)
    }
    fn collective(&self, _send: &[u8], _recv: &mut [u8], _coll: Coll) -> Result<()> {
        Ok(())
    }
    fn send_bytes(&self, _buf: &[u8], _dest: usize, _tag: Tag) -> Result<()> {
        Ok(())
    }
    fn recv_bytes(&self, buf: &mut [u8], _src: Source, _tag: Tag) -> Result<Status> {
        Ok(self.status(buf.len()))
    }
}

#[test]
fn wait_completes_send_and_recv() {
    let comm = Communicator::native(FakeComm::default());
    let data = [1i32, 2, 3, 4];
    let pending = comm.isend_slice(&data, 1, 0).unwrap();
    pending.wait().unwrap();
    assert_eq!(comm.comm().waited.get(), 1);

    let mut buf = [0i32; 4];
    let pending = comm.irecv_slice(&mut buf, 1, 0).unwrap();
    let n = pending.wait().unwrap();
    assert_eq!(n, 4, "wait reports received elements, not bytes");
    assert_eq!(comm.comm().waited.get(), 2);
}

#[test]
fn successful_test_defuses_the_bomb() {
    let comm = Communicator::native(FakeComm::default());
    let data = [7u8; 3];
    let mut pending = comm.isend_slice(&data, 1, 0).unwrap();
    assert!(
        pending.test().unwrap(),
        "fake transport completes instantly"
    );
    drop(pending); // completed: no panic

    let mut buf = [0u8; 3];
    let mut pending = comm.irecv_slice(&mut buf, 1, 0).unwrap();
    assert_eq!(pending.test().unwrap(), Some(3));
    drop(pending);
}

#[test]
fn forget_explicitly_abandons() {
    let comm = Communicator::native(FakeComm::default());
    let data = [0u8; 8];
    let pending = comm.isend_slice(&data, 1, 0).unwrap();
    pending.forget();
    assert_eq!(
        comm.comm().waited.get(),
        0,
        "forget never completes the request"
    );
}

#[test]
fn dropping_an_incomplete_send_panics() {
    let comm = Communicator::native(FakeComm::default());
    let data = [0i64; 2];
    let panic = catch_unwind(AssertUnwindSafe(|| {
        let pending = comm.isend_slice(&data, 1, 0).unwrap();
        drop(pending);
    }))
    .expect_err("abandoning a pending send must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("PendingSend dropped without wait()"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn dropping_an_incomplete_recv_panics() {
    let comm = Communicator::native(FakeComm::default());
    let mut buf = [0f64; 4];
    let panic = catch_unwind(AssertUnwindSafe(|| {
        let pending = comm.irecv_slice(&mut buf, 1, 0).unwrap();
        drop(pending);
    }))
    .expect_err("abandoning a pending receive must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("PendingRecv dropped without wait()"),
        "unexpected panic message: {msg}"
    );
}

#[test]
fn truncated_receive_surfaces_as_error() {
    let comm = Communicator::native(FakeComm::default());
    comm.comm().truncate_to.set(Some(64));
    let mut buf = [0u8; 16];
    let pending = comm.irecv_slice(&mut buf, 1, 0).unwrap();
    match pending.wait() {
        Err(Error::Truncated { message, buffer }) => {
            assert_eq!((message, buffer), (64, 16));
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}
