//! Readiness notification for the server's threads: a thin, Linux-only
//! binding to `epoll` plus an `eventfd` waker.
//!
//! The bindings are bare `extern "C"` declarations against the C library
//! std already links; this module is the only place in the server that
//! uses `unsafe`. File descriptors are held as [`OwnedFd`] (the eventfd as
//! a [`File`]), so closing and the 8-byte eventfd reads and writes go
//! through std.

use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

mod sys {
    use std::os::raw::{c_int, c_uint};

    /// `struct epoll_event`; the kernel packs it on x86_64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2_000_000;
    pub const EFD_CLOEXEC: c_int = 0o2_000_000;
    pub const EFD_NONBLOCK: c_int = 0o4_000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }
}

/// Maps a `-1` return to the thread's `errno`.
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    flags: u32,
}

impl Event {
    /// Bytes (or end of stream, or an error) are waiting to be read.
    pub fn readable(&self) -> bool {
        self.flags & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// The send buffer has room again (or the socket errored).
    pub fn writable(&self) -> bool {
        self.flags & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }
}

/// An epoll instance.
pub struct Poller {
    epfd: OwnedFd,
    buf: Vec<sys::EpollEvent>,
}

impl Poller {
    /// Most events one [`Poller::wait`] returns; the rest stay queued in
    /// the kernel for the next call.
    const BATCH: usize = 256;

    /// Creates an epoll instance.
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; on success the descriptor is ours alone.
        let fd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
        Ok(Self {
            // SAFETY: `fd` is a fresh descriptor nothing else owns.
            epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; Self::BATCH],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it.
        cvt(unsafe { sys::epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
    }

    /// Registers a socket edge-triggered for reads, writes and peer
    /// hang-up: each transition to ready is reported once, so the owner
    /// must read (or write) until `WouldBlock` before relying on the next
    /// report.
    pub fn add_edge(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
        let events = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), events, token)
    }

    /// Registers a descriptor level-triggered for reads: it is reported on
    /// every wait for as long as it stays readable.
    pub fn add_level(&self, fd: &impl AsRawFd, token: u64) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd.as_raw_fd(), sys::EPOLLIN, token)
    }

    /// Removes a registration. Closing a descriptor removes it only once
    /// every duplicate of the descriptor is closed too, so a descriptor
    /// that may have been duplicated must be deleted explicitly.
    pub fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks until some registered descriptor is ready or `timeout`
    /// passes (`None`: no timeout) and returns the reports. A timeout is
    /// rounded up to whole milliseconds, so the wait never ends before it;
    /// a signal interrupting the wait returns no reports.
    pub fn wait(
        &mut self,
        timeout: Option<Duration>,
    ) -> io::Result<impl Iterator<Item = Event> + '_> {
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        // SAFETY: the buffer holds `BATCH` initialised events, and the
        // kernel writes at most `maxevents` of them.
        let ret = unsafe {
            sys::epoll_wait(
                self.epfd.as_raw_fd(),
                self.buf.as_mut_ptr(),
                Self::BATCH as i32,
                timeout_ms,
            )
        };
        let n = match cvt(ret) {
            Ok(n) => n as usize,
            Err(e) if e.kind() == ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        Ok(self.buf[..n].iter().map(|e| Event {
            token: e.data,
            flags: e.events,
        }))
    }
}

/// Wakes one thread blocked in [`Poller::wait`] through an eventfd
/// registered on its poller.
///
/// The sleeping flag keeps a busy thread from paying a syscall per wake:
/// the owner calls [`Waker::prepare_sleep`], then re-checks every
/// condition it waits for, then blocks; a waker writes the eventfd only if
/// it swaps the flag from set to clear. Both sides use sequentially
/// consistent operations on the flag, so either the waker sees it set and
/// writes, or the owner's re-check (which follows its store) sees the
/// change the waker published before swapping.
pub struct Waker {
    fd: File,
    sleeping: AtomicBool,
}

impl Waker {
    /// Creates a nonblocking eventfd waker; register it on the owner's
    /// poller with [`Poller::add_level`].
    pub fn new() -> io::Result<Self> {
        // SAFETY: plain syscall; on success the descriptor is ours alone.
        let fd = cvt(unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) })?;
        Ok(Self {
            // SAFETY: `fd` is a fresh descriptor nothing else owns.
            fd: unsafe { File::from_raw_fd(fd) },
            sleeping: AtomicBool::new(false),
        })
    }

    /// Announces that the owner is about to block. The owner must re-check
    /// its wake conditions after this call and before blocking.
    pub fn prepare_sleep(&self) {
        self.sleeping.store(true, Ordering::SeqCst);
    }

    /// Clears the sleeping flag once the owner is running again.
    pub fn awake(&self) {
        self.sleeping.store(false, Ordering::SeqCst);
    }

    /// Wakes the owner if it announced it is blocking (or about to).
    pub fn wake(&self) {
        if self.sleeping.swap(false, Ordering::SeqCst) {
            // A full counter (`WouldBlock`) already means "wake up".
            let _ = (&self.fd).write(&1u64.to_ne_bytes());
        }
    }

    /// Resets the eventfd counter after it was reported readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.fd).read(&mut buf);
    }
}

impl AsRawFd for Waker {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn poll(poller: &mut Poller, timeout: Option<Duration>) -> Vec<Event> {
        poller.wait(timeout).unwrap().collect()
    }

    #[test]
    fn wait_times_out_with_no_events() {
        let mut poller = Poller::new().unwrap();
        let started = Instant::now();
        let events = poll(&mut poller, Some(Duration::from_micros(1500)));
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_micros(1500));
    }

    #[test]
    fn waker_writes_only_while_the_owner_sleeps() {
        let mut poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new().unwrap());
        poller.add_level(&*waker, 7).unwrap();

        // Not sleeping: the wake is a no-op, so the poll finds nothing.
        waker.wake();
        assert!(poll(&mut poller, Some(Duration::ZERO)).is_empty());

        // Sleeping: a wake from another thread ends an unbounded wait.
        waker.prepare_sleep();
        let remote = Arc::clone(&waker);
        let t = std::thread::spawn(move || remote.wake());
        let events = poll(&mut poller, None);
        t.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        waker.drain();
        assert!(poll(&mut poller, Some(Duration::ZERO)).is_empty());
    }

    #[test]
    fn edge_registration_reports_data_and_can_be_deleted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add_edge(&server, 3).unwrap();
        // Writable at once; no data yet.
        let events = poll(&mut poller, Some(Duration::ZERO));
        assert!(events.iter().all(|e| e.token == 3 && !e.readable()));
        client.write_all(b"x").unwrap();
        let events = poll(&mut poller, Some(Duration::from_secs(5)));
        assert!(events.iter().any(|e| e.token == 3 && e.readable()));
        // Edge-triggered: the unread byte is not reported again.
        assert!(poll(&mut poller, Some(Duration::ZERO)).is_empty());
        poller.delete(&server).unwrap();
        client.write_all(b"y").unwrap();
        assert!(poll(&mut poller, Some(Duration::from_millis(20))).is_empty());
    }
}
