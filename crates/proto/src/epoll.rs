//! Vendored epoll shim: raw `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `eventfd`, `recv` and `shutdown` FFI against the platform C library.
//!
//! The build environment has no registry access, so instead of `mio` or
//! the `libc` crate this module declares exactly the symbols the
//! connection pool needs to park idle connections. Everything is wrapped
//! in RAII types and safe functions; the pool itself has no `unsafe`.

#![cfg(target_os = "linux")]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint};
use std::time::Duration;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Report the descriptor once, then leave it disarmed: with several
/// threads in `epoll_wait` exactly one of them gets a parked connection.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;
const RLIMIT_NOFILE: c_int = 7;
const MSG_DONTWAIT: c_int = 0x40;
const SHUT_RDWR: c_int = 2;

/// Mirror of the kernel's `struct epoll_event`. x86_64 is the one ABI
/// where the struct is packed; other architectures use natural layout.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn recv(fd: c_int, buf: *mut u8, len: usize, flags: c_int) -> isize;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn shutdown(sockfd: c_int, how: c_int) -> c_int;
}

/// Re-`listen(2)` on an already-listening socket to deepen its accept
/// backlog. std's `TcpListener::bind` hardcodes 128, which an accept
/// storm of thousands of clients overflows — dropped SYNs then cost
/// each client a ~1 s retransmit. The kernel clamps to `somaxconn`.
pub fn deepen_backlog(fd: RawFd, backlog: u32) -> io::Result<()> {
    cvt(unsafe { listen(fd, backlog.min(c_int::MAX as u32) as c_int) })?;
    Ok(())
}

/// One `recv(MSG_DONTWAIT)`: what the socket holds right now (0 = EOF),
/// or `WouldBlock` — whatever its blocking mode and read timeout.
pub fn recv_nowait(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: `buf` is valid for writes of `buf.len()` bytes for the whole
    // call, and the kernel writes at most that many.
    let n = unsafe { recv(fd, buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// `shutdown(SHUT_RDWR)` on a socket another thread may be blocked in:
/// its read returns EOF and its write fails at once. The caller must know
/// `fd` is still the socket it means, not a number reused since.
pub fn shutdown_both(fd: RawFd) {
    // SAFETY: `shutdown` touches no memory of ours; on a descriptor that
    // is not a socket it fails and changes nothing.
    unsafe { shutdown(fd, SHUT_RDWR) };
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    pub fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arm a spent one-shot registration (or change what it reports).
    pub fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        // The event argument must be non-null on pre-2.6.9 kernels; pass
        // one unconditionally.
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, filling `events`; returns the number ready.
    /// `None` waits until something is.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms: c_int = timeout.map_or(-1, |t| t.as_millis().min(c_int::MAX as u128) as c_int);
        loop {
            let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An eventfd used as a cross-thread wakeup (closed on drop). Writes add
/// to a counter, and until somebody reads it the fd stays readable — so
/// one signal that is never drained wakes every waiter, now and later.
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Signal the fd. Safe from any thread; errors are ignored (a full
    /// counter still leaves the fd readable, which is all we need).
    pub fn signal(&self) {
        let one = 1u64.to_ne_bytes();
        unsafe { write(self.fd, one.as_ptr(), one.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the new
/// soft limit. C10K needs more descriptors than the usual default of
/// 1024; callers scale their connection counts to what they get.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut rl = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut rl) })?;
    if rl.rlim_cur < rl.rlim_max {
        rl.rlim_cur = rl.rlim_max;
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &rl) })?;
    }
    Ok(rl.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn a_one_shot_registration_reports_once_and_recv_nowait_never_blocks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let fd = server.as_raw_fd();

        let ep = Epoll::new().unwrap();
        ep.add(fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, 7).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 8];
        let short = Some(Duration::from_millis(20));
        // Nothing written yet: no readiness, and nothing to receive.
        assert_eq!(ep.wait(&mut events, short).unwrap(), 0);
        let mut buf = [0u8; 8];
        let err = recv_nowait(fd, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        client.write_all(b"x").unwrap();
        assert_eq!(ep.wait(&mut events, None).unwrap(), 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);
        // Still unread, but the one shot is spent — until it is re-armed.
        assert_eq!(ep.wait(&mut events, short).unwrap(), 0);
        ep.modify(fd, EPOLLIN | EPOLLONESHOT, 9).unwrap();
        assert_eq!(ep.wait(&mut events, None).unwrap(), 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 9);
        assert_eq!(recv_nowait(fd, &mut buf).unwrap(), 1);
        ep.delete(fd).unwrap();

        // A hang-up is readiness too, and reads as EOF.
        ep.add(fd, EPOLLIN | EPOLLRDHUP | EPOLLONESHOT, 8).unwrap();
        drop(client);
        assert_eq!(ep.wait(&mut events, None).unwrap(), 1);
        assert_eq!(recv_nowait(fd, &mut buf).unwrap(), 0);
    }

    #[test]
    fn an_undrained_eventfd_wakes_every_wait() {
        let ep = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        ep.add(efd.raw_fd(), EPOLLIN, 1).unwrap();
        let mut events = [EpollEvent { events: 0, data: 0 }; 4];
        assert_eq!(
            ep.wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
        efd.signal();
        for _ in 0..3 {
            assert_eq!(ep.wait(&mut events, None).unwrap(), 1);
            let ev = events[0];
            assert_eq!({ ev.data }, 1);
        }
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let lim = raise_nofile_limit().unwrap();
        assert!(lim >= 256, "implausible fd limit {lim}");
    }
}
