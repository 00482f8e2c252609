//! Readiness primitives for the server's event loop: a hand-rolled
//! `epoll` wrapper, an `eventfd` waker, and `SO_REUSEPORT` listener
//! sharding.
//!
//! The repo's no-deps discipline rules out `mio`/`libc`; instead this
//! module declares the handful of C symbols it needs directly (std already
//! links libc on Linux, so they resolve at link time) and owns every file
//! descriptor through [`std::os::fd::OwnedFd`]. The event loop is
//! et-serve's only transport, so et-serve is Linux-only: on other targets
//! this module is a loud compile-time error.
//!
//! Nothing in here touches session logic; see DESIGN.md §16 for how the
//! transport, routing, and domain layers stack.

#![expect(
    clippy::indexing_slicing,
    reason = "epoll_wait returns at most buf.len() events by its own contract (capacity is passed as maxevents)"
)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "et-serve's readiness-based event loop is built on Linux epoll. \
     Port hint: add a kqueue implementation of `Poller`/`Waker` behind \
     `#[cfg(target_os = \"macos\")]`."
);

use std::ffi::{c_int, c_void};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

// The exact C ABI surface this module uses. Signatures mirror the Linux
// manpages; `sockaddr` pointers are passed as `*const c_void` because the
// only caller builds the concrete layout it needs (`RawSockAddr`).
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const c_void, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getsockname(fd: c_int, addr: *mut c_void, addrlen: *mut u32) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0x8_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_CLOEXEC: c_int = 0x8_0000;
const EFD_NONBLOCK: c_int = 0x800;
const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0x8_0000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const SO_REUSEPORT: c_int = 15;
const LISTEN_BACKLOG: c_int = 1024;

/// `struct epoll_event`. The kernel packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    /// The `epoll_data_t` union, used exclusively as a `u64` token.
    data: u64,
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or a peer half-close, which also needs a read to observe).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup: the connection is dead or dying.
    pub hangup: bool,
}

fn last_errno() -> io::Error {
    io::Error::last_os_error()
}

/// Checks a C return value, mapping `-1` to the thread's errno.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(last_errno())
    } else {
        Ok(ret)
    }
}

/// A readiness queue: one `epoll` instance.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    /// The raw `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a non-negative return is
        // a real fd that we immediately take ownership of.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: fd was just returned by the kernel and is owned nowhere
        // else.
        Ok(Poller {
            ep: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it before
        // returning. `fd` validity is the caller's contract.
        cvt(unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd, &mut ev) })?;
        Ok(())
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = EPOLLRDHUP;
        if readable {
            bits |= EPOLLIN;
        }
        if writable {
            bits |= EPOLLOUT;
        }
        bits
    }

    /// Registers `fd` under `token` with the given interest set.
    ///
    /// # Errors
    /// The raw `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    /// Replaces the interest set of an already-registered `fd`.
    ///
    /// # Errors
    /// The raw `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Self::interest_bits(readable, writable),
            token,
        )
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    /// The raw `epoll_ctl` failure.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks until readiness or `timeout` (None blocks indefinitely),
    /// appending decoded events to `out`. Returns how many arrived.
    /// `EINTR` is retried internally.
    ///
    /// # Errors
    /// The raw `epoll_wait` failure.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: c_int = match timeout {
            // Round up so a 0 < t < 1ms timeout does not busy-spin.
            Some(t) => {
                let round_up = u128::from(t.subsec_nanos() % 1_000_000 != 0);
                c_int::try_from(t.as_millis().saturating_add(round_up)).unwrap_or(c_int::MAX)
            }
            None => -1,
        };
        loop {
            // SAFETY: `buf` is a stack array of MAX_EVENTS entries and the
            // kernel writes at most `maxevents` of them.
            let n = unsafe {
                epoll_wait(
                    self.ep.as_raw_fd(),
                    buf.as_mut_ptr(),
                    c_int::try_from(MAX_EVENTS).unwrap_or(c_int::MAX),
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = last_errno();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            let n = usize::try_from(n).unwrap_or(0);
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            return Ok(n);
        }
    }
}

/// A cross-thread wake-up for a [`Poller`]: an `eventfd` registered like
/// any other fd. Writing from any thread makes the owning loop's
/// `epoll_wait` return immediately — this is what bounds shutdown latency
/// to one loop iteration (no stop-flag polling anywhere).
pub struct Waker {
    fd: OwnedFd,
}

impl Waker {
    /// Creates the eventfd.
    ///
    /// # Errors
    /// The raw `eventfd` failure.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; a non-negative return is a
        // real fd that we immediately take ownership of.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: fd was just returned by the kernel and is owned nowhere
        // else.
        Ok(Waker {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// The fd to register with the loop's poller (read interest).
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }

    /// Wakes the owning loop. Callable from any thread; never blocks (a
    /// full eventfd counter already guarantees a pending wake-up).
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: the buffer is 8 valid bytes on this stack frame; EAGAIN
        // (counter at max) is fine because the loop is already waking.
        let _ = unsafe {
            write(
                self.fd.as_raw_fd(),
                std::ptr::addr_of!(one).cast::<c_void>(),
                8,
            )
        };
    }

    /// Drains pending wake-ups so the next `wake` edge-triggers again.
    pub fn drain(&self) {
        let mut buf = 0u64;
        // SAFETY: the buffer is 8 valid bytes on this stack frame; the fd
        // is non-blocking so the read never parks the loop.
        let _ = unsafe {
            read(
                self.fd.as_raw_fd(),
                std::ptr::addr_of_mut!(buf).cast::<c_void>(),
                8,
            )
        };
    }
}

/// `struct sockaddr_in`.
#[repr(C)]
struct SockAddrIn {
    sin_family: u16,
    /// Big-endian port.
    sin_port: u16,
    /// Big-endian address.
    sin_addr: u32,
    sin_zero: [u8; 8],
}

/// `struct sockaddr_in6`.
#[repr(C)]
struct SockAddrIn6 {
    sin6_family: u16,
    /// Big-endian port.
    sin6_port: u16,
    /// Big-endian flow label.
    sin6_flowinfo: u32,
    sin6_addr: [u8; 16],
    /// Host-order interface index.
    sin6_scope_id: u32,
}

/// The sockaddr the reuse-port path hands to `bind` and reads back from
/// `getsockname`, in the bind address's family.
enum RawSockAddr {
    V4(SockAddrIn),
    V6(SockAddrIn6),
}

impl RawSockAddr {
    /// `addr`'s host part with `port` in place of its own.
    fn new(addr: &SocketAddr, port: u16) -> RawSockAddr {
        match addr {
            SocketAddr::V4(v4) => RawSockAddr::V4(SockAddrIn {
                sin_family: AF_INET,
                sin_port: port.to_be(),
                sin_addr: u32::from(*v4.ip()).to_be(),
                sin_zero: [0; 8],
            }),
            SocketAddr::V6(v6) => RawSockAddr::V6(SockAddrIn6 {
                sin6_family: AF_INET6,
                sin6_port: port.to_be(),
                sin6_flowinfo: v6.flowinfo().to_be(),
                sin6_addr: v6.ip().octets(),
                sin6_scope_id: v6.scope_id(),
            }),
        }
    }

    fn port(&self) -> u16 {
        u16::from_be(match self {
            RawSockAddr::V4(sa) => sa.sin_port,
            RawSockAddr::V6(sa) => sa.sin6_port,
        })
    }

    /// The pointer and byte length the C calls take.
    fn as_mut_raw(&mut self) -> (*mut c_void, u32) {
        let (ptr, len): (*mut c_void, _) = match self {
            RawSockAddr::V4(sa) => (
                std::ptr::addr_of_mut!(*sa).cast(),
                std::mem::size_of_val(sa),
            ),
            RawSockAddr::V6(sa) => (
                std::ptr::addr_of_mut!(*sa).cast(),
                std::mem::size_of_val(sa),
            ),
        };
        (ptr, u32::try_from(len).unwrap_or(u32::MAX))
    }
}

fn set_opt(fd: c_int, opt: c_int) -> io::Result<()> {
    let one: c_int = 1;
    // SAFETY: optval points at a live c_int of the advertised length.
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            std::ptr::addr_of!(one).cast::<c_void>(),
            4,
        )
    })?;
    Ok(())
}

/// Binds `n` independent listeners to the same IPv4 or IPv6 address with
/// `SO_REUSEPORT`, so the kernel load-balances incoming connections
/// across event shards with no user-space handoff. Port 0 resolves once
/// (on the first socket) and the rest bind the resolved port.
/// `IPV6_V6ONLY` is left at the system default, as `TcpListener::bind`
/// leaves it.
///
/// # Errors
/// Any socket/bind/listen/getsockname failure, e.g. `AddrInUse` when a
/// socket without `SO_REUSEPORT` already holds the port.
pub fn reuseport_listeners(addr: &SocketAddr, n: usize) -> io::Result<Vec<TcpListener>> {
    let domain = c_int::from(if addr.is_ipv4() { AF_INET } else { AF_INET6 });
    let mut port = addr.port();
    let mut out = Vec::with_capacity(n.max(1));
    for _ in 0..n.max(1) {
        let mut sa = RawSockAddr::new(addr, port);
        // SAFETY: socket takes no pointers; ownership is taken immediately
        // below so every early return closes the fd.
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
        // SAFETY: fd was just returned by the kernel and is owned nowhere
        // else.
        let owned = unsafe { OwnedFd::from_raw_fd(fd) };
        set_opt(fd, SO_REUSEADDR)?;
        set_opt(fd, SO_REUSEPORT)?;
        let (ptr, len) = sa.as_mut_raw();
        // SAFETY: `sa` is a fully-initialised sockaddr of the advertised
        // length, alive for the duration of the call.
        cvt(unsafe { bind(fd, ptr, len) })?;
        cvt(unsafe { listen(fd, LISTEN_BACKLOG) })?;
        if port == 0 {
            // Learn the kernel-assigned port so the remaining shards can
            // join the same reuse-port group.
            let mut got = RawSockAddr::new(addr, 0);
            let (ptr, mut got_len) = got.as_mut_raw();
            // SAFETY: `got` is an out-buffer of the bound socket's family
            // and got_len carries its true length in and out.
            cvt(unsafe { getsockname(fd, ptr, &mut got_len) })?;
            port = got.port();
        }
        // SAFETY: converting the OwnedFd we hold into a TcpListener
        // transfers ownership exactly once.
        out.push(unsafe { TcpListener::from_raw_fd(std::os::fd::IntoRawFd::into_raw_fd(owned)) });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poller_sees_waker_edge() {
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller
            .add(waker.as_raw_fd(), 7, true, false)
            .expect("register waker");
        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
        waker.wake();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        // Drained: quiet again.
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(5)))
            .expect("wait");
        assert_eq!(n, 0);
    }

    #[test]
    fn reuseport_shards_share_one_port() {
        for bind in ["127.0.0.1:0", "[::1]:0"] {
            let addr: SocketAddr = bind.parse().expect("addr");
            let listeners = reuseport_listeners(&addr, 3).expect("reuseport trio");
            assert_eq!(listeners.len(), 3);
            let ports: Vec<u16> = listeners
                .iter()
                .map(|l| l.local_addr().expect("local addr").port())
                .collect();
            assert!(ports[0] != 0, "{bind}");
            assert!(ports.iter().all(|&p| p == ports[0]), "{bind}: {ports:?}");
            // A plain connect reaches one of the shards' accept queues.
            let probe = std::net::TcpStream::connect((addr.ip(), ports[0]));
            assert!(probe.is_ok(), "{bind}: {probe:?}");
        }
    }
}
