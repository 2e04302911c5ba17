//! Readiness polling behind one small trait — the *poller* third of
//! the poller / run-loop / dispatch seam (see the crate docs).
//!
//! A [`Poller`] answers exactly one question: *which of these file
//! descriptors can make progress right now?* It knows nothing about
//! connections, codecs, or services — the run loop behind
//! [`crate::TcpServer`] owns those. Two implementations ship:
//!
//! * [`EpollPoller`] (Linux): `epoll` — O(ready) wakeups, the reason
//!   ten thousand idle sockets cost nothing per tick;
//! * [`PollPoller`] (any Unix): POSIX `poll(2)` — O(registered) per
//!   wait, the portable fallback, and small enough to serve as the
//!   reference implementation in tests.
//!
//! Both are **level-triggered**: a readiness bit stays set until the
//! condition clears, so the run loop never has to drain a socket to
//! exhaustion in one pass to stay correct. A future async-runtime
//! backend slots in as a third `Poller` (or replaces the run loop
//! wholesale above this seam) without touching connection state.
//!
//! The `sys` module at the bottom holds the only `unsafe` in the
//! crate: `extern "C"` declarations for the readiness syscalls (the
//! workspace vendors no `libc` crate; `std` already links the
//! platform C library, so the symbols are there to bind).

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness a registration subscribes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable again.
    pub write: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: usize,
    /// Reading can make progress. Errors and hangups are folded in —
    /// the owner discovers the details from `read()` itself (0 for
    /// EOF, an error otherwise), so there is no separate closed state
    /// to keep consistent.
    pub readable: bool,
    /// Writing can make progress.
    pub writable: bool,
}

/// A readiness multiplexer over raw file descriptors.
///
/// Contract: `register` a fd at most once (under a caller-chosen
/// token), `reregister` to change its interest, `deregister` before
/// closing it. `wait` appends ready events and returns on the first
/// readiness, on `timeout`, or spuriously (callers must tolerate an
/// empty event list — `EINTR` is swallowed, not surfaced).
pub trait Poller: Send {
    /// Backend name, for diagnostics ("epoll", "poll").
    fn name(&self) -> &'static str;

    /// Starts watching `fd` under `token`.
    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Changes what an already-registered `fd` is watched for.
    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()>;

    /// Stops watching `fd`. Must be called before the fd is closed.
    fn deregister(&mut self, fd: RawFd) -> io::Result<()>;

    /// Blocks until readiness or `timeout` (`None` = forever),
    /// appending events to `events`.
    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()>;
}

/// The platform's best poller: epoll on Linux, poll(2) elsewhere.
pub fn default_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(target_os = "linux")]
    {
        Ok(Box::new(EpollPoller::new()?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(Box::new(PollPoller::new()))
    }
}

/// Milliseconds for the C APIs: `None` → -1 (forever), sub-millisecond
/// waits round **up** so a 100 µs timeout does not busy-spin as 0.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
    }
}

// --- epoll (Linux) ---------------------------------------------------

/// `epoll`-backed [`Poller`]: one kernel object holds every
/// registration, and each wait returns only the fds that are actually
/// ready — idle connections cost nothing per tick.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    /// Reused kernel-event buffer (capacity bounds events per wait,
    /// not registrations — level triggering re-reports the rest).
    buf: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    const MAX_EVENTS: usize = 1024;

    /// Creates an epoll instance (close-on-exec).
    pub fn new() -> io::Result<Self> {
        #[allow(unsafe_code)]
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; Self::MAX_EVENTS],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let mut event = sys::EpollEvent {
            events: (if interest.read { sys::EPOLLIN } else { 0 })
                | (if interest.write { sys::EPOLLOUT } else { 0 }),
            data: token as u64,
        };
        #[allow(unsafe_code)]
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn name(&self) -> &'static str {
        "epoll"
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(
            sys::EPOLL_CTL_DEL,
            fd,
            0,
            Interest {
                read: false,
                write: false,
            },
        )
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        #[allow(unsafe_code)]
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in &self.buf[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let bits = ev.events;
            let token = ev.data as usize;
            events.push(PollEvent {
                token,
                readable: bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR) != 0,
                writable: bits & (sys::EPOLLOUT | sys::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        #[allow(unsafe_code)]
        unsafe {
            sys::close(self.epfd);
        }
    }
}

// --- poll(2) (any Unix) ----------------------------------------------

/// POSIX `poll(2)`-backed [`Poller`]: registrations live in user
/// space and every wait hands the kernel the whole list. O(registered)
/// per tick, but dependency-free and portable — the fallback where
/// epoll is missing, and the reference backend in tests.
pub struct PollPoller {
    /// Registered fds with their tokens and interest, in registration
    /// order (linear scans: the fallback optimizes for simplicity).
    entries: Vec<(RawFd, usize, Interest)>,
    /// Reused `pollfd` array handed to the kernel.
    fds: Vec<sys::PollFd>,
}

impl PollPoller {
    /// Creates an empty registration table.
    pub fn new() -> Self {
        PollPoller {
            entries: Vec::new(),
            fds: Vec::new(),
        }
    }

    fn position(&self, fd: RawFd) -> io::Result<usize> {
        self.entries
            .iter()
            .position(|&(f, _, _)| f == fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd is not registered"))
    }
}

impl Default for PollPoller {
    fn default() -> Self {
        PollPoller::new()
    }
}

impl Poller for PollPoller {
    fn name(&self) -> &'static str {
        "poll"
    }

    fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        if self.position(fd).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd is already registered",
            ));
        }
        self.entries.push((fd, token, interest));
        Ok(())
    }

    fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        let i = self.position(fd)?;
        self.entries[i] = (fd, token, interest);
        Ok(())
    }

    fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        let i = self.position(fd)?;
        self.entries.remove(i);
        Ok(())
    }

    fn wait(&mut self, events: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        self.fds.clear();
        for &(fd, _, interest) in &self.entries {
            self.fds.push(sys::PollFd {
                fd,
                events: (if interest.read { sys::POLLIN } else { 0 })
                    | (if interest.write { sys::POLLOUT } else { 0 }),
                revents: 0,
            });
        }
        #[allow(unsafe_code)]
        let n = unsafe {
            sys::poll(
                self.fds.as_mut_ptr(),
                self.fds.len() as sys::NfdsT,
                timeout_ms(timeout),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (pfd, &(_, token, _)) in self.fds.iter().zip(&self.entries) {
            let bits = pfd.revents;
            if bits == 0 {
                continue;
            }
            events.push(PollEvent {
                token,
                readable: bits & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0,
                writable: bits & (sys::POLLOUT | sys::POLLERR) != 0,
            });
        }
        Ok(())
    }
}

// --- syscall bindings ------------------------------------------------

/// The crate's only unsafe: FFI declarations for the readiness
/// syscalls, bound against the C library `std` already links (the
/// workspace vendors no `libc` crate). Constants and layouts follow
/// the kernel/POSIX ABIs for the supported targets.
#[allow(unsafe_code)]
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;

    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI packs it
    /// there so 32- and 64-bit layouts agree), naturally aligned on
    /// other architectures — mirroring `__EPOLL_PACKED` in glibc.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// POSIX `struct pollfd` — identical layout everywhere.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `nfds_t`: unsigned long on Linux, unsigned int on the BSDs.
    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pollers() -> Vec<Box<dyn Poller>> {
        let mut backends: Vec<Box<dyn Poller>> = vec![Box::new(PollPoller::new())];
        #[cfg(target_os = "linux")]
        backends.push(Box::new(EpollPoller::new().unwrap()));
        backends
    }

    #[test]
    fn readiness_tracks_data_and_interest_changes() {
        for mut poller in pollers() {
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller
                .register(b.as_raw_fd(), 7, Interest::READ)
                .unwrap_or_else(|e| panic!("{}: register: {e}", poller.name()));

            // Nothing to read yet: a bounded wait returns no events.
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{}: spurious {events:?}", poller.name());

            // Data arrives: readable under the registered token.
            a.write_all(b"x").unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.readable),
                "{}: expected readable, got {events:?}",
                poller.name()
            );

            // Level-triggered: unread data keeps reporting.
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));

            // Drain, switch to write interest: writable, not readable.
            let mut byte = [0u8; 8];
            let _ = (&b).read(&mut byte).unwrap();
            poller
                .reregister(
                    b.as_raw_fd(),
                    9,
                    Interest {
                        read: false,
                        write: true,
                    },
                )
                .unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 9 && e.writable),
                "{}: expected writable, got {events:?}",
                poller.name()
            );

            // Deregister: silence, even with data pending.
            a.write_all(b"y").unwrap();
            poller.deregister(b.as_raw_fd()).unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty(), "{}: {events:?}", poller.name());
        }
    }

    #[test]
    fn hangup_reports_as_readable() {
        for mut poller in pollers() {
            let (a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
            drop(a);
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            // EOF must surface as readability so the owner's read()
            // observes it — that is the whole closed-detection story.
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "{}: {events:?}",
                poller.name()
            );
        }
    }
}
