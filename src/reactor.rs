//! A thin, dependency-free readiness abstraction: Linux `epoll`, with a
//! POSIX `poll(2)` fallback on every other unix target.
//!
//! The serve transport ([`crate::serve`]) needs exactly four primitives:
//! create an interest set, (de)register file descriptors with read/write
//! interest, block until something is ready or a deadline passes, and be
//! woken from another thread. This module provides them over raw
//! `epoll_*` or `poll` calls declared directly against the C runtime the
//! Rust standard library already links — no third-party crates, matching
//! the workspace's zero-dependency rule. The cross-thread [`Waker`] is one
//! implementation everywhere: a non-blocking `UnixStream` pair.
//!
//! Epoll is kept on Linux because a `poll(2)` wait rescans every
//! registered descriptor: with the default 256 connections registered and
//! idle, a wakeup costs over ten times what an epoll wakeup does. Where
//! epoll does not exist, the fallback serves the identical protocol.
//!
//! This is the **only** module in the crate allowed to contain `unsafe`
//! code (the crate root carries `#![deny(unsafe_code)]`); the unsafety is
//! confined to the FFI declarations and calls below, each of which passes
//! buffers it fully initializes.
#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// One readiness notification: the registered token plus the directions
/// that are now actionable. Error and hang-up conditions are folded into
/// *both* directions — the owner's next `read`/`write` observes the actual
/// failure, which keeps error handling in one place.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// A `read` (or `accept`) would make progress.
    pub readable: bool,
    /// A `write` would make progress.
    pub writable: bool,
}

/// Does this target's [`Poller`] run on epoll? Elsewhere it is the
/// portable `poll(2)` fallback; the reactor serves on every unix target
/// either way.
#[must_use]
pub const fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// A wait timeout in whole milliseconds, `-1` meaning forever. Rounds up
/// so a 0.4 ms deadline does not busy-spin at 0 ms.
fn timeout_millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
    }
}

/// Converts a `-1` syscall result into the thread's `errno` error.
fn check(result: i32) -> io::Result<i32> {
    if result < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(result)
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{check, timeout_millis, Event, RawFd};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::time::Duration;

    // The kernel ABI constants and the epoll event record. On x86-64 the
    // kernel declares `struct epoll_event` packed; everywhere else it has
    // natural alignment.
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o200_0000;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Declared against the C runtime std already links; no `libc` crate.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    /// A readiness interest set over epoll: file descriptors registered
    /// under tokens, and a blocking [`wait`](Self::wait) that reports which
    /// are actionable. Level-triggered: a descriptor that stays ready keeps
    /// being reported, so owners adjust interest (via
    /// [`reregister`](Self::reregister)) instead of tracking edge state.
    pub struct Poller {
        epoll: OwnedFd,
        /// Kernel-filled scratch for `epoll_wait`, reused across calls.
        buffer: Vec<EpollEvent>,
    }

    impl Poller {
        /// Creates an empty interest set.
        ///
        /// # Errors
        ///
        /// The `epoll_create1` failure.
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; a valid fd (or -1)
            // comes back, and ownership transfers to the OwnedFd.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                // SAFETY: `fd` is a freshly created descriptor we own.
                epoll: unsafe { OwnedFd::from_raw_fd(fd) },
                buffer: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Option<(u64, bool, bool)>) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            if let Some((token, readable, writable)) = interest {
                event.data = token;
                if readable {
                    event.events |= EPOLLIN | EPOLLRDHUP;
                }
                if writable {
                    event.events |= EPOLLOUT;
                }
            }
            // SAFETY: `event` is a live, fully initialized record for the
            // duration of the call; the kernel copies it and keeps nothing.
            check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
        }

        /// Adds `fd` under `token` with read (`r`) and write (`w`) interest.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` failure (e.g. the fd is already present).
        pub fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some((token, r, w)))
        }

        /// Replaces the interest of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` failure (e.g. the fd was never added).
        pub fn reregister(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some((token, r, w)))
        }

        /// Removes `fd` from the interest set.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` failure.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until a registered descriptor is ready or the timeout
        /// elapses (`None` waits indefinitely), appending one [`Event`] per
        /// ready descriptor to `out`. Returns how many were appended; `0`
        /// means the deadline passed quietly. `EINTR` is retried.
        ///
        /// # Errors
        ///
        /// The `epoll_wait` failure.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let millis = timeout_millis(timeout);
            let capacity = i32::try_from(self.buffer.len()).unwrap_or(i32::MAX);
            let count = loop {
                // SAFETY: the buffer holds `capacity` initialized records;
                // the kernel overwrites at most that many.
                let n = unsafe {
                    epoll_wait(
                        self.epoll.as_raw_fd(),
                        self.buffer.as_mut_ptr(),
                        capacity,
                        millis,
                    )
                };
                match check(n) {
                    Ok(n) => break usize::try_from(n).unwrap_or(0),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for record in &self.buffer[..count] {
                // Copy out of the (possibly packed) record before use.
                let bits = record.events;
                let token = record.data;
                let trouble = bits & (EPOLLERR | EPOLLHUP) != 0;
                out.push(Event {
                    token,
                    readable: trouble || bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: trouble || bits & EPOLLOUT != 0,
                });
            }
            Ok(count)
        }
    }
}

/// The portable fallback: the interest set is a `pollfd` array the
/// process owns, handed whole to `poll(2)` on every wait. Compiled into
/// Linux test builds too, so the contract tests exercise what non-Linux
/// hosts ship.
#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{check, timeout_millis, Event, RawFd};
    use std::ffi::{c_int, c_short};
    use std::io;
    use std::time::Duration;

    // POSIX leaves these values to the platform; Linux, the BSDs, macOS
    // and illumos all use the historical System V bits.
    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;
    const POLLNVAL: c_short = 0x020;

    /// `nfds_t`: `unsigned long` in glibc, musl and illumos, `unsigned
    /// int` in the BSDs, macOS and bionic.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type Nfds = std::ffi::c_uint;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    // Declared against the C runtime std already links; no `libc` crate.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    fn interest(readable: bool, writable: bool) -> c_short {
        (if readable { POLLIN } else { 0 }) | (if writable { POLLOUT } else { 0 })
    }

    /// A readiness interest set over `poll(2)`, with the same contract as
    /// the epoll one: tokens, level-triggered [`wait`](Self::wait).
    pub struct Poller {
        fds: Vec<PollFd>,
        /// `tokens[i]` belongs to `fds[i]`.
        tokens: Vec<u64>,
    }

    impl Poller {
        /// Creates an empty interest set.
        ///
        /// # Errors
        ///
        /// None: the set is a plain array until the first wait.
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                fds: Vec::new(),
                tokens: Vec::new(),
            })
        }

        /// The slot of a registered `fd`; `NotFound` (epoll's `ENOENT`)
        /// when it was never added.
        fn slot(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }

        /// Adds `fd` under `token` with read (`r`) and write (`w`) interest.
        ///
        /// # Errors
        ///
        /// `AlreadyExists` when the fd is already present.
        pub fn register(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            if self.slot(fd).is_ok() {
                return Err(io::ErrorKind::AlreadyExists.into());
            }
            self.fds.push(PollFd {
                fd,
                events: interest(r, w),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        /// Replaces the interest of an already-registered `fd`.
        ///
        /// # Errors
        ///
        /// `NotFound` when the fd was never added.
        pub fn reregister(&mut self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            let slot = self.slot(fd)?;
            self.fds[slot].events = interest(r, w);
            self.tokens[slot] = token;
            Ok(())
        }

        /// Removes `fd` from the interest set. Deregister before closing:
        /// unlike epoll, `poll(2)` would keep reporting the stale fd.
        ///
        /// # Errors
        ///
        /// `NotFound` when the fd was never added.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let slot = self.slot(fd)?;
            self.fds.swap_remove(slot);
            self.tokens.swap_remove(slot);
            Ok(())
        }

        /// Blocks until a registered descriptor is ready or the timeout
        /// elapses (`None` waits indefinitely), appending one [`Event`] per
        /// ready descriptor to `out`. Returns how many were appended; `0`
        /// means the deadline passed quietly. `EINTR` is retried.
        ///
        /// # Errors
        ///
        /// The `poll` failure.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let millis = timeout_millis(timeout);
            let count = Nfds::try_from(self.fds.len()).unwrap_or(Nfds::MAX);
            loop {
                // SAFETY: `fds` holds `count` initialized records; the
                // kernel writes only their `revents` fields.
                let n = unsafe { poll(self.fds.as_mut_ptr(), count, millis) };
                match check(n) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let before = out.len();
            for (record, &token) in self.fds.iter().zip(&self.tokens) {
                let bits = record.revents;
                if bits == 0 {
                    continue;
                }
                let trouble = bits & (POLLERR | POLLHUP | POLLNVAL) != 0;
                out.push(Event {
                    token,
                    readable: trouble || bits & POLLIN != 0,
                    writable: trouble || bits & POLLOUT != 0,
                });
            }
            Ok(out.len() - before)
        }
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// A cross-thread wakeup channel for a [`Poller`]: register
/// [`fd`](Self::fd) read-interest under a reserved token, then any thread
/// holding the waker can force `wait` to return.
///
/// A non-blocking `UnixStream` pair: a wake writes one byte, a drain reads
/// until the socket is empty. Once the socket buffer is full, a wake's
/// write fails with `WouldBlock`, harmlessly: a signal is already pending.
pub struct Waker {
    /// The end the poller watches.
    receiver: UnixStream,
    /// The end every waking thread writes to.
    sender: UnixStream,
}

impl Waker {
    /// Creates the wakeup channel.
    ///
    /// # Errors
    ///
    /// The OS error from `socketpair` or `fcntl`.
    pub fn new() -> io::Result<Self> {
        let (receiver, sender) = UnixStream::pair()?;
        receiver.set_nonblocking(true)?;
        sender.set_nonblocking(true)?;
        Ok(Self { receiver, sender })
    }

    /// The descriptor to register with the poller (read interest).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.receiver.as_raw_fd()
    }

    /// Forces the poller's `wait` to return. Signals coalesce: any number
    /// of wakes before a [`drain`](Self::drain) deliver one event.
    pub fn wake(&self) {
        let _ = (&self.sender).write(&[1]);
    }

    /// Consumes every pending signal after its event was observed.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.receiver).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Joins a thread that may still be signalling this waker, **then**
    /// drains the coalesced signal, returning the join result.
    ///
    /// The order is the point: draining before the join races the waking
    /// thread — a wake landing after the drain re-signals the poller, and
    /// any quiescence check that follows flakes. Tear-down paths that stop
    /// a waking thread should go through this helper instead of
    /// open-coding `join` + `drain`, so the ordering cannot regress
    /// file-by-file.
    ///
    /// # Errors
    ///
    /// Propagates the joined thread's panic payload, exactly like
    /// [`std::thread::JoinHandle::join`].
    pub fn join_then_drain<T>(&self, handle: std::thread::JoinHandle<T>) -> std::thread::Result<T> {
        let result = handle.join();
        self.drain();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// Runs a contract test body once per `Poller` implementation this
    /// target compiles — epoll on Linux, and always the `poll(2)` fallback
    /// — binding the implementation to `$poller`.
    macro_rules! for_each_poller {
        (|$poller:ident| $body:block) => {{
            #[cfg(target_os = "linux")]
            {
                let _on = Implementation("epoll");
                let mut $poller = epoll::Poller::new().unwrap();
                $body
            }
            {
                let _on = Implementation("poll");
                let mut $poller = poll::Poller::new().unwrap();
                $body
            }
        }};
    }

    /// Names the implementation whose contract body panicked.
    struct Implementation(&'static str);

    impl Drop for Implementation {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("contract broken by the {} poller", self.0);
            }
        }
    }

    #[test]
    fn waker_wakes_an_idle_poller_across_threads() {
        for_each_poller!(|poller| {
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.fd(), 7, true, false).unwrap();

            let remote = std::sync::Arc::clone(&waker);
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                remote.wake();
                remote.wake(); // coalesces with the first
            });

            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert_eq!(n, 1, "one coalesced wake event");
            assert_eq!(events[0].token, 7);
            assert!(events[0].readable);
            // Join before draining: the second wake must have landed (and
            // coalesced) before the drain, or it would re-signal afterwards.
            // The helper owns that ordering so no test re-introduces the race.
            waker.join_then_drain(handle).unwrap();

            // Drained: the next wait times out quietly.
            events.clear();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert_eq!(n, 0, "no events after drain: {events:?}");
        });
    }

    #[test]
    fn join_then_drain_never_leaves_a_residual_signal() {
        // The race this guards: a wake issued between a drain and the
        // waking thread's exit re-signals the poller, so a quiescence
        // check after tear-down observes a phantom event. Iterate with an
        // unsynchronized late waker; the helper's join-before-drain order
        // must absorb every wake.
        for_each_poller!(|poller| {
            let waker = std::sync::Arc::new(Waker::new().unwrap());
            poller.register(waker.fd(), 3, true, false).unwrap();
            for _ in 0..50 {
                let remote = std::sync::Arc::clone(&waker);
                let handle = std::thread::spawn(move || {
                    remote.wake();
                    std::thread::yield_now();
                    remote.wake(); // deliberately racing the tear-down
                });
                let mut events = Vec::new();
                poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .unwrap();
                waker.join_then_drain(handle).unwrap();
                events.clear();
                let n = poller
                    .wait(&mut events, Some(Duration::from_millis(1)))
                    .unwrap();
                assert_eq!(n, 0, "phantom wake after join_then_drain: {events:?}");
            }
        });
    }

    #[test]
    fn timeout_expires_without_events() {
        for_each_poller!(|poller| {
            let waker = Waker::new().unwrap();
            poller.register(waker.fd(), 1, true, false).unwrap();
            let start = Instant::now();
            let mut events = Vec::new();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap();
            assert_eq!(n, 0);
            assert!(start.elapsed() >= Duration::from_millis(25));
        });
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        for_each_poller!(|poller| {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            poller
                .register(listener.as_raw_fd(), 10, true, false)
                .unwrap();

            let mut client = TcpStream::connect(addr).unwrap();
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 10 && e.readable),
                "listener became acceptable: {events:?}"
            );
            let (server, _) = listener.accept().unwrap();

            // A connected stream is immediately writable; after dropping
            // write interest it stops being reported.
            poller
                .register(server.as_raw_fd(), 11, false, true)
                .unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 11 && e.writable),
                "{events:?}"
            );
            poller
                .reregister(server.as_raw_fd(), 11, true, false)
                .unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(
                events.iter().all(|e| e.token != 11),
                "write interest dropped: {events:?}"
            );

            // Incoming bytes surface as read readiness under the new
            // interest.
            client.write_all(b"DIAG\n").unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 11 && e.readable),
                "{events:?}"
            );
            poller.deregister(server.as_raw_fd()).unwrap();
        });
    }
}
