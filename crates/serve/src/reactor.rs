//! The serving event loop's readiness reactor: poll(2) behind a small
//! register/modify/deregister/wait surface.
//!
//! [`PollReactor`] watches file descriptors under caller-chosen tokens with a
//! read/write [`Interest`] and reports a batch of [`Event`]s per
//! [`PollReactor::wait`]. poll has no persistent kernel-side interest table,
//! so every wait rebuilds the full `pollfd` array from the registration list
//! and the kernel rescans it: per-wakeup cost is linear in the registered
//! descriptors. poll(2) is the one readiness facility every unix the crate
//! compiles for provides.
//!
//! Readiness is **level-triggered**: a descriptor with unread bytes (or
//! writable space) re-reports readiness on every `wait` until the condition is
//! consumed. The server's read-budget anti-starvation logic depends on this.
//!
//! The reactor embeds a self-pipe waker. [`PollReactor::waker`] returns a
//! cloneable [`Waker`] handle that worker threads use to interrupt a blocked
//! `wait`; the wake pipe is drained internally and never surfaces as an event.

use std::io::{self, Read};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

/// Raw poll(2) FFI — the libc symbols are always linked; declaring them here
/// keeps the workspace free of external crates (the build environment has no
/// registry access).
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// `poll` retrying on EINTR. `timeout` in milliseconds, `-1` blocks.
    pub fn poll_retry(fds: &mut [PollFd], timeout: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
            // pollfd records and `nfds` is its length, so poll writes only
            // `revents` fields inside it.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Which readiness conditions a registration wants reported.
///
/// An empty interest (`Interest::NONE`) keeps the descriptor registered —
/// errors and hangups are still delivered, as poll reports those
/// unconditionally — but asks for no read/write readiness. The server uses
/// this to mute a backpressured connection without losing error notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report read readiness (`POLLIN`).
    pub read: bool,
    /// Report write readiness (`POLLOUT`).
    pub write: bool,
}

impl Interest {
    /// No read/write readiness; errors and hangups only.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// One readiness event reported by [`PollReactor::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or a peer hangup makes a read return 0).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// An error condition is pending (`POLLERR`/`POLLNVAL`).
    pub error: bool,
    /// The peer hung up (`POLLHUP`).
    pub hangup: bool,
}

/// The readiness backend the event loop runs on. poll(2) is the only one;
/// the type stays so run records can stamp the backend by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// poll(2): per-wakeup cost linear in registered descriptors.
    Poll,
}

impl ReactorKind {
    /// The backend's name.
    pub fn name(self) -> &'static str {
        match self {
            ReactorKind::Poll => "poll",
        }
    }

    /// The backend every server runs on; the argument is ignored, as there
    /// is nothing to choose between.
    pub fn resolve(_explicit: Option<ReactorKind>) -> ReactorKind {
        ReactorKind::Poll
    }
}

/// Wakes a blocked [`PollReactor::wait`] from another thread.
///
/// Cloneable and cheap: a nonblocking write to the reactor's internal wake
/// pipe. If the pipe is already full the reactor is guaranteed to wake anyway,
/// so a failed write is silently ignored.
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<UnixStream>,
}

impl Waker {
    /// Interrupt the reactor's current (or next) `wait`.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// One registration: descriptor, caller token, current interest.
struct Registration {
    fd: i32,
    token: u64,
    interest: Interest,
}

/// The poll(2) readiness reactor.
///
/// Contract (asserted by the conformance tests below):
///
/// * Registrations are keyed by file descriptor and carry a caller token that
///   comes back verbatim in every [`Event`].
/// * Level-triggered: readiness persists across `wait` calls until consumed.
/// * `wait` clears and refills `events`; it returns after the timeout with an
///   empty batch if nothing became ready, and early (possibly empty) when the
///   [`Waker`] fires. Wake-pipe traffic is internal and never reported.
/// * Errors and hangups are reported even under `Interest::NONE`.
pub struct PollReactor {
    registrations: Vec<Registration>,
    wake_rx: UnixStream,
    waker: Waker,
}

impl PollReactor {
    /// Create a reactor with its internal wake pipe.
    pub fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(PollReactor {
            registrations: Vec::new(),
            wake_rx: rx,
            waker: Waker {
                tx: std::sync::Arc::new(tx),
            },
        })
    }

    fn position(&self, fd: i32) -> io::Result<usize> {
        self.registrations
            .iter()
            .position(|r| r.fd == fd)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("fd {fd} is not registered"),
                )
            })
    }

    /// Start watching `fd` under `token`. The descriptor must stay open until
    /// [`PollReactor::deregister`]; registering an fd twice is an error.
    pub fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        if self.registrations.iter().any(|r| r.fd == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("fd {fd} is already registered"),
            ));
        }
        self.registrations.push(Registration {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    /// Replace the interest (and token) of an already-registered descriptor.
    pub fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let idx = self.position(fd)?;
        self.registrations[idx].token = token;
        self.registrations[idx].interest = interest;
        Ok(())
    }

    /// Stop watching `fd`. Must be called before the descriptor is closed.
    pub fn deregister(&mut self, fd: i32) -> io::Result<()> {
        let idx = self.position(fd)?;
        self.registrations.swap_remove(idx);
        Ok(())
    }

    /// Block until readiness, a wake, or `timeout_ms` elapses (`-1` blocks
    /// indefinitely). Ready events are appended to the cleared `events`.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        use sys::*;
        events.clear();

        // Slot 0 is always the wake pipe; registrations follow in list order.
        let mut fds = Vec::with_capacity(self.registrations.len() + 1);
        fds.push(PollFd {
            fd: self.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for reg in &self.registrations {
            let mut ev = 0i16;
            if reg.interest.read {
                ev |= POLLIN;
            }
            if reg.interest.write {
                ev |= POLLOUT;
            }
            // events == 0 still reports POLLERR/POLLHUP/POLLNVAL.
            fds.push(PollFd {
                fd: reg.fd,
                events: ev,
                revents: 0,
            });
        }

        poll_retry(&mut fds, timeout_ms)?;

        if fds[0].revents & POLLIN != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (reg, pfd) in self.registrations.iter().zip(&fds[1..]) {
            let re = pfd.revents;
            if re == 0 {
                continue;
            }
            events.push(Event {
                token: reg.token,
                readable: re & POLLIN != 0,
                writable: re & POLLOUT != 0,
                error: re & (POLLERR | POLLNVAL) != 0,
                hangup: re & POLLHUP != 0,
            });
        }
        Ok(())
    }

    /// A handle other threads use to interrupt `wait`.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Registered descriptors, excluding the internal wake pipe.
    #[cfg(test)]
    fn registered(&self) -> usize {
        self.registrations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A connected nonblocking socket pair (client end, server end).
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn wait_for_token(r: &mut PollReactor, token: u64, events: &mut Vec<Event>) -> Event {
        for _ in 0..100 {
            r.wait(events, 100).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == token) {
                return *ev;
            }
        }
        panic!("token {token} never became ready");
    }

    #[test]
    fn readiness_is_level_triggered() {
        let mut r = PollReactor::new().unwrap();
        let (mut client, mut server) = tcp_pair();
        r.register(server.as_raw_fd(), 7, Interest::READ).unwrap();
        assert_eq!(r.registered(), 1);

        let mut events = Vec::new();
        // Idle: a short wait reports nothing.
        r.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "idle events");

        client.write_all(b"xy").unwrap();
        let ev = wait_for_token(&mut r, 7, &mut events);
        assert!(ev.readable);

        // Level-triggered: unread bytes re-report on the next wait.
        let ev = wait_for_token(&mut r, 7, &mut events);
        assert!(ev.readable, "lost level-triggered state");

        // Consume, then quiet again.
        let mut buf = [0u8; 8];
        let n = server.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"xy");
        r.wait(&mut events, 10).unwrap();
        assert!(
            !events.iter().any(|e| e.token == 7 && e.readable),
            "reported stale readability"
        );

        r.deregister(server.as_raw_fd()).unwrap();
        assert_eq!(r.registered(), 0);
        client.write_all(b"z").unwrap();
        r.wait(&mut events, 10).unwrap();
        assert!(events.is_empty(), "events after deregister");
    }

    #[test]
    fn modify_switches_interest_and_token() {
        let mut r = PollReactor::new().unwrap();
        let (mut client, server) = tcp_pair();
        r.register(server.as_raw_fd(), 1, Interest::NONE).unwrap();

        let mut events = Vec::new();
        client.write_all(b"a").unwrap();
        r.wait(&mut events, 10).unwrap();
        assert!(
            !events.iter().any(|e| e.readable),
            "reported reads under Interest::NONE"
        );

        // Flip interest on (and change the token): the pending byte surfaces.
        let read_write = Interest {
            read: true,
            write: true,
        };
        r.modify(server.as_raw_fd(), 2, read_write).unwrap();
        let ev = wait_for_token(&mut r, 2, &mut events);
        assert!(ev.readable);
        assert!(ev.writable, "idle socket should be writable");

        r.deregister(server.as_raw_fd()).unwrap();
        drop(client);
    }

    #[test]
    fn peer_close_surfaces_as_readable_eof() {
        // A graceful FIN is *not* a POLLHUP (that needs both directions shut);
        // it surfaces as read readiness whose read() then returns 0. The
        // reactor must deliver it so the server can reap the connection.
        let mut r = PollReactor::new().unwrap();
        let (client, server) = tcp_pair();
        r.register(server.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        let mut seen = false;
        for _ in 0..100 {
            r.wait(&mut events, 100).unwrap();
            if events
                .iter()
                .any(|e| e.token == 3 && (e.hangup || e.error || e.readable))
            {
                seen = true;
                break;
            }
        }
        assert!(seen, "never reported the hangup");
        r.deregister(server.as_raw_fd()).unwrap();
        drop(server);
    }

    #[test]
    fn waker_interrupts_wait_without_surfacing_events() {
        let mut r = PollReactor::new().unwrap();
        let waker = r.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let start = std::time::Instant::now();
        // Far longer than the waker delay: only the wake can end this early.
        r.wait(&mut events, 5_000).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(4),
            "wait was not interrupted"
        );
        assert!(events.is_empty(), "surfaced wake-pipe events");
        handle.join().unwrap();
        // Drained: the next wait does not spin on the wake pipe.
        r.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn deregister_leaves_the_other_tokens_on_their_descriptors() {
        let mut r = PollReactor::new().unwrap();
        let pairs: Vec<(TcpStream, TcpStream)> = (0..5).map(|_| tcp_pair()).collect();
        for (token, (_, server)) in pairs.iter().enumerate() {
            r.register(server.as_raw_fd(), token as u64, Interest::READ)
                .unwrap();
        }
        // Removing token 1 moves the last registration into its place.
        r.deregister(pairs[1].1.as_raw_fd()).unwrap();
        assert_eq!(r.registered(), 4);

        (&pairs[4].0).write_all(b"x").unwrap();
        let mut events = Vec::new();
        for _ in 0..100 {
            r.wait(&mut events, 100).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].token, 4);
        assert!(events[0].readable);

        let live = pairs[0].1.as_raw_fd();
        let err = r.register(live, 9, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
        let gone = pairs[1].1.as_raw_fd();
        let err = r.modify(gone, 1, Interest::READ).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let err = r.deregister(gone).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
