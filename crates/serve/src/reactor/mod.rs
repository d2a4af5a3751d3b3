//! Readiness reactors: the pluggable core of the serving event loop.
//!
//! A [`Reactor`] owns an OS readiness-notification facility and exposes the
//! minimal surface the event loop needs: register a file descriptor under a
//! caller-chosen token with a read/write [`Interest`], change that interest,
//! deregister, and [`Reactor::wait`] for a batch of [`Event`]s. Two backends
//! implement it:
//!
//! * [`PollReactor`] — the portable poll(2) loop the server originally ran on.
//!   poll rescans every registered descriptor per wakeup, so its per-wakeup
//!   cost grows linearly with the number of idle connections. Kept as the
//!   fallback (and as the semantic reference the epoll backend is tested
//!   against).
//! * `EpollReactor` (Linux only) — epoll(7), where the kernel tracks interest
//!   persistently and a wakeup costs O(ready events), independent of how many
//!   idle descriptors are registered.
//!
//! Both backends are **level-triggered**: a descriptor with unread bytes (or
//! writable space) re-reports readiness on every `wait` until the condition is
//! consumed. The server's read-budget anti-starvation logic depends on this.
//!
//! Every reactor embeds a self-pipe waker. [`Reactor::waker`] returns a
//! cloneable [`Waker`] handle that worker threads use to interrupt a blocked
//! `wait`; the wake pipe is drained internally and never surfaces as an event.
//!
//! Backend selection is runtime, not compile-time: [`ReactorKind::resolve`]
//! picks epoll on Linux by default and honours an explicit override from the
//! `--reactor` flag or the `TCCA_REACTOR` environment variable (`poll` /
//! `epoll`).

#[cfg(target_os = "linux")]
mod epoll_backend;
mod poll_backend;

#[cfg(target_os = "linux")]
pub use epoll_backend::EpollReactor;
pub use poll_backend::PollReactor;

use std::io;

/// Which readiness conditions a registration wants reported.
///
/// An empty interest (`Interest::NONE`) keeps the descriptor registered —
/// errors and hangups are still delivered, as both poll and epoll report those
/// unconditionally — but asks for no read/write readiness. The server uses
/// this to mute a backpressured connection without losing error notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report read readiness (`POLLIN` / `EPOLLIN`).
    pub read: bool,
    /// Report write readiness (`POLLOUT` / `EPOLLOUT`).
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
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Read and write readiness.
    pub const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event reported by [`Reactor::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered under.
    pub token: u64,
    /// The descriptor is readable (or a peer hangup makes a read return 0).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// An error condition is pending (`POLLERR`/`POLLNVAL` or `EPOLLERR`).
    pub error: bool,
    /// The peer hung up (`POLLHUP` / `EPOLLHUP`).
    pub hangup: bool,
}

/// The readiness backend a reactor runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// Portable poll(2): per-wakeup cost linear in registered descriptors.
    Poll,
    /// Linux epoll(7): per-wakeup cost linear in *ready* descriptors.
    Epoll,
}

impl ReactorKind {
    /// Stable numeric id surfaced through the `server/backend` stats counter.
    pub fn id(self) -> u64 {
        match self {
            ReactorKind::Poll => 0,
            ReactorKind::Epoll => 1,
        }
    }

    /// The flag/env spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            ReactorKind::Poll => "poll",
            ReactorKind::Epoll => "epoll",
        }
    }

    /// Parse a `--reactor` / `TCCA_REACTOR` value.
    pub fn parse(s: &str) -> Option<ReactorKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "poll" => Some(ReactorKind::Poll),
            "epoll" => Some(ReactorKind::Epoll),
            _ => None,
        }
    }

    /// The platform default: epoll on Linux, poll elsewhere.
    pub fn platform_default() -> ReactorKind {
        #[cfg(target_os = "linux")]
        {
            ReactorKind::Epoll
        }
        #[cfg(not(target_os = "linux"))]
        {
            ReactorKind::Poll
        }
    }

    /// Resolve the backend to run: an explicit choice (the `--reactor` flag)
    /// wins, then the `TCCA_REACTOR` environment variable, then the platform
    /// default. A request for epoll on a platform without it falls back to
    /// poll rather than failing — the two are contract-identical.
    pub fn resolve(explicit: Option<ReactorKind>) -> ReactorKind {
        let choice = explicit
            .or_else(|| {
                std::env::var("TCCA_REACTOR")
                    .ok()
                    .and_then(|v| ReactorKind::parse(&v))
            })
            .unwrap_or_else(ReactorKind::platform_default);
        #[cfg(not(target_os = "linux"))]
        {
            if choice == ReactorKind::Epoll {
                return ReactorKind::Poll;
            }
        }
        choice
    }
}

/// Wakes a blocked [`Reactor::wait`] from another thread.
///
/// Cloneable and cheap: a nonblocking write to the reactor's internal wake
/// pipe. If the pipe is already full the reactor is guaranteed to wake anyway,
/// so a failed write is silently ignored.
#[derive(Clone)]
pub struct Waker {
    tx: std::sync::Arc<std::os::unix::net::UnixStream>,
}

impl Waker {
    fn new(tx: std::os::unix::net::UnixStream) -> Self {
        Waker {
            tx: std::sync::Arc::new(tx),
        }
    }

    /// Interrupt the reactor's current (or next) `wait`.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&*self.tx).write(&[1u8]);
    }
}

/// A readiness-notification backend the event loop multiplexes sockets on.
///
/// Contract (both backends, asserted by the shared conformance tests):
///
/// * Registrations are keyed by file descriptor and carry a caller token that
///   comes back verbatim in every [`Event`].
/// * Level-triggered: readiness persists across `wait` calls until consumed.
/// * `wait` clears and refills `events`; it returns after the timeout with an
///   empty batch if nothing became ready, and early (possibly empty) when the
///   [`Waker`] fires. Wake-pipe traffic is internal and never reported.
/// * Errors and hangups are reported even under `Interest::NONE`.
pub trait Reactor: Send {
    /// Which backend this is (for stats and logs).
    fn kind(&self) -> ReactorKind;

    /// Start watching `fd` under `token`. The descriptor must stay open until
    /// [`Reactor::deregister`]; registering an fd twice is an error.
    fn register(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()>;

    /// Replace the interest (and token) of an already-registered descriptor.
    fn modify(&mut self, fd: i32, token: u64, interest: Interest) -> io::Result<()>;

    /// Stop watching `fd`. Must be called before the descriptor is closed.
    fn deregister(&mut self, fd: i32) -> io::Result<()>;

    /// Block until readiness, a wake, or `timeout_ms` elapses (`-1` blocks
    /// indefinitely). Ready events are appended to the cleared `events`.
    fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()>;

    /// A handle other threads use to interrupt `wait`.
    fn waker(&self) -> Waker;

    /// Registered descriptors, excluding the internal wake pipe.
    fn registered(&self) -> usize;
}

/// Construct the reactor for `kind`.
///
/// Requesting [`ReactorKind::Epoll`] on a non-Linux unix is a compile-time
/// impossibility after [`ReactorKind::resolve`]; this constructor still guards
/// it at runtime for callers that bypass resolution.
pub fn new_reactor(kind: ReactorKind) -> io::Result<Box<dyn Reactor>> {
    match kind {
        ReactorKind::Poll => Ok(Box::new(PollReactor::new()?)),
        ReactorKind::Epoll => {
            #[cfg(target_os = "linux")]
            {
                Ok(Box::new(EpollReactor::new()?))
            }
            #[cfg(not(target_os = "linux"))]
            {
                Ok(Box::new(PollReactor::new()?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn backends() -> Vec<Box<dyn Reactor>> {
        let mut v: Vec<Box<dyn Reactor>> = vec![Box::new(PollReactor::new().unwrap())];
        #[cfg(target_os = "linux")]
        v.push(Box::new(EpollReactor::new().unwrap()));
        v
    }

    /// A connected nonblocking socket pair (client end, server end).
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    fn wait_for_token(r: &mut dyn Reactor, token: u64, events: &mut Vec<Event>) -> Event {
        for _ in 0..100 {
            r.wait(events, 100).unwrap();
            if let Some(ev) = events.iter().find(|e| e.token == token) {
                return *ev;
            }
        }
        panic!("token {token} never became ready");
    }

    #[test]
    fn readiness_is_level_triggered_on_every_backend() {
        for mut r in backends() {
            let (mut client, mut server) = tcp_pair();
            r.register(server.as_raw_fd(), 7, Interest::READ).unwrap();
            assert_eq!(r.registered(), 1);

            let mut events = Vec::new();
            // Idle: a short wait reports nothing.
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{:?} idle events", r.kind());

            client.write_all(b"xy").unwrap();
            let ev = wait_for_token(r.as_mut(), 7, &mut events);
            assert!(ev.readable);

            // Level-triggered: unread bytes re-report on the next wait.
            let ev = wait_for_token(r.as_mut(), 7, &mut events);
            assert!(ev.readable, "{:?} lost level-triggered state", r.kind());

            // Consume, then quiet again.
            let mut buf = [0u8; 8];
            let n = server.read(&mut buf).unwrap();
            assert_eq!(&buf[..n], b"xy");
            r.wait(&mut events, 10).unwrap();
            assert!(
                !events.iter().any(|e| e.token == 7 && e.readable),
                "{:?} reported stale readability",
                r.kind()
            );

            r.deregister(server.as_raw_fd()).unwrap();
            assert_eq!(r.registered(), 0);
            client.write_all(b"z").unwrap();
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty(), "{:?} events after deregister", r.kind());
        }
    }

    #[test]
    fn modify_switches_interest_and_token() {
        for mut r in backends() {
            let (mut client, server) = tcp_pair();
            r.register(server.as_raw_fd(), 1, Interest::NONE).unwrap();

            let mut events = Vec::new();
            client.write_all(b"a").unwrap();
            r.wait(&mut events, 10).unwrap();
            assert!(
                !events.iter().any(|e| e.readable),
                "{:?} reported reads under Interest::NONE",
                r.kind()
            );

            // Flip interest on (and change the token): the pending byte surfaces.
            r.modify(server.as_raw_fd(), 2, Interest::READ_WRITE)
                .unwrap();
            let ev = wait_for_token(r.as_mut(), 2, &mut events);
            assert!(ev.readable);
            assert!(ev.writable, "{:?} idle socket should be writable", r.kind());

            r.deregister(server.as_raw_fd()).unwrap();
            drop(client);
        }
    }

    #[test]
    fn peer_close_surfaces_as_readable_eof() {
        // A graceful FIN is *not* a POLLHUP (that needs both directions shut);
        // it surfaces as read readiness whose read() then returns 0. Both
        // backends must deliver it so the server can reap the connection.
        for mut r in backends() {
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
            assert!(seen, "{:?} never reported the hangup", r.kind());
            r.deregister(server.as_raw_fd()).unwrap();
            drop(server);
        }
    }

    #[test]
    fn waker_interrupts_wait_without_surfacing_events() {
        for mut r in backends() {
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
                "{:?} wait was not interrupted",
                r.kind()
            );
            assert!(
                events.is_empty(),
                "{:?} surfaced wake-pipe events",
                r.kind()
            );
            handle.join().unwrap();
            // Drained: the next wait does not spin on the wake pipe.
            r.wait(&mut events, 10).unwrap();
            assert!(events.is_empty());
        }
    }

    #[test]
    fn resolve_honours_explicit_choice_over_platform_default() {
        assert_eq!(
            ReactorKind::resolve(Some(ReactorKind::Poll)),
            ReactorKind::Poll
        );
        assert_eq!(ReactorKind::parse("EPOLL"), Some(ReactorKind::Epoll));
        assert_eq!(ReactorKind::parse("neither"), None);
        assert_eq!(ReactorKind::Poll.id(), 0);
        assert_eq!(ReactorKind::Epoll.id(), 1);
    }
}
