//! The TCP front door: bind, admit, thread-per-connection.
//!
//! No async runtime — the build is fully vendored and the workload is
//! compute-bound simulation, not massive fan-in I/O. A plain
//! [`std::net::TcpListener`] with one OS thread per admitted session
//! is simple, debuggable, and saturates the machine anyway: a
//! session's run queues its sharded `(campaign, round)` work on the
//! process's one worker pool, shared by every session, so session
//! threads mostly sit in `read_line` waiting for the next request or
//! wait for their run's rounds. The process holds the session threads,
//! the accept thread and the pool's threads — however many runs are
//! live, no run adds threads of its own.
//!
//! Panic containment: each session runs under `catch_unwind`. A
//! panicking request (a bug, a poisoned assumption) kills only its own
//! session — the admission permit is released by its drop guard, the
//! world pool's non-poisoning locks stay usable, a producing session's
//! broadcast is failed by its guard so taps never hang, and the accept
//! loop keeps serving everyone else.
//!
//! Admission here is only the *connection* bound (`max_sessions`,
//! `ERR busy` with a retry hint); the *work* bound is the per-client
//! credit ledger enforced inside the session loop (`ERR credits`), so
//! a connected client issuing cheap `STATS` probes is never refused
//! just because heavy sweeps are running.

use crate::session::{run_session, ServiceConfig, SessionManager};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running service: the bound listener plus its accept thread.
pub struct Server {
    addr: SocketAddr,
    mgr: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port)
    /// and starts accepting sessions on a background thread.
    pub fn start(addr: impl ToSocketAddrs, cfg: ServiceConfig) -> std::io::Result<Server> {
        // A server is an observability surface: turn telemetry on so
        // `METRICS` serves live stage histograms and scheduler gauges.
        // Record-path overhead is a few relaxed atomics per *stage*,
        // and the e2e suite proves streamed CSVs stay byte-identical.
        shortcuts_telemetry::global().set_enabled(true);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mgr = Arc::new(SessionManager::new(cfg));
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_mgr = Arc::clone(&mgr);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("shortcuts-service-accept".into())
            .spawn(move || accept_loop(listener, accept_mgr, accept_shutdown))?;

        Ok(Server {
            addr,
            mgr,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager (pool stats, active-session count).
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.mgr
    }

    /// Stops accepting new sessions and joins the accept thread.
    /// Sessions already running finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        let Some(handle) = self.accept_thread.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept call with one throwaway connection; the
        // loop re-checks the flag before admitting it.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: TcpListener, mgr: Arc<SessionManager>, shutdown: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else {
            // Transient accept failures (fd exhaustion, aborted
            // handshakes) must not melt into a 100%-CPU retry spin —
            // back off briefly; the listener queue holds the backlog.
            std::thread::sleep(std::time::Duration::from_millis(50));
            continue;
        };
        match mgr.try_admit() {
            Some(permit) => {
                let session_mgr = Arc::clone(&mgr);
                let spawned = std::thread::Builder::new()
                    .name("shortcuts-service-session".into())
                    .spawn(move || {
                        // The permit lives (and dies) with the session
                        // thread; catch_unwind keeps a panicking
                        // request from tearing down the process.
                        let _permit = permit;
                        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            let _ = run_session(&session_mgr, stream);
                        }));
                    });
                // Spawn failure (fd/thread exhaustion): the permit
                // was moved into the failed closure and is already
                // dropped; nothing to clean up.
                let _ = spawned;
            }
            None => {
                // Over capacity: refuse loudly and hang up. The
                // client sees ERR instead of the greeting; the hint
                // feeds the client-side backoff. One write: the line must
                // not reach the client torn ahead of the hang-up.
                let refusal = format!(
                    "ERR busy: {} sessions active (max {}) retry-after-ms=100\n",
                    mgr.active_sessions(),
                    mgr.config().max_sessions
                );
                let mut stream = stream;
                let _ = stream.write_all(refusal.as_bytes());
            }
        }
    }
}
