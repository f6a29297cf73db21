//! Minimal, std-only termination-signal latch.
//!
//! The daemon needs exactly one bit from the outside world: "stop
//! accepting and drain". std exposes no signal API, and the workspace
//! is dependency-free, so on Unix we bind the C `signal(2)` entry
//! point directly (std already links libc) and install a handler that
//! does the only async-signal-safe thing possible — store into an
//! atomic. The accept loop polls [`termination_requested`] between
//! accepts. On non-Unix targets nothing trips the latch; `POST
//! /v1/drain`, which sets the server's own draining flag, still works.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATE: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    use super::{Ordering, TERMINATE};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        // Only an atomic store: anything else (alloc, locks, I/O) is
        // not async-signal-safe.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM/SIGINT handlers. Idempotent.
    pub fn install() {
        let handler = on_terminate as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the C standard library entry point; the
        // handler is a plain function performing one atomic store.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Installs the termination handlers where the platform supports
/// them. Safe to call more than once.
pub fn install() {
    #[cfg(unix)]
    unix::install();
}

/// Whether a SIGTERM/SIGINT has been observed.
#[must_use]
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::SeqCst)
}
