//! # jmake-serve — the JMake evaluation daemon
//!
//! A long-running service that answers evaluation requests over a Unix
//! domain socket. Each request names a workload (commit count, seed,
//! worker count, config-strategy flags) and a report section; the daemon
//! runs it through the same parallel driver `jmake-eval` uses and
//! sends back the rendered report — **byte-identical** to what a local
//! `jmake-eval` run would print for the same parameters, because the
//! shared config/object caches only affect host-side time, never the
//! simulated results.
//!
//! Why a daemon at all: janitors iterating on a patch series ask for the
//! same portfolio over and over. A daemon keeps the caches warm across
//! requests (and, with `--cache-dir`, across restarts via the persistent
//! tier in [`jmake_kbuild::DiskCache`]), so the second request onward
//! skips the config-solving and object-compilation work entirely.
//!
//! See [`protocol`] for the JSONL wire format and [`server`] for the
//! batching/backpressure/drain machinery.

pub mod protocol;
pub mod server;

pub use protocol::{EvalRequest, Request, Response};
pub use server::{request, serve, ServerOptions};
