//! # pgr-registry
//!
//! The grammar registry and the `pgr` request server.
//!
//! The paper's pipeline trains one grammar per corpus, and everything
//! downstream — compression, decompression, the compressed interpreter —
//! is only correct against *that exact grammar*. Once several trained
//! grammars exist, "which grammar decodes this image?" must be answered
//! by the system, not by operator discipline. This crate answers it with
//! content addressing:
//!
//! * [`GrammarId`] — SHA-256 of a grammar's canonical `.pgrg` bytes; one
//!   grammar, one id, and the id doubles as the load-time integrity
//!   check.
//! * [`Registry`] — a directory of grammars keyed by id, with manifests
//!   ([`Manifest`]), prefix resolution, idempotent stores, stale-object
//!   rejection, and [`Registry::gc`].
//! * [`Server`] / [`serve`] — newline-delimited JSON over a Unix
//!   socket: `compress` / `decompress` / `run` / `stats` / `shutdown`
//!   requests dispatched onto shared per-grammar engines, with
//!   per-request deadlines, bounded lines, connections and queues, and
//!   panic isolation.
//!
//! The server's one transport is an epoll reactor over raw syscalls, so
//! the crate supports Linux on x86_64 or aarch64 and nothing else. The
//! syscall bindings (`sys`) are the only module the `unsafe_code` lint
//! admits.
//!
//! Compressed images produced here carry their grammar's id in the v2
//! image meta section (see `pgr_bytecode::write_program_tagged`), so a
//! stored image round-trips through any registry that holds its grammar
//! — no paths, no "I think it was trained last Tuesday".

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("pgr-registry supports Linux on x86_64 or aarch64 only: `pgr serve` runs on epoll");

pub(crate) mod batch;
pub mod chaos;
pub mod id;
pub mod proto;
pub(crate) mod reactor;
pub mod serve;
pub mod store;
#[allow(unsafe_code)]
pub(crate) mod sys;
pub mod window;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosProxy};
pub use id::{sha256, GrammarId, ID_LEN};
pub use proto::{base64_decode, base64_encode, ResponseLine};
pub use serve::{ServeConfig, ServeError, Server};
pub use store::{GcReport, Manifest, Registry, RegistryError, MANIFEST_VERSION};
pub use window::{op_of_hist_name, SlidingWindow, WindowStats, DEFAULT_WINDOW_SECS};
