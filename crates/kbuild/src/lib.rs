//! A Kbuild-style build engine for JMake.
//!
//! JMake drives the kernel build system through exactly three operations
//! (paper §II.A–B, §III.D):
//!
//! - `make ARCH=<a> allyesconfig` (and friends) — create a configuration;
//! - `make file.i` — preprocess one or more files (JMake groups up to 50
//!   per invocation to amortize the Makefile's setup work);
//! - `make file.o` — fully compile one unmutated file.
//!
//! This crate reproduces those operations over an in-memory
//! [`SourceTree`], including the parts of Kbuild that JMake's heuristics
//! read:
//!
//! - [`Makefile`] parsing of `obj-$(CONFIG_X) += foo.o`, subdirectory
//!   descent, and composite objects (`foo-objs := a.o b.o`) —
//!   the inputs to the paper's §III.C architecture-selection heuristics;
//! - [`ObjGraph`] — which configuration variables gate a given object,
//!   resolved recursively through composite labels, with the paper's
//!   any-variable-in-the-Makefile fallback;
//! - the [`Arch`] registry: the 24 architectures the authors' cross-
//!   compilers supported and the 10 that failed (paper footnote 3);
//! - a **virtual clock** ([`VirtualClock`]) with a cost model calibrated to
//!   the paper's Figure 4: configuration creation ≤5 s, `.i` invocations
//!   with a 15–22 s tail, `.o` compilations ≤7 s with rare whole-kernel
//!   outliers (`prom_init.c`, >6000 s);
//! - the bootstrap-file limitation (paper §V.D): files the build system
//!   itself compiles cannot carry mutations — any invalid character in
//!   them fails every subsequent make invocation.

pub mod arch;
pub mod build;
pub mod cache;
pub mod clock;
pub mod diskcache;
pub mod hash;
pub mod makefile;
pub mod objcache;
pub mod objgraph;
pub mod ppcache;
#[cfg(test)]
mod proptests;
pub mod store;
pub mod tree;

pub use arch::{Arch, ArchRegistry};
pub use build::{
    bootstrap_files_of, BuildConfig, BuildEngine, BuildError, ConfigKey, ConfigKind, IFile,
    IResults,
};
pub use cache::ConfigCache;
pub use clock::{CostModel, Samples, VirtualClock};
pub use diskcache::{DiskCache, DiskTierStats};
pub use hash::ContentHash;
pub use makefile::{Cond, Makefile};
pub use objcache::{include_fingerprint, CachedObj, ObjKind, ObjectCache, ObjectKey};
pub use objgraph::{Barred, ObjGraph};
pub use ppcache::PreprocCache;
pub use store::{Entry, Lookup, Store, StoreStats};
pub use tree::{Blob, ConfigScan, SourceTree, TreeChange};
