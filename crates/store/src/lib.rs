//! # nav-store — the durability layer
//!
//! Everything the serving stack computes is a pure function of its
//! construction inputs plus each query's RNG index — which is exactly
//! what makes warm restarts *checkable*: persist the inputs and the warm
//! state, restore, and the continuation of the stream must be
//! bit-identical to the uninterrupted engine. This crate is that
//! persistence:
//!
//! * [`Snapshot`] — a versioned on-disk image of a
//!   [`nav_engine::Engine`]: graph edges, the augmentation scheme
//!   (realized schemes by their actual joint draw, so a restore never
//!   re-rolls the links), the answer-determining config, the lifetime
//!   counters and the resident cache rows.
//!   The format is a magic/version/section-table header over
//!   independently offset sections — unknown section ids are skipped, so
//!   old readers survive new writers ([`Snapshot::encode`],
//!   [`Snapshot::decode`]).
//! * [`RecordWriter`] / [`read_record_log`] — a length-prefixed binary
//!   log of accepted request/response frame bytes, flushed per entry so
//!   a `kill -9` loses at most the entry being written; the reader
//!   returns the durable prefix and silently drops a truncated tail.
//!
//! The decoders follow the same totality discipline as the wire codec in
//! `nav-net`: every read is bounds-checked, every count is validated
//! against the bytes that remain *before* allocation, and malformed
//! input of any shape returns [`StoreError`] — never a panic.
//! `tests/store.rs` property-tests truncation, mutation, and forged
//! section lengths.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cursor;
mod record;
mod snapshot;

pub use record::{read_record_log, RecordWriter, RecordedExchange, RECORD_MAGIC};
pub use snapshot::{SchemeSpec, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

use std::fmt;

/// Everything that can go wrong persisting or rehydrating state. Decode
/// errors carry a static context string naming the field or section that
/// failed, so a corrupt file is diagnosable without a hex dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u16),
    /// The bytes end before a field or section completes.
    Truncated(&'static str),
    /// A field decoded to a value the format forbids.
    Malformed(&'static str),
    /// The engine serves a scheme the snapshot format cannot represent.
    UnsupportedScheme(String),
    /// Rebuilding the graph from the decoded edge list failed.
    Graph(nav_graph::GraphError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "bad magic bytes"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated(what) => write!(f, "truncated input: {what}"),
            StoreError::Malformed(what) => write!(f, "malformed input: {what}"),
            StoreError::UnsupportedScheme(name) => {
                write!(f, "scheme `{name}` cannot be snapshotted")
            }
            StoreError::Graph(e) => write!(f, "graph rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<nav_graph::GraphError> for StoreError {
    fn from(e: nav_graph::GraphError) -> Self {
        StoreError::Graph(e)
    }
}
