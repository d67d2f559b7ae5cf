//! CRC-32 (IEEE 802.3): the one in [`metric_store::checksum`], under the
//! name this crate has always used.
//!
//! Frames every journal record so [`crate::journal::read_journal`] can
//! tell a torn or bit-flipped line from a valid one: SHA-256 (see
//! [`crate::hash`]) is overkill for a per-record integrity check on the
//! logging hot path, while a table-driven CRC costs nanoseconds and
//! catches every burst error shorter than 32 bits. The collector routes
//! a metric to its folding shard by the same function of its name, so a
//! change of polynomial would move both the journal's bytes and the
//! shard assignment; the fixtures of `journal` and `collector` pin them.

pub use metric_store::checksum::{crc32, Crc32};
