//! The storage abstraction shared by both spill stores.

use crate::error::StoreError;
use crate::pool::WorkerPool;
use crate::series::MetricSeries;

/// Common interface of metric storage backends.
pub trait MetricStore {
    /// Persists a batch of series (replacing any previous series with
    /// the same name and context), encoding through `pool`.
    ///
    /// The on-disk bytes are the same for every pool size: the finalize
    /// pipeline's determinism guarantee rests on it.
    fn write_many(&self, series: &[&MetricSeries], pool: &WorkerPool) -> Result<(), StoreError>;

    /// Persists one series: [`MetricStore::write_many`] of one, on the
    /// caller's thread.
    fn write_series(&self, series: &MetricSeries) -> Result<(), StoreError> {
        self.write_many(&[series], &WorkerPool::serial())
    }

    /// Reads one series back.
    fn read_series(&self, name: &str, context: &str) -> Result<MetricSeries, StoreError>;

    /// Total bytes used on disk by this store.
    fn size_bytes(&self) -> Result<u64, StoreError>;
}

/// Recursively sums file sizes under a path (file or directory).
pub fn path_size_bytes(path: &std::path::Path) -> Result<u64, StoreError> {
    let meta = std::fs::metadata(path)?;
    if meta.is_file() {
        return Ok(meta.len());
    }
    let mut total = 0u64;
    for entry in std::fs::read_dir(path)? {
        total += path_size_bytes(&entry?.path())?;
    }
    Ok(total)
}
