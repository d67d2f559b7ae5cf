//! # metric-store
//!
//! Time-series storage for training metrics, reproducing the storage
//! study of the yProv4ML paper (Table 1): the same metric data can be
//! kept inline in PROV-JSON (the *normal* representation), or spilled to
//! one of two from-scratch array formats —
//!
//! * [`zarr`] — a chunked column store in the spirit of Zarr: each
//!   column (steps, epochs, timestamps, values) is cut into chunks, each
//!   chunk is encoded (delta/zigzag/varint for integers, Gorilla-style
//!   XOR for floats) and then compressed with LZ77 and Huffman, and
//!   chunks compress in parallel on the [`WorkerPool`];
//! * [`netcdf`] — a single-file header+variables binary layout in the
//!   spirit of classic NetCDF (CDF-1), its columns encoded and
//!   compressed the same way.
//!
//! [`codec::deflate_like`] (LZ77, then Huffman) is the one compressor:
//! neither store has a setting that picks another or none.
//!
//! Both implement the [`store::MetricStore`] trait, so the provenance
//! layer can switch formats with a configuration flag, exactly as the
//! paper's library does. The inline JSON form is written by
//! [`json_store::begin_series`], [`json_store::points_to_json`] and
//! [`json_store::end_series`].
//!
//! ```
//! use metric_store::series::{MetricPoint, MetricSeries};
//! use metric_store::zarr::{ZarrStore, ZarrOptions};
//! use metric_store::store::MetricStore;
//!
//! let mut series = MetricSeries::new("loss", "training");
//! for step in 0..1000u64 {
//!     series.push(MetricPoint {
//!         step,
//!         epoch: (step / 100) as u32,
//!         time_us: 1_000_000 * step as i64,
//!         value: 1.0 / (step + 1) as f64,
//!     });
//! }
//!
//! let dir = std::env::temp_dir().join("metric_store_doctest");
//! let store = ZarrStore::create(&dir, ZarrOptions::default()).unwrap();
//! store.write_series(&series).unwrap();
//! let back = store.read_series("loss", "training").unwrap();
//! assert_eq!(series, back);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod checksum;
pub mod codec;
pub mod error;
pub mod json_store;
pub mod netcdf;
pub mod pool;
pub mod series;
pub mod store;
pub mod zarr;

pub use error::StoreError;
pub use pool::WorkerPool;
pub use series::{MetricPoint, MetricSeries, SeriesStats};
pub use store::MetricStore;
