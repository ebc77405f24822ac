#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Out-of-core columnar store for query rows.
//!
//! The paper's ENTRADA platform persisted 55.7B joined query rows as
//! Parquet on HDFS and answered every analysis by scanning partitions;
//! this crate is that storage layer at library scale. A *warehouse* is
//! a directory of immutable partition files — one per (source, time
//! bucket), each a self-describing file of per-column segments with a
//! zone-map footer and CRC ([`partition`]) — plus a JSON manifest
//! ([`manifest`]) naming every committed partition and the ingest
//! source that produced it.
//!
//! Writers go through an [`Appender`] (hour-bucketed, flushed at a
//! row/byte budget) and make new partitions durable with
//! [`Warehouse::commit`], which atomically replaces the manifest —
//! crash-interrupted appends leave only unreferenced orphan files.
//! Readers either stream rows through a [`PartitionScan`] or plan a
//! partition list with [`Warehouse::plan`] and read partitions in
//! parallel; both prune partitions whose manifest zone maps cannot
//! match the [`Predicate`] before touching file bytes, and count
//! pruned/scanned/corrupt partitions in [`ScanStats`] and the process
//! metrics registry.

pub mod append;
pub mod codec;
pub mod explain;
pub mod manifest;
pub mod partition;
pub mod scan;

pub use append::{AppendConfig, AppendStats, Appender};
pub use explain::{PartitionProfile, PruneDim};
pub use manifest::{Manifest, PartitionMeta, SourceMeta};
pub use partition::{ColumnBytes, PartitionError, ZoneMap};
pub use scan::{PartitionScan, Predicate, ScanStats};

use entrada::table::ColumnarBatch;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Anything that can go wrong opening, appending to, or scanning a
/// warehouse.
#[derive(Debug)]
pub enum WarehouseError {
    /// Filesystem error on `path`.
    Io {
        /// Affected path.
        path: String,
        /// Underlying error.
        err: std::io::Error,
    },
    /// A file exists but its contents are not trustworthy.
    Corrupt {
        /// Affected path.
        path: String,
        /// Human-readable reason (CRC mismatch, truncation, ...).
        reason: String,
    },
    /// A source id is already registered with different metadata.
    SourceMismatch {
        /// The conflicting source id.
        id: String,
    },
}

impl WarehouseError {
    fn io(path: &Path, err: std::io::Error) -> Self {
        WarehouseError::Io {
            path: path.display().to_string(),
            err,
        }
    }
}

impl std::fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarehouseError::Io { path, err } => write!(f, "{path}: {err}"),
            WarehouseError::Corrupt { path, reason } => write!(f, "{path}: {reason}"),
            WarehouseError::SourceMismatch { id } => write!(
                f,
                "source {id} already registered with different spec/scale/seed metadata"
            ),
        }
    }
}

impl std::error::Error for WarehouseError {}

struct Inner {
    manifest: Manifest,
    /// Partitions written to disk but not yet committed to the
    /// manifest.
    staged: Vec<PartitionMeta>,
}

/// An open warehouse root directory. Cheap to share behind an `Arc`;
/// all mutation goes through an internal mutex, file I/O happens
/// outside it.
pub struct Warehouse {
    root: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Warehouse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Warehouse")
            .field("root", &self.root)
            .finish()
    }
}

impl Warehouse {
    /// Open (creating the directory if needed) the warehouse at
    /// `root` and load its manifest.
    pub fn open(root: impl Into<PathBuf>) -> Result<Warehouse, WarehouseError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| WarehouseError::io(&root, e))?;
        let manifest = Manifest::load(&root)?.unwrap_or_default();
        Ok(Warehouse {
            root,
            inner: Mutex::new(Inner {
                manifest,
                staged: Vec::new(),
            }),
        })
    }

    /// The warehouse root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Register an ingest source, or verify an existing registration.
    /// Re-appending to a known source is allowed only when `meta`
    /// matches byte-for-byte — otherwise the scan-side reconstruction
    /// of the enrichment context would silently disagree with the
    /// stored rows.
    pub fn ensure_source(&self, id: &str, meta: &str) -> Result<(), WarehouseError> {
        let mut inner = self.inner.lock().expect("warehouse lock");
        match inner.manifest.sources.iter().find(|s| s.id == id) {
            Some(existing) if existing.meta == meta => Ok(()),
            Some(_) => Err(WarehouseError::SourceMismatch { id: id.to_string() }),
            None => {
                inner.manifest.sources.push(SourceMeta {
                    id: id.to_string(),
                    meta: meta.to_string(),
                });
                Ok(())
            }
        }
    }

    /// Registered sources, in registration order.
    pub fn sources(&self) -> Vec<SourceMeta> {
        self.inner
            .lock()
            .expect("warehouse lock")
            .manifest
            .sources
            .clone()
    }

    /// The metadata of one source, if registered.
    pub fn source(&self, id: &str) -> Option<SourceMeta> {
        self.inner
            .lock()
            .expect("warehouse lock")
            .manifest
            .sources
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    /// Committed partitions (staged ones are invisible until
    /// [`commit`](Warehouse::commit)).
    pub fn partitions(&self) -> Vec<PartitionMeta> {
        self.inner
            .lock()
            .expect("warehouse lock")
            .manifest
            .partitions
            .clone()
    }

    /// Total committed rows.
    pub fn rows(&self) -> u64 {
        self.inner
            .lock()
            .expect("warehouse lock")
            .manifest
            .partitions
            .iter()
            .map(|p| p.zone.rows)
            .sum()
    }

    /// A new appender for `source` (register the source first with
    /// [`ensure_source`](Warehouse::ensure_source)).
    pub fn appender(&self, source: &str, config: AppendConfig) -> Appender<'_> {
        Appender::new(self, source.to_string(), config)
    }

    /// Encode `batch` into a new partition file on disk and stage it
    /// for the next [`commit`](Warehouse::commit). Empty batches are
    /// ignored.
    pub fn stage(&self, source: &str, batch: &ColumnarBatch) -> Result<(), WarehouseError> {
        if batch.is_empty() {
            return Ok(());
        }
        let seq = self.reserve_seqs(1);
        let meta = self.write(seq, source, batch)?;
        self.stage_written(meta);
        Ok(())
    }

    /// Reserve `n` consecutive partition file numbers; returns the
    /// first.
    pub(crate) fn reserve_seqs(&self, n: usize) -> u64 {
        let mut inner = self.inner.lock().expect("warehouse lock");
        let seq = inner.manifest.next_seq;
        inner.manifest.next_seq += n as u64;
        seq
    }

    /// Encode a non-empty `batch` into partition file `seq` and return
    /// its manifest entry. Takes no lock, so threads write files
    /// side by side.
    pub(crate) fn write(
        &self,
        seq: u64,
        source: &str,
        batch: &ColumnarBatch,
    ) -> Result<PartitionMeta, WarehouseError> {
        let (bytes, zone) = partition::encode(batch);
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("crc trailer"));
        let file = format!("part-{seq:06}.dnswh");
        let path = self.root.join(&file);
        fs::write(&path, &bytes).map_err(|e| WarehouseError::io(&path, e))?;
        Ok(PartitionMeta {
            file,
            source: source.to_string(),
            bytes: bytes.len() as u64,
            zone,
            crc,
        })
    }

    /// Stage a written partition for the next
    /// [`commit`](Warehouse::commit).
    pub(crate) fn stage_written(&self, meta: PartitionMeta) {
        self.inner.lock().expect("warehouse lock").staged.push(meta);
    }

    /// Commit every staged partition (and any newly registered
    /// sources) by atomically replacing the manifest. Returns the
    /// number of partitions committed. Staged partitions are sorted by
    /// (source, min timestamp, file) first, so the manifest order —
    /// and therefore scan order — does not depend on which ingest
    /// worker flushed first.
    pub fn commit(&self) -> Result<usize, WarehouseError> {
        let _span = obs::span("warehouse.commit");
        let mut inner = self.inner.lock().expect("warehouse lock");
        let mut staged = std::mem::take(&mut inner.staged);
        staged.sort_by(|a, b| {
            (&a.source, a.zone.min_ts, &a.file).cmp(&(&b.source, b.zone.min_ts, &b.file))
        });
        let n = staged.len();
        inner.manifest.partitions.extend(staged);
        inner.manifest.save(&self.root)?;
        Ok(n)
    }

    /// Read and fully verify one committed partition (CRC + structural
    /// decode). The manifest CRC is cross-checked against the file
    /// trailer so a swapped file is caught even when self-consistent.
    pub fn read_partition(&self, meta: &PartitionMeta) -> Result<ColumnarBatch, WarehouseError> {
        self.read_partition_profiled(meta).map(|(batch, _)| batch)
    }

    /// [`read_partition`](Warehouse::read_partition), additionally
    /// returning the encoded payload length of every column segment
    /// (EXPLAIN's per-column byte accounting).
    pub fn read_partition_profiled(
        &self,
        meta: &PartitionMeta,
    ) -> Result<(ColumnarBatch, partition::ColumnBytes), WarehouseError> {
        let path = self.root.join(&meta.file);
        let bytes = fs::read(&path).map_err(|e| WarehouseError::io(&path, e))?;
        let (batch, zone, columns) =
            partition::decode_profiled(&bytes).map_err(|e| WarehouseError::Corrupt {
                path: path.display().to_string(),
                reason: e.to_string(),
            })?;
        let trailer = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("trailer"));
        if trailer != meta.crc || zone != meta.zone {
            return Err(WarehouseError::Corrupt {
                path: path.display().to_string(),
                reason: "partition does not match its manifest entry".to_string(),
            });
        }
        Ok((batch, columns))
    }
}
