//! The warehouse root manifest: the single source of truth for which
//! partition files exist and which ingest sources produced them.
//!
//! Appends are atomic: new partition files are fully written first
//! (under names the committed manifest does not reference), then the
//! updated manifest is written to `MANIFEST.json.tmp` and renamed over
//! `MANIFEST.json`. A crash mid-append leaves at worst orphan
//! partition files that no manifest row points to — readers only ever
//! open files the manifest lists, so a torn append is invisible rather
//! than corrupting the store.

use crate::partition::ZoneMap;
use crate::WarehouseError;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// Manifest file name under the warehouse root.
pub const MANIFEST_FILE: &str = "MANIFEST.json";

/// An ingest source: one dataset (or live capture) appended into the
/// warehouse. `meta` is an opaque JSON payload owned by the caller —
/// the analysis layer stores the full `(spec, scale, seed)` triple
/// there so scans can rebuild the enrichment context and re-appends
/// can be checked for compatibility.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceMeta {
    /// Stable source identifier (the dataset id, e.g. `nl2020`).
    pub id: String,
    /// Opaque caller JSON describing the source.
    pub meta: String,
}

/// One committed partition file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionMeta {
    /// File name relative to the warehouse root.
    pub file: String,
    /// Id of the [`SourceMeta`] that produced it.
    pub source: String,
    /// Encoded file size in bytes.
    pub bytes: u64,
    /// Zone map duplicated from the partition footer, so predicate
    /// pushdown can prune without opening the file.
    pub zone: ZoneMap,
    /// CRC32 trailer of the file, for cheap external integrity checks.
    pub crc: u32,
}

/// The serialized manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version (currently 1).
    pub version: u32,
    /// Next partition file sequence number.
    pub next_seq: u64,
    /// Registered ingest sources.
    pub sources: Vec<SourceMeta>,
    /// Committed partitions, in commit order.
    pub partitions: Vec<PartitionMeta>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            version: 1,
            next_seq: 0,
            sources: Vec::new(),
            partitions: Vec::new(),
        }
    }
}

impl Manifest {
    /// Load the manifest under `root`, or `None` when the warehouse is
    /// brand new.
    pub fn load(root: &Path) -> Result<Option<Manifest>, WarehouseError> {
        let path = root.join(MANIFEST_FILE);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(WarehouseError::io(&path, e)),
        };
        let manifest: Manifest =
            serde_json::from_slice(&bytes).map_err(|e| WarehouseError::Corrupt {
                path: path.display().to_string(),
                reason: format!("manifest parse failed: {e}"),
            })?;
        if manifest.version != 1 {
            return Err(WarehouseError::Corrupt {
                path: path.display().to_string(),
                reason: format!("unsupported manifest version {}", manifest.version),
            });
        }
        Ok(Some(manifest))
    }

    /// Atomically replace the manifest under `root` (write tmp, then
    /// rename — readers see either the old or the new manifest, never
    /// a partial one).
    pub fn save(&self, root: &Path) -> Result<(), WarehouseError> {
        let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
        let fin = root.join(MANIFEST_FILE);
        let json = serde_json::to_string_pretty(self).map_err(|e| WarehouseError::Corrupt {
            path: fin.display().to_string(),
            reason: format!("manifest serialize failed: {e}"),
        })?;
        fs::write(&tmp, json.as_bytes()).map_err(|e| WarehouseError::io(&tmp, e))?;
        fs::rename(&tmp, &fin).map_err(|e| WarehouseError::io(&fin, e))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dnswh-manifest-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip() {
        let root = tmp_root("roundtrip");
        let m = Manifest {
            version: 1,
            next_seq: 3,
            sources: vec![SourceMeta {
                id: "nl2020".into(),
                meta: "{\"seed\":42}".into(),
            }],
            partitions: vec![PartitionMeta {
                file: "part-000001.dnswh".into(),
                source: "nl2020".into(),
                bytes: 1234,
                zone: ZoneMap {
                    rows: 10,
                    min_ts: 5,
                    max_ts: 9,
                    providers: 0b10,
                    qtypes: vec![1, 28],
                },
                crc: 0xdeadbeef,
            }],
        };
        m.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap(), Some(m));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_manifest_is_none() {
        let root = tmp_root("missing");
        assert_eq!(Manifest::load(&root).unwrap(), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_manifest_is_corrupt_not_panic() {
        let root = tmp_root("garbage");
        fs::write(root.join(MANIFEST_FILE), b"{not json").unwrap();
        match Manifest::load(&root) {
            Err(WarehouseError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn deeply_nested_manifest_is_corrupt_not_a_stack_overflow() {
        let root = tmp_root("nested");
        let depth = 100_000;
        let text = "[".repeat(depth) + &"]".repeat(depth);
        fs::write(root.join(MANIFEST_FILE), text).unwrap();
        match Manifest::load(&root) {
            Err(WarehouseError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn save_replaces_atomically() {
        let root = tmp_root("atomic");
        let mut m = Manifest::default();
        m.save(&root).unwrap();
        m.next_seq = 7;
        m.save(&root).unwrap();
        assert_eq!(Manifest::load(&root).unwrap().unwrap().next_seq, 7);
        assert!(
            !root.join(format!("{MANIFEST_FILE}.tmp")).exists(),
            "tmp file renamed away"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
