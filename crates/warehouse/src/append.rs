//! Buffered, bucketed appends: rows accumulate in per-time-bucket
//! [`ColumnarBatch`]es and flush to partition files at a row/byte
//! budget, so ingest memory stays bounded no matter how large the
//! warehouse grows.

use crate::{Warehouse, WarehouseError};
use entrada::schema::QueryRow;
use entrada::table::ColumnarBatch;
use netbase::time::SimDuration;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Appender tuning.
#[derive(Debug, Clone, Copy)]
pub struct AppendConfig {
    /// Time-bucket width of a partition (default one hour, the
    /// paper's analysis granularity).
    pub partition: SimDuration,
    /// Flush a bucket once it holds this many rows.
    pub max_rows: usize,
    /// Flush a bucket once [`ColumnarBatch::bytes`] crosses this.
    pub max_bytes: usize,
}

impl Default for AppendConfig {
    fn default() -> Self {
        AppendConfig {
            partition: SimDuration::from_hours(1),
            max_rows: 1 << 20,
            max_bytes: 64 << 20,
        }
    }
}

/// What an appender wrote, reported by [`Appender::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Rows appended.
    pub rows: u64,
    /// Partition files staged.
    pub partitions: u64,
}

/// A buffered writer of one source's rows into a [`Warehouse`].
///
/// Implements the push/merge shape of the analysis sinks: parallel
/// ingest workers each own an `Appender`, flush full buckets
/// independently, and the survivors' open buckets are merged before
/// the final [`finish`](Appender::finish). Flush failures are
/// remembered (further rows for the failed appender are dropped to
/// keep memory bounded) and surfaced by `finish`.
pub struct Appender<'w> {
    warehouse: &'w Warehouse,
    source: String,
    config: AppendConfig,
    /// Open buckets in first-seen order; a flushed bucket keeps its
    /// place with an empty batch.
    open: Vec<(u64, ColumnarBatch)>,
    /// Bucket → its place in `open`.
    places: HashMap<u64, usize>,
    /// The place of the bucket the last row went to: a row for the
    /// same bucket skips the map.
    last: usize,
    stats: AppendStats,
    error: Option<WarehouseError>,
}

impl<'w> Appender<'w> {
    pub(crate) fn new(warehouse: &'w Warehouse, source: String, config: AppendConfig) -> Self {
        Appender {
            warehouse,
            source,
            config,
            open: Vec::new(),
            places: HashMap::new(),
            last: 0,
            stats: AppendStats::default(),
            error: None,
        }
    }

    /// The place of `bucket` in `open`, opening it if new.
    fn place(&mut self, bucket: u64) -> usize {
        let open = &mut self.open;
        *self.places.entry(bucket).or_insert_with(|| {
            open.push((bucket, ColumnarBatch::new()));
            open.len() - 1
        })
    }

    /// Buffer one row; may flush a full bucket to disk.
    pub fn push(&mut self, row: &QueryRow) {
        if self.error.is_some() {
            return;
        }
        let width = self.config.partition.as_micros().max(1);
        let bucket = row.timestamp.as_micros() / width;
        if self.open.get(self.last).is_none_or(|&(b, _)| b != bucket) {
            self.last = self.place(bucket);
        }
        let batch = &mut self.open[self.last].1;
        batch.push(row);
        self.stats.rows += 1;
        if batch.len() >= self.config.max_rows || batch.bytes() >= self.config.max_bytes {
            let batch = std::mem::take(batch);
            let _span = obs::span("warehouse.append.flush");
            match self.warehouse.stage(&self.source, &batch) {
                Ok(()) => self.stats.partitions += 1,
                Err(e) => {
                    self.open.clear();
                    self.places.clear();
                    self.error = Some(e);
                }
            }
        }
    }

    /// Absorb another appender's open buckets and stats (its already
    /// flushed partitions are staged with the shared warehouse).
    ///
    /// # Panics
    /// If the two appenders target different sources.
    pub fn merge(&mut self, other: Appender<'w>) {
        assert_eq!(self.source, other.source, "appender source mismatch");
        for (bucket, batch) in other.open {
            if !batch.is_empty() {
                let place = self.place(bucket);
                self.open[place].1.merge(batch);
            }
        }
        self.stats.rows += other.stats.rows;
        self.stats.partitions += other.stats.partitions;
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    /// Flush every open bucket and report totals. Does **not** commit
    /// — call [`Warehouse::commit`] once all appenders for the ingest
    /// have finished.
    ///
    /// The buckets take consecutive partition file numbers in bucket
    /// order and are encoded and written on up to
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// threads, this one included (one bucket is written on this one
    /// alone), then staged in bucket order up to the first that failed
    /// to write. So the staged set and the file names are what writing
    /// one bucket after another gives; a file written after a failed
    /// bucket is an unreferenced orphan, like one a crash leaves.
    pub fn finish(mut self) -> Result<AppendStats, WarehouseError> {
        let _span = obs::span("warehouse.append.finish");
        let mut open = std::mem::take(&mut self.open);
        open.retain(|(_, batch)| !batch.is_empty());
        open.sort_unstable_by_key(|&(bucket, _)| bucket);
        let first = self.warehouse.reserve_seqs(open.len());
        // this thread and up to one helper per further core take the
        // next unwritten bucket until none is left
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, batch)) = open.get(i) else {
                    return done;
                };
                let _span = obs::span("warehouse.append.flush");
                done.push((
                    i,
                    self.warehouse.write(first + i as u64, &self.source, batch),
                ));
            }
        };
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(open.len());
        let mut written = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            let mut written = work();
            for helper in helpers {
                written.extend(helper.join().expect("partition writer panicked"));
            }
            written
        });
        written.sort_unstable_by_key(|&(i, _)| i);
        for (_, result) in written {
            match result {
                Ok(meta) => {
                    self.warehouse.stage_written(meta);
                    self.stats.partitions += 1;
                }
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest;
    use netbase::time::SimTime;

    fn row_at(us: u64) -> QueryRow {
        QueryRow {
            timestamp: SimTime(us),
            src: "192.0.2.1".parse().unwrap(),
            src_port: 3333,
            server: "194.0.28.53".parse().unwrap(),
            transport: netbase::flow::Transport::Udp,
            qname: "a.example.nl.".parse().unwrap(),
            qtype: dns_wire::types::RType::A,
            edns_size: Some(1232),
            do_bit: false,
            rcode: Some(dns_wire::types::Rcode::NoError),
            response_size: Some(100),
            response_truncated: false,
            tcp_rtt_us: 0,
            asn: None,
            provider: None,
            public_dns: false,
        }
    }

    fn tmp_warehouse(name: &str) -> (std::path::PathBuf, Warehouse) {
        let dir = std::env::temp_dir().join(format!("dnswh-append-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wh = Warehouse::open(&dir).unwrap();
        (dir, wh)
    }

    #[test]
    fn hour_bucketing_splits_partitions() {
        let (dir, wh) = tmp_warehouse("hours");
        wh.ensure_source("s", "{}").unwrap();
        let mut app = wh.appender("s", AppendConfig::default());
        let hour = 3_600_000_000u64;
        for i in 0..100 {
            app.push(&row_at(10 * hour + i));
            app.push(&row_at(11 * hour + i));
            app.push(&row_at(12 * hour + i));
        }
        let stats = app.finish().unwrap();
        assert_eq!(stats.rows, 300);
        assert_eq!(stats.partitions, 3, "three distinct hours");
        assert_eq!(wh.commit().unwrap(), 3);
        assert_eq!(wh.rows(), 300);
        let parts = wh.partitions();
        assert!(parts
            .windows(2)
            .all(|w| w[0].zone.min_ts <= w[1].zone.min_ts));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn row_budget_flushes_early() {
        let (dir, wh) = tmp_warehouse("budget");
        wh.ensure_source("s", "{}").unwrap();
        let mut app = wh.appender(
            "s",
            AppendConfig {
                max_rows: 10,
                ..AppendConfig::default()
            },
        );
        for i in 0..35 {
            app.push(&row_at(1_000 + i));
        }
        let stats = app.finish().unwrap();
        assert_eq!(stats.partitions, 4, "3 full flushes + 1 remainder");
        wh.commit().unwrap();
        assert_eq!(wh.rows(), 35);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_combines_open_buckets() {
        let (dir, wh) = tmp_warehouse("merge");
        wh.ensure_source("s", "{}").unwrap();
        let mut a = wh.appender("s", AppendConfig::default());
        let mut b = wh.appender("s", AppendConfig::default());
        for i in 0..50 {
            a.push(&row_at(1_000 + i));
            b.push(&row_at(2_000 + i));
        }
        a.merge(b);
        let stats = a.finish().unwrap();
        assert_eq!(stats.rows, 100);
        assert_eq!(stats.partitions, 1, "same hour bucket merged");
        wh.commit().unwrap();
        assert_eq!(wh.rows(), 100);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_partitions_stay_invisible() {
        let (dir, wh) = tmp_warehouse("staged");
        wh.ensure_source("s", "{}").unwrap();
        let mut app = wh.appender("s", AppendConfig::default());
        app.push(&row_at(5));
        app.finish().unwrap();
        assert_eq!(wh.partitions().len(), 0, "not committed yet");
        let reopened = Warehouse::open(&dir).unwrap();
        assert_eq!(reopened.partitions().len(), 0, "orphan file not listed");
        wh.commit().unwrap();
        assert_eq!(Warehouse::open(&dir).unwrap().partitions().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    const HOUR: u64 = 3_600_000_000;

    /// 40 rows in each of six hours, the hours first seen out of order
    /// (3, 0, 5, 1, 4, 2), with a few distinct names per hour.
    fn rows_over_six_hours() -> Vec<QueryRow> {
        let mut rows = Vec::new();
        for hour in [3u64, 0, 5, 1, 4, 2] {
            for i in 0..40 {
                let mut row = row_at(hour * HOUR + i * 1_000);
                row.qname = format!("n{}.h{hour}.example.nl.", i % 9).parse().unwrap();
                rows.push(row);
            }
        }
        rows
    }

    /// Every file of a warehouse directory, by name.
    fn dir_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn finish_writes_the_same_bytes_into_fresh_warehouses() {
        let rows = rows_over_six_hours();
        let mut dirs = Vec::new();
        for name in ["same-a", "same-b"] {
            let (dir, wh) = tmp_warehouse(name);
            wh.ensure_source("s", "{}").unwrap();
            let mut app = wh.appender("s", AppendConfig::default());
            for row in &rows {
                app.push(row);
            }
            assert_eq!(app.finish().unwrap().partitions, 6);
            assert_eq!(wh.commit().unwrap(), 6);
            dirs.push(dir);
        }
        let (a, b) = (dir_files(&dirs[0]), dir_files(&dirs[1]));
        assert_eq!(a.len(), 7, "six partitions and the manifest");
        assert!(a.iter().any(|(name, _)| name == manifest::MANIFEST_FILE));
        assert!(a == b, "the two directories differ");
        for dir in dirs {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn finish_numbers_partitions_in_bucket_order() {
        let (dir, wh) = tmp_warehouse("order");
        wh.ensure_source("s", "{}").unwrap();
        let mut app = wh.appender("s", AppendConfig::default());
        for row in rows_over_six_hours() {
            app.push(&row);
        }
        app.finish().unwrap();
        wh.commit().unwrap();
        let parts = wh.partitions();
        let files: Vec<&str> = parts.iter().map(|p| p.file.as_str()).collect();
        let hours: Vec<u64> = parts.iter().map(|p| p.zone.min_ts / HOUR).collect();
        assert_eq!(hours, [0, 1, 2, 3, 4, 5]);
        assert_eq!(
            files,
            (0..6)
                .map(|seq| format!("part-{seq:06}.dnswh"))
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_stages_only_the_buckets_before_a_failed_one() {
        let (dir, wh) = tmp_warehouse("squat");
        wh.ensure_source("s", "{}").unwrap();
        // a directory where the third bucket's file goes
        let squatted = dir.join("part-000002.dnswh");
        std::fs::create_dir(&squatted).unwrap();
        let mut app = wh.appender("s", AppendConfig::default());
        for row in rows_over_six_hours() {
            app.push(&row);
        }
        match app.finish() {
            Err(WarehouseError::Io { path, .. }) => {
                assert_eq!(path, squatted.display().to_string())
            }
            other => panic!("expected the squatted file's error, got {other:?}"),
        }
        assert_eq!(wh.commit().unwrap(), 2, "only the two earlier buckets");
        let parts = Warehouse::open(&dir).unwrap().partitions();
        let files: Vec<&str> = parts.iter().map(|p| p.file.as_str()).collect();
        assert_eq!(files, ["part-000000.dnswh", "part-000001.dnswh"]);
        let hours: Vec<u64> = parts.iter().map(|p| p.zone.min_ts / HOUR).collect();
        assert_eq!(hours, [0, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_metadata_conflicts_rejected() {
        let (dir, wh) = tmp_warehouse("sources");
        wh.ensure_source("s", "{\"seed\":1}").unwrap();
        wh.ensure_source("s", "{\"seed\":1}").unwrap();
        assert!(matches!(
            wh.ensure_source("s", "{\"seed\":2}"),
            Err(WarehouseError::SourceMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
