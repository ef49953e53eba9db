//! An in-memory stand-in for HDFS.
//!
//! The paper's multi-cycle algorithms (RCCIS, All-Seq-Matrix, PASM) chain
//! map-reduce jobs through the distributed file system: "Reducer p_i then
//! writes out all the intervals on the disk along-with a flag … The second
//! round of map operations read the output of first round of reducers"
//! (Section 6.1). [`Dfs`] provides exactly that contract — named, immutable
//! files of typed records — plus read/write volume accounting so the
//! harness can report per-cycle I/O the way the paper reasons about the
//! "huge reading cost" of the 2-way cascade.

use crate::record::Record;
use crate::sync::Locked;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Error returned by [`Dfs`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// No file at the given path.
    NotFound(String),
    /// A file exists but holds records of a different type.
    WrongType(String),
    /// Attempt to overwrite an existing file (HDFS files are immutable).
    AlreadyExists(String),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs: no such file: {p}"),
            DfsError::WrongType(p) => write!(f, "dfs: wrong record type for file: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "dfs: file already exists: {p}"),
        }
    }
}

impl std::error::Error for DfsError {}

struct DfsFile {
    records: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    count: u64,
}

/// An in-memory, append-only namespace of typed record files.
///
/// Files are write-once (like HDFS); reads return a shared handle without
/// copying. All accesses update the volume counters.
#[derive(Default)]
pub struct Dfs {
    files: Locked<BTreeMap<String, DfsFile>>,
    stats: Locked<DfsStats>,
}

/// Cumulative I/O volume through a [`Dfs`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DfsStats {
    /// Records written across all files.
    pub records_written: u64,
    /// Approximate bytes written.
    pub bytes_written: u64,
    /// Records read (each `read` counts the full file; `read_range` counts
    /// only the records returned).
    pub records_read: u64,
    /// Approximate bytes read.
    pub bytes_read: u64,
    /// Number of [`Dfs::read_range`] calls (chunked spill-run reads).
    pub range_reads: u64,
}

impl Dfs {
    /// An empty file system.
    pub fn new() -> Self {
        Dfs::default()
    }

    /// Writes `records` as the immutable file `path`.
    pub fn write<V: Record>(&self, path: &str, records: Vec<V>) -> Result<(), DfsError> {
        let bytes: u64 = records.iter().map(Record::approx_bytes).sum();
        let count = records.len() as u64;
        // The namespace lock is released before the stats lock is taken:
        // the two are never held together, so no ordering can deadlock.
        self.files.write(|files| {
            if files.contains_key(path) {
                return Err(DfsError::AlreadyExists(path.to_string()));
            }
            let file = DfsFile {
                records: Arc::new(records),
                bytes,
                count,
            };
            files.insert(path.to_string(), file);
            Ok(())
        })?;
        self.stats.write(|stats| {
            stats.records_written += count;
            stats.bytes_written += bytes;
        });
        Ok(())
    }

    /// Reads the file at `path`, returning a shared handle to its records.
    pub fn read<V: Record>(&self, path: &str) -> Result<Arc<Vec<V>>, DfsError> {
        let (records, count, bytes) = self.files.read(|files| {
            let file = files
                .get(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            let records = file
                .records
                .clone()
                .downcast::<Vec<V>>()
                .map_err(|_| DfsError::WrongType(path.to_string()))?;
            Ok((records, file.count, file.bytes))
        })?;
        self.stats.write(|stats| {
            stats.records_read += count;
            stats.bytes_read += bytes;
        });
        Ok(records)
    }

    /// Reads up to `len` records of `path` starting at record `start`
    /// (clamped to the file's end), copying only that range. This is the
    /// chunked reader the spill path streams oversized buckets through, so
    /// a consumer never holds a whole run's `Arc<Vec<V>>` resident. Counts
    /// the records and bytes actually returned — plus one `range_reads` —
    /// in [`DfsStats`].
    pub fn read_range<V: Record>(
        &self,
        path: &str,
        start: usize,
        len: usize,
    ) -> Result<Vec<V>, DfsError> {
        let out: Vec<V> = self.files.read(|files| {
            let file = files
                .get(path)
                .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
            let records = file
                .records
                .downcast_ref::<Vec<V>>()
                .ok_or_else(|| DfsError::WrongType(path.to_string()))?;
            let start = start.min(records.len());
            let end = start.saturating_add(len).min(records.len());
            Ok(records.get(start..end).unwrap_or_default().to_vec())
        })?;
        let bytes: u64 = out.iter().map(Record::approx_bytes).sum();
        self.stats.write(|stats| {
            stats.records_read += out.len() as u64;
            stats.bytes_read += bytes;
            stats.range_reads += 1;
        });
        Ok(out)
    }

    /// Removes a file (used by algorithms to clean intermediate results).
    pub fn remove(&self, path: &str) -> Result<(), DfsError> {
        self.files
            .write(|files| files.remove(path))
            .map(|_| ())
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Whether a file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read(|files| files.contains_key(path))
    }

    /// Lists file paths, sorted.
    pub fn list(&self) -> Vec<String> {
        self.files.read(|files| files.keys().cloned().collect())
    }

    /// Cumulative I/O counters.
    pub fn stats(&self) -> DfsStats {
        self.stats.read(|stats| *stats)
    }
}

impl fmt::Debug for Dfs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dfs")
            .field("files", &self.list())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let dfs = Dfs::new();
        dfs.write("a/b", vec![1u64, 2, 3]).unwrap();
        let back = dfs.read::<u64>("a/b").unwrap();
        assert_eq!(*back, vec![1, 2, 3]);
    }

    #[test]
    fn files_are_immutable() {
        let dfs = Dfs::new();
        dfs.write("f", vec![1u32]).unwrap();
        assert_eq!(
            dfs.write("f", vec![2u32]),
            Err(DfsError::AlreadyExists("f".into()))
        );
    }

    #[test]
    fn missing_file_errors() {
        let dfs = Dfs::new();
        assert_eq!(
            dfs.read::<u64>("nope").unwrap_err(),
            DfsError::NotFound("nope".into())
        );
    }

    #[test]
    fn wrong_type_errors() {
        let dfs = Dfs::new();
        dfs.write("f", vec![1u64]).unwrap();
        assert_eq!(
            dfs.read::<u32>("f").unwrap_err(),
            DfsError::WrongType("f".into())
        );
    }

    #[test]
    fn stats_account_volume() {
        let dfs = Dfs::new();
        dfs.write("f", vec![1u64, 2, 3]).unwrap();
        let _ = dfs.read::<u64>("f").unwrap();
        let _ = dfs.read::<u64>("f").unwrap();
        let s = dfs.stats();
        assert_eq!(s.records_written, 3);
        assert_eq!(s.bytes_written, 24);
        assert_eq!(s.records_read, 6);
        assert_eq!(s.bytes_read, 48);
        assert_eq!(s.range_reads, 0);
    }

    #[test]
    fn read_range_returns_clamped_window() {
        let dfs = Dfs::new();
        dfs.write("f", vec![10u64, 20, 30, 40, 50]).unwrap();
        assert_eq!(dfs.read_range::<u64>("f", 1, 2).unwrap(), vec![20, 30]);
        // Past-the-end windows clamp instead of erroring.
        assert_eq!(dfs.read_range::<u64>("f", 4, 10).unwrap(), vec![50]);
        assert!(dfs.read_range::<u64>("f", 9, 3).unwrap().is_empty());
        assert_eq!(
            dfs.read_range::<u64>("nope", 0, 1).unwrap_err(),
            DfsError::NotFound("nope".into())
        );
        assert_eq!(
            dfs.read_range::<u32>("f", 0, 1).unwrap_err(),
            DfsError::WrongType("f".into())
        );
        let s = dfs.stats();
        assert_eq!(s.range_reads, 3);
        assert_eq!(s.records_read, 3);
        assert_eq!(s.bytes_read, 24);
    }

    #[test]
    fn remove_and_list() {
        let dfs = Dfs::new();
        dfs.write("b", vec![1u8]).unwrap();
        dfs.write("a", vec![1u8]).unwrap();
        assert_eq!(dfs.list(), vec!["a".to_string(), "b".to_string()]);
        dfs.remove("a").unwrap();
        assert!(!dfs.exists("a"));
        assert!(dfs.exists("b"));
        assert!(dfs.remove("a").is_err());
    }
}
