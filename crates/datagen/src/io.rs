//! Reading and writing relations as line-oriented text files.
//!
//! The paper stores each relation as an HDFS file where "each line usually
//! represents a tuple" (Section 2). This module implements that format so
//! generated workloads can be persisted, inspected and reloaded:
//!
//! ```text
//! # relation R1, 2 attributes
//! 0    17      42 42
//! 5    9       7 7
//! ```
//!
//! One line per tuple; attributes are tab-separated `start end` pairs
//! (space inside the pair). Comment lines start with `#`. A point value
//! may be written as a single number.

use ij_interval::{Interval, Relation};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;

/// Error reading a relation file.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and message).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Serializes a relation to the line format.
pub fn write_relation<W: Write>(w: &mut W, rel: &Relation) -> io::Result<()> {
    writeln!(w, "# relation {}, {} attributes", rel.name, rel.n_attrs)?;
    let mut line = String::new();
    for t in rel.tuples() {
        line.clear();
        for (i, iv) in t.intervals().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            if iv.is_point() {
                let _ = write!(line, "{}", iv.start());
            } else {
                let _ = write!(line, "{} {}", iv.start(), iv.end());
            }
        }
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Writes a relation to a file.
pub fn save_relation(path: impl AsRef<Path>, rel: &Relation) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    write_relation(&mut f, rel)?;
    f.flush()
}

/// Parses a relation from the line format. The relation's name and arity
/// are taken from the header comment when present, else `default_name`
/// and the first row's arity (1 without rows); every row must have that
/// arity.
pub fn read_relation<R: Read>(r: R, default_name: &str) -> Result<Relation, ReadError> {
    let reader = BufReader::new(r);
    let mut name = default_name.to_string();
    let mut rows: Vec<Vec<Interval>> = Vec::new();
    let mut arity: Option<usize> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            // The "# relation NAME, N attributes" header.
            if let Some(n) = rest.trim().strip_prefix("relation ") {
                if let Some((n, count)) = n.split_once(',') {
                    name = n.trim().to_string();
                    let count = count.trim().strip_suffix(" attributes");
                    if let Some(Ok(count)) = count.map(str::parse::<u16>) {
                        check_arity(&mut arity, count.into(), lineno)?;
                    }
                }
            }
            continue;
        }
        let mut attrs = Vec::new();
        for field in trimmed.split('\t') {
            let mut nums = field.split_whitespace().map(str::parse::<i64>);
            let start = nums
                .next()
                .ok_or_else(|| ReadError::Parse {
                    line: lineno,
                    message: "empty attribute".into(),
                })?
                .map_err(|e| ReadError::Parse {
                    line: lineno,
                    message: format!("bad start point: {e}"),
                })?;
            let end = match nums.next() {
                None => start,
                Some(v) => v.map_err(|e| ReadError::Parse {
                    line: lineno,
                    message: format!("bad end point: {e}"),
                })?,
            };
            if nums.next().is_some() {
                return Err(ReadError::Parse {
                    line: lineno,
                    message: "attribute has more than two numbers".into(),
                });
            }
            let iv = Interval::new(start, end).map_err(|e| ReadError::Parse {
                line: lineno,
                message: e.to_string(),
            })?;
            attrs.push(iv);
        }
        check_arity(&mut arity, attrs.len(), lineno)?;
        rows.push(attrs);
    }
    let mut rel = Relation::with_capacity(name, arity.unwrap_or(1) as u16, rows.len());
    for row in &rows {
        rel.push(row);
    }
    Ok(rel)
}

/// Sets the arity the file declares on line `line`, or checks `n` against
/// it.
fn check_arity(arity: &mut Option<usize>, n: usize, line: usize) -> Result<(), ReadError> {
    match *arity.get_or_insert(n) {
        a if a == n => Ok(()),
        a => Err(ReadError::Parse {
            line,
            message: format!("expected {a} attributes, found {n}"),
        }),
    }
}

/// Reads a relation from a file; the default name is the file stem.
pub fn load_relation(path: impl AsRef<Path>) -> Result<Relation, ReadError> {
    let path = path.as_ref();
    let default = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("R")
        .to_string();
    read_relation(std::fs::File::open(path)?, &default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthConfig;

    fn iv(s: i64, e: i64) -> Interval {
        Interval::new(s, e).unwrap()
    }

    #[test]
    fn round_trip_single_attribute() {
        let rel = Relation::from_intervals("trains", vec![iv(0, 5), iv(3, 3), iv(-4, 10)]);
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let back = read_relation(&buf[..], "x").unwrap();
        assert_eq!(back, rel);
    }

    #[test]
    fn round_trip_multi_attribute() {
        let rel = Relation::from_rows(
            "R3",
            vec![
                vec![iv(0, 9), Interval::point(7), iv(2, 2)],
                vec![iv(1, 4), Interval::point(9), iv(5, 6)],
            ],
        );
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let back = read_relation(&buf[..], "x").unwrap();
        assert_eq!(back, rel);
    }

    /// Empty, one-attribute and three-attribute relations come back with
    /// their name, arity and rows.
    #[test]
    fn round_trip_keeps_arity() {
        let rows = |n: usize, arity: usize| {
            (0..n as i64).map(move |i| (0..arity as i64).map(|a| iv(i, i + a)).collect::<Vec<_>>())
        };
        let rels = [
            Relation::new("E1", 1),
            Relation::new("E2", 2),
            Relation::new("E3", 3),
            Relation::from_rows("R1", rows(4, 1)),
            Relation::from_rows("R3", rows(5, 3)),
        ];
        for rel in &rels {
            let mut buf = Vec::new();
            write_relation(&mut buf, rel).unwrap();
            let back = read_relation(&buf[..], "x").unwrap();
            assert_eq!(back, *rel, "{}", String::from_utf8_lossy(&buf));
        }
        let text = "# relation R, 2 attributes\n0 1\n";
        assert!(matches!(
            read_relation(text.as_bytes(), "R").unwrap_err(),
            ReadError::Parse { line: 2, .. }
        ));
    }

    #[test]
    fn points_written_compactly() {
        let rel = Relation::from_intervals("R", vec![Interval::point(42)]);
        let mut buf = Vec::new();
        write_relation(&mut buf, &rel).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.lines().any(|l| l == "42"), "{text}");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = "# relation R, 1 attributes\n1 5\nbogus\n";
        let err = read_relation(text.as_bytes(), "R").unwrap_err();
        match err {
            ReadError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other}"),
        }
        let text = "1 5\n1 5\t3 4\n";
        assert!(matches!(
            read_relation(text.as_bytes(), "R").unwrap_err(),
            ReadError::Parse { line: 2, .. }
        ));
        let text = "5 4\n";
        assert!(matches!(
            read_relation(text.as_bytes(), "R").unwrap_err(),
            ReadError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn header_names_relation() {
        let text = "# relation packets, 1 attributes\n0 1\n";
        let rel = read_relation(text.as_bytes(), "fallback").unwrap();
        assert_eq!(rel.name, "packets");
        let rel = read_relation("0 1\n".as_bytes(), "fallback").unwrap();
        assert_eq!(rel.name, "fallback");
    }

    #[test]
    fn file_round_trip_via_tempdir() {
        let rel = SynthConfig::table1(200, 5).generate("synthetic");
        let dir = std::env::temp_dir().join(format!("ij-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("synthetic.tsv");
        save_relation(&path, &rel).unwrap();
        let back = load_relation(&path).unwrap();
        assert_eq!(back, rel);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
