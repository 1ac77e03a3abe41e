//! File-backed stream traces.
//!
//! The in-memory codec in [`crate::trace`] suits shipping buffers; this
//! module streams traces to and from disk so paper-scale workloads (4M
//! updates/stream) can be generated once and replayed across many harness
//! runs without regeneration cost or holding everything in memory.
//! [`TraceWriter`] appends incrementally; [`TraceReader`] is an iterator
//! that decodes one update at a time from a buffered reader.
//!
//! On-disk format = the [`crate::trace`] wire format with a `u64::MAX`
//! record count sentinel in the header (count unknown while appending),
//! terminated by EOF. Header and records go through the same
//! [`crate::trace`] codec functions as the in-memory form.

use crate::codec::{Reader, MAX_VARINT_LEN};
use crate::domain::Domain;
use crate::trace::{self, TraceError};
use crate::update::Update;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

const STREAMING_COUNT: u64 = u64::MAX;
/// Longest record: two maximal varints.
const MAX_RECORD_LEN: usize = 2 * MAX_VARINT_LEN;
/// How much [`TraceReader`] reads from its file at a time.
const READ_CHUNK: usize = 64 * 1024;

/// Errors from file-trace operations.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed trace content.
    Format(TraceError),
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<TraceError> for TraceIoError {
    fn from(e: TraceError) -> Self {
        TraceIoError::Format(e)
    }
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace io error: {e}"),
            TraceIoError::Format(e) => write!(f, "trace format error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Incrementally writes a trace file.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<File>,
    domain: Domain,
    written: u64,
    /// One encoded record, reused across writes.
    record: Vec<u8>,
}

impl TraceWriter {
    /// Creates (truncates) `path` and writes the streaming header.
    pub fn create<P: AsRef<Path>>(path: P, domain: Domain) -> Result<Self, TraceIoError> {
        let mut out = BufWriter::new(File::create(path)?);
        let mut header = Vec::with_capacity(trace::HEADER_LEN);
        trace::put_header(&mut header, domain, STREAMING_COUNT);
        out.write_all(&header)?;
        Ok(Self {
            out,
            domain,
            written: 0,
            record: Vec::with_capacity(MAX_RECORD_LEN),
        })
    }

    /// Appends one update.
    pub fn write(&mut self, u: Update) -> Result<(), TraceIoError> {
        debug_assert!(self.domain.contains(u.value));
        self.record.clear();
        trace::put_record(&mut self.record, u);
        self.out.write_all(&self.record)?;
        self.written += 1;
        Ok(())
    }

    /// Appends a batch.
    pub fn write_all<I: IntoIterator<Item = Update>>(&mut self, us: I) -> Result<(), TraceIoError> {
        for u in us {
            self.write(u)?;
        }
        Ok(())
    }

    /// Updates written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and closes the file.
    pub fn finish(mut self) -> Result<u64, TraceIoError> {
        self.out.flush()?;
        Ok(self.written)
    }
}

/// Streams updates back out of a trace file.
#[derive(Debug)]
pub struct TraceReader {
    input: ChunkedInput,
    domain: Domain,
    /// Records remaining when the header carried an exact count;
    /// `None` in streaming (EOF-terminated) mode.
    remaining: Option<u64>,
}

impl TraceReader {
    /// Opens `path` and parses the header.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, TraceIoError> {
        let mut input = ChunkedInput {
            file: File::open(path)?,
            buf: Vec::new(),
            pos: 0,
            eof: false,
        };
        let (domain, count) = input.decode(trace::HEADER_LEN, trace::read_header)?;
        Ok(Self {
            input,
            domain,
            remaining: (count != STREAMING_COUNT).then_some(count),
        })
    }

    /// The trace's declared domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Reads the next update; `Ok(None)` at end of trace.
    pub fn next_update(&mut self) -> Result<Option<Update>, TraceIoError> {
        if self.remaining == Some(0) {
            return Ok(None);
        }
        if self.input.at_end()? {
            // Clean EOF at a record boundary ends a streaming trace; a
            // counted one is short.
            return match self.remaining {
                None => Ok(None),
                Some(_) => Err(TraceError::Truncated.into()),
            };
        }
        let domain = self.domain;
        let u = self
            .input
            .decode(MAX_RECORD_LEN, |r| trace::read_record(r, domain))?;
        if let Some(r) = &mut self.remaining {
            *r -= 1;
        }
        Ok(Some(u))
    }
}

/// A file read in chunks and decoded in place with a [`Reader`].
#[derive(Debug)]
struct ChunkedInput {
    file: File,
    /// Bytes read from `file`; `buf[pos..]` is not yet decoded.
    buf: Vec<u8>,
    pos: usize,
    /// `file` has reported end of file.
    eof: bool,
}

impl ChunkedInput {
    /// Whether every byte of the file has been decoded.
    fn at_end(&mut self) -> io::Result<bool> {
        self.fill(1)?;
        Ok(self.pos == self.buf.len())
    }

    /// Runs `read` over the buffered bytes (at least `want` of them
    /// unless the file ends first) and consumes what it read.
    fn decode<T>(
        &mut self,
        want: usize,
        read: impl FnOnce(&mut Reader<'_>) -> Result<T, TraceError>,
    ) -> Result<T, TraceIoError> {
        self.fill(want)?;
        let unread = &self.buf[self.pos..];
        let mut r = Reader::new(unread);
        let value = read(&mut r)?;
        self.pos += unread.len() - r.remaining();
        Ok(value)
    }

    /// Reads from the file until at least `want` bytes are buffered or
    /// it ends.
    fn fill(&mut self, want: usize) -> io::Result<()> {
        if self.buf.len() - self.pos >= want || self.eof {
            return Ok(());
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < want && !self.eof {
            let chunk = READ_CHUNK as u64;
            let got = (&mut self.file).take(chunk).read_to_end(&mut self.buf)?;
            // `read_to_end` stops short of the limit only at EOF.
            self.eof = (got as u64) < chunk;
        }
        Ok(())
    }
}

impl Iterator for TraceReader {
    type Item = Result<Update, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_update().transpose()
    }
}

/// Convenience: writes a whole slice to `path`.
pub fn write_trace_file<P: AsRef<Path>>(
    path: P,
    domain: Domain,
    updates: &[Update],
) -> Result<(), TraceIoError> {
    let mut w = TraceWriter::create(path, domain)?;
    w.write_all(updates.iter().copied())?;
    w.finish()?;
    Ok(())
}

/// Convenience: reads a whole trace into memory.
pub fn read_trace_file<P: AsRef<Path>>(path: P) -> Result<(Domain, Vec<Update>), TraceIoError> {
    let mut r = TraceReader::open(path)?;
    let domain = r.domain();
    let mut out = Vec::new();
    while let Some(u) = r.next_update()? {
        out.push(u);
    }
    Ok((domain, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Seek;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ss-trace-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_through_a_file() {
        let path = tmp("roundtrip");
        let d = Domain::with_log2(10);
        let updates: Vec<Update> = (0..1000)
            .map(|i| Update {
                value: (i * 31) % 1024,
                weight: (i as i64 % 9) - 4,
            })
            .collect();
        write_trace_file(&path, d, &updates).unwrap();
        let (d2, back) = read_trace_file(&path).unwrap();
        assert_eq!(d2, d);
        assert_eq!(back, updates);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_reader_yields_incrementally() {
        let path = tmp("incremental");
        let d = Domain::with_log2(6);
        let mut w = TraceWriter::create(&path, d).unwrap();
        for v in 0..10u64 {
            w.write(Update::insert(v)).unwrap();
        }
        assert_eq!(w.written(), 10);
        w.finish().unwrap();
        let r = TraceReader::open(&path).unwrap();
        let vals: Vec<u64> = r.map(|u| u.unwrap().value).collect();
        assert_eq!(vals, (0..10u64).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_fine() {
        let path = tmp("empty");
        write_trace_file(&path, Domain::with_log2(4), &[]).unwrap();
        let (_, back) = read_trace_file(&path).unwrap();
        assert!(back.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_truncated_record() {
        let path = tmp("truncated");
        let d = Domain::with_log2(4);
        write_trace_file(&path, d, &[Update::with_measure(3, 1000)]).unwrap();
        // Chop the last byte off.
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        let len = f.metadata().unwrap().len();
        f.set_len(len - 1).unwrap();
        drop(f);
        let err = read_trace_file(&path).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Format(TraceError::Truncated)),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_bad_magic() {
        let path = tmp("badmagic");
        write_trace_file(&path, Domain::with_log2(4), &[]).unwrap();
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.rewind().unwrap();
        f.write_all(b"XXXX").unwrap();
        drop(f);
        let err = TraceReader::open(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(TraceError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_a_domain_above_63() {
        let path = tmp("log2-64");
        write_trace_file(&path, Domain::with_log2(4), &[Update::insert(1)]).unwrap();
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(io::SeekFrom::Start(6)).unwrap();
        f.write_all(&64u16.to_le_bytes()).unwrap();
        drop(f);
        let err = TraceReader::open(&path).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Format(TraceError::BadDomain(64))),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_straddling_read_chunks_decode() {
        // Enough multi-byte records that several straddle a chunk edge.
        let path = tmp("chunks");
        let d = Domain::with_log2(63);
        let updates: Vec<Update> = (0..3 * READ_CHUNK as u64 / 10)
            .map(|i| Update {
                value: i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 1,
                weight: i64::MIN + i as i64,
            })
            .collect();
        write_trace_file(&path, d, &updates).unwrap();
        let (_, back) = read_trace_file(&path).unwrap();
        assert_eq!(back, updates);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_out_of_domain_values() {
        let path = tmp("ood");
        // Write under a large domain, then doctor the header to claim a
        // tiny one.
        let d = Domain::with_log2(10);
        write_trace_file(&path, d, &[Update::insert(512)]).unwrap();
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(io::SeekFrom::Start(6)).unwrap();
        f.write_all(&2u16.to_le_bytes()).unwrap(); // domain 2^2
        drop(f);
        let err = read_trace_file(&path).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::Format(TraceError::ValueOutOfDomain(512))
        ));
        std::fs::remove_file(&path).ok();
    }
}
