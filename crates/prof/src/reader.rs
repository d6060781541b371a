//! Streaming JSONL trace reader.

use core::fmt;
use std::error::Error;
use std::io::BufRead;

use trident_obs::{jsonl_schema_version, Event, ParseError, SNAPSHOT_VERSION};

/// Why a trace line could not be turned into an [`Event`].
#[derive(Debug)]
pub enum TraceReadErrorKind {
    /// The underlying reader failed.
    Io(std::io::Error),
    /// The line carries a schema version this build does not understand.
    UnsupportedVersion {
        /// The version found on the line (`None` when the `"v"` field is
        /// missing or non-numeric).
        found: Option<u64>,
    },
    /// The line is same-version but malformed.
    Parse(ParseError),
}

/// An error at a specific line of a JSONL trace.
#[derive(Debug)]
pub struct TraceReadError {
    /// 1-based line number within the stream.
    pub line_no: u64,
    /// What went wrong.
    pub kind: TraceReadErrorKind,
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TraceReadErrorKind::Io(e) => write!(f, "trace line {}: {e}", self.line_no),
            TraceReadErrorKind::UnsupportedVersion { found: Some(v) } => write!(
                f,
                "trace line {}: schema version {v} (this build reads v{})",
                self.line_no, SNAPSHOT_VERSION
            ),
            TraceReadErrorKind::UnsupportedVersion { found: None } => write!(
                f,
                "trace line {}: missing schema version (this build reads v{})",
                self.line_no, SNAPSHOT_VERSION
            ),
            TraceReadErrorKind::Parse(e) => write!(f, "trace line {}: {e}", self.line_no),
        }
    }
}

impl Error for TraceReadError {}

/// Streams [`Event`]s out of JSONL trace output (e.g. from `tridentctl
/// run --trace-out`) one line at a time, without loading the trace into
/// memory.
///
/// Blank lines and `#`-prefixed comment lines are skipped, so dumps with
/// human-readable banners parse unmodified. Schema-version skew is
/// reported as [`TraceReadErrorKind::UnsupportedVersion`] so callers can
/// distinguish "old trace" from "corrupt trace".
#[derive(Debug)]
pub struct TraceReader<R: BufRead> {
    source: R,
    line_no: u64,
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    /// Wraps a buffered byte source.
    pub fn new(source: R) -> TraceReader<R> {
        TraceReader {
            source,
            line_no: 0,
            line: String::new(),
        }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<Event, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line.clear();
            self.line_no += 1;
            match self.source.read_line(&mut self.line) {
                Ok(0) => return None,
                Ok(_) => {}
                Err(e) => {
                    return Some(Err(TraceReadError {
                        line_no: self.line_no,
                        kind: TraceReadErrorKind::Io(e),
                    }))
                }
            }
            let line = self.line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let version = jsonl_schema_version(line);
            if version != Some(u64::from(SNAPSHOT_VERSION)) && line.starts_with('{') {
                return Some(Err(TraceReadError {
                    line_no: self.line_no,
                    kind: TraceReadErrorKind::UnsupportedVersion { found: version },
                }));
            }
            return Some(match Event::parse_jsonl(line) {
                Ok(ev) => Ok(ev),
                Err(e) => Err(TraceReadError {
                    line_no: self.line_no,
                    kind: TraceReadErrorKind::Parse(e),
                }),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn streams_events_skipping_blanks_and_comments() {
        let ev = Event::ZeroFill { blocks: 2 };
        let text = format!("# banner\n\n{}\n{}\n", ev.to_jsonl(), ev.to_jsonl());
        let events: Result<Vec<Event>, _> = TraceReader::new(Cursor::new(text)).collect();
        assert_eq!(events.unwrap(), vec![ev, ev]);
    }

    #[test]
    fn reports_version_skew_with_line_number() {
        let text = "{\"v\":1,\"ev\":\"zero_fill\",\"blocks\":1}\n";
        let mut reader = TraceReader::new(Cursor::new(text));
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.line_no, 1);
        assert!(matches!(
            err.kind,
            TraceReadErrorKind::UnsupportedVersion { found: Some(1) }
        ));
    }

    #[test]
    fn reports_garbage_as_parse_error() {
        let good = Event::DaemonTick { ns: 1 }.to_jsonl();
        // A torn line still carries a readable current version, so it is
        // a parse error, not version skew.
        let torn = format!("{{\"v\":{SNAPSHOT_VERSION},\"ev\":\"fau");
        let text = format!("{good}\nnot json at all\n{torn}\n");
        let results: Vec<_> = TraceReader::new(Cursor::new(text)).collect();
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.line_no, 2);
        assert!(matches!(err.kind, TraceReadErrorKind::Parse(_)));
        let err = results[2].as_ref().unwrap_err();
        assert_eq!(err.line_no, 3);
        assert!(matches!(err.kind, TraceReadErrorKind::Parse(_)));
    }
}
