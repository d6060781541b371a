//! Property tests for the transport framing layer: the bounded line
//! reader must recover the same lines no matter how the bytes are
//! chunked by the kernel, must drain oversized lines without losing
//! framing, and the protocol decoders must answer any truncated or
//! mutated line with a value or a typed error — never a panic.

use std::io::{BufReader, Read};

use proptest::prelude::*;
use trident_serve::json::{self, BoundedLine};
use trident_serve::proto::{JobSpec, Request, Response, TenantJob};

/// A reader that hands out the underlying bytes in adversarially small,
/// varying chunks — the worst case a TCP stream can legally present.
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, sizes: Vec<usize>) -> Chunked {
        Chunked {
            data,
            pos: 0,
            sizes,
            turn: 0,
        }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let step = self.sizes.get(self.turn % self.sizes.len().max(1));
        self.turn += 1;
        let want = step
            .copied()
            .unwrap_or(1)
            .clamp(1, buf.len())
            .min(self.data.len() - self.pos);
        buf[..want].copy_from_slice(&self.data[self.pos..self.pos + want]);
        self.pos += want;
        Ok(want)
    }
}

/// Reads every line out of `data` through a tiny `BufReader`, so chunk
/// boundaries land inside lines, inside CRLF pairs, everywhere.
fn scan(data: Vec<u8>, sizes: Vec<usize>, max: usize) -> Vec<BoundedLine> {
    let mut reader = BufReader::with_capacity(3, Chunked::new(data, sizes));
    let mut out = Vec::new();
    // Termination bound: every call consumes ≥ 1 byte or returns Eof.
    for _ in 0..10_000 {
        match json::read_line_bounded(&mut reader, max).expect("in-memory read cannot fail") {
            BoundedLine::Eof => return out,
            other => out.push(other),
        }
    }
    panic!("scanner failed to reach Eof");
}

/// Line content without newlines; `\r` included deliberately so CRLF
/// handling gets hit at chunk boundaries.
const CHARSET: [char; 12] = [
    'a', 'Z', '7', ' ', '"', '\\', '\r', '\t', '{', '}', 'é', '界',
];

fn line_strings() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..CHARSET.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARSET[i]).collect())
}

fn chunk_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..7, 1..6)
}

/// A representative spec whose encoding exercises every field class:
/// strings needing escapes, optionals, nested arrays and objects.
fn dense_spec() -> JobSpec {
    let mut spec = JobSpec::new("GU\"PS\\", "Tri{de}nt");
    spec.scale = 64;
    spec.samples = 123;
    spec.cell_index = Some(5);
    spec.fragment = true;
    spec.trace_out = Some("out,\"x\".jsonl".to_owned());
    let mut tenant = TenantJob::new("Red:is");
    tenant.weight = 3;
    tenant.pins = vec![(0, 512)];
    spec.tenants = vec![tenant];
    spec
}

/// Truncates `line` to at most `cut` bytes, backing up to a char
/// boundary so the slice stays valid UTF-8 (a connection cut
/// mid-line).
fn cut_at_boundary(line: &str, cut: usize) -> &str {
    let mut cut = cut.min(line.len());
    while !line.is_char_boundary(cut) {
        cut -= 1;
    }
    &line[..cut]
}

proptest! {
    /// Chunking is invisible: however the bytes arrive, the scanner
    /// recovers exactly the written lines (CRLF collapsed on terminated
    /// lines, a final unterminated line still delivered).
    #[test]
    fn framing_is_chunking_invariant(
        lines in prop::collection::vec(line_strings(), 0..6),
        sizes in chunk_sizes(),
        trailing_newline in any::<bool>(),
    ) {
        let mut data = lines.join("\n").into_bytes();
        if trailing_newline && !lines.is_empty() {
            data.push(b'\n');
        }
        let mut expected = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let terminated = trailing_newline || i + 1 < lines.len();
            if terminated {
                let text = line.strip_suffix('\r').unwrap_or(line);
                expected.push(BoundedLine::Line(text.to_owned()));
            } else if !line.is_empty() {
                // A final unterminated line is still delivered; an
                // empty one is just Eof.
                expected.push(BoundedLine::Line(line.clone()));
            }
        }
        prop_assert_eq!(scan(data, sizes, 1 << 16), expected);
    }

    /// An oversized line is swallowed whole — the *next* line parses
    /// normally, whatever the chunking. The bound counts content bytes,
    /// not the newline.
    #[test]
    fn oversized_lines_are_drained_not_misframed(
        fill in 17usize..200,
        sizes in chunk_sizes(),
    ) {
        let long = "x".repeat(fill);
        let data = format!("{long}\nok\n").into_bytes();
        let got = scan(data, sizes, 16);
        prop_assert_eq!(
            got,
            vec![BoundedLine::Oversized, BoundedLine::Line("ok".to_owned())]
        );
    }

    /// Arbitrary bytes — invalid UTF-8 included — never panic the
    /// scanner and always reach Eof.
    #[test]
    fn arbitrary_bytes_never_panic_the_scanner(
        data in prop::collection::vec(any::<u8>(), 0..600),
        sizes in chunk_sizes(),
    ) {
        let lines = scan(data, sizes, 64);
        for line in lines {
            if let BoundedLine::Line(text) = line {
                // Whatever came out is fed onward in real use; the
                // decoders must answer with a value or a typed error.
                let _ = Request::parse_jsonl(&text);
                let _ = Response::parse_jsonl(&text);
            }
        }
    }

    /// Every prefix of a valid request line decodes to Ok (only the
    /// full line) or a typed error — truncation can never panic or
    /// produce a *different* valid message.
    #[test]
    fn truncated_requests_parse_or_error(cut in 0usize..600) {
        let line = Request::Submit(dense_spec()).to_jsonl();
        let slice = cut_at_boundary(&line, cut);
        if let Ok(req) = Request::parse_jsonl(slice) {
            prop_assert_eq!(
                (req, slice.len()),
                (Request::Submit(dense_spec()), line.len()),
                "a strict prefix must never decode"
            );
        }
    }

    /// Single-character corruption anywhere in a valid line decodes to
    /// Ok or a typed error, never a panic.
    #[test]
    fn mutated_requests_never_panic(pos in 0usize..600, replacement in any::<u32>()) {
        let replacement = char::from_u32(replacement % 0x11_0000).unwrap_or('\u{FFFD}');
        let line = Request::Submit(dense_spec()).to_jsonl();
        let mut pos = pos.min(line.len().saturating_sub(1));
        while pos > 0 && !line.is_char_boundary(pos) {
            pos -= 1;
        }
        let mut mutated = String::with_capacity(line.len() + 4);
        mutated.push_str(&line[..pos]);
        mutated.push(replacement);
        if let Some((i, _)) = line[pos..].char_indices().nth(1) {
            mutated.push_str(&line[pos + i..]);
        }
        let _ = Request::parse_jsonl(&mutated);
        let _ = Response::parse_jsonl(&mutated);
    }
}
