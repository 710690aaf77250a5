//! Codec-agnostic socket plumbing shared by every connection: the byte-counting
//! response writer, and the capped JSON line reader the replica and the router both
//! read their JSON-codec clients with.
//!
//! Both codecs produce **exact wire blobs** upstream of this module (JSON senders
//! include their trailing `\n`; binary senders produce complete frames), so the writer
//! here never re-frames anything — it writes what it is handed, coalescing
//! already-completed responses into one flush so streamed embed rows and pipelined
//! responses ride a single TCP push (the sockets run `TCP_NODELAY`, so every flush is
//! a segment on the wire).
//!
//! This module is inside the lint gate's wire scope (L3 panic-free, L5 bit-exact):
//! nothing here may panic on foreign bytes, and no float ever passes through a lossy
//! cast or formatting.

use crate::metrics::ServerMetrics;
use gem_proto::{ProtoError, MAX_JSON_LINE_BYTES};
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;

/// Whether a read error is only the read-timeout tick a connection uses to check its
/// shutdown flag. Nothing is lost on a tick: [`LineReader`] and
/// [`gem_proto::binary::FrameAssembler`] keep partial input across calls.
pub fn is_tick(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// What [`LineReader::read`] produced.
#[derive(Debug)]
pub enum JsonLine {
    /// One request line, newline included (absent only when the peer closed mid-line).
    Line(Vec<u8>),
    /// A line longer than [`MAX_JSON_LINE_BYTES`]. Its bytes were dropped, and the
    /// rest of it is skipped up to its newline; the caller answers `error`, correlated
    /// to `id` when the line's prefix carried one, and the connection lives on.
    Oversized {
        /// The request id salvaged from the line's prefix.
        id: Option<u64>,
        /// The typed `protocol_error` to answer.
        error: ProtoError,
    },
    /// The peer closed the stream.
    Eof,
}

/// Splits a JSON-codec byte stream into request lines while holding at most
/// [`MAX_JSON_LINE_BYTES`] + 1 bytes of any one line, so a newline-free stream costs
/// one typed error, not unbounded memory.
///
/// Lines are accumulated as raw bytes, not through `read_line`: its UTF-8 check would
/// turn an invalid byte into an error that drops the connection unanswered, and a
/// read-timeout tick in the middle of a multibyte character would discard bytes
/// already consumed. UTF-8 is validated where a failure can be answered.
#[derive(Debug, Default)]
pub struct LineReader {
    line: Vec<u8>,
    /// Set after an oversized line was reported: its remainder is dropped up to the
    /// newline, then parsing resumes.
    discarding: bool,
}

impl LineReader {
    /// Read the next line from `reader`, returning it with the number of bytes this
    /// call consumed (for wire-byte accounting).
    ///
    /// # Errors
    /// Propagates read errors. A read-timeout tick ([`is_tick`]) loses nothing: the
    /// partial line stays buffered for the next call.
    pub fn read(&mut self, reader: &mut impl BufRead) -> std::io::Result<(JsonLine, usize)> {
        let mut consumed = 0usize;
        loop {
            let room = (MAX_JSON_LINE_BYTES + 1).saturating_sub(self.line.len());
            let read = Read::take(&mut *reader, room as u64).read_until(b'\n', &mut self.line)?;
            consumed = consumed.saturating_add(read);
            if read == 0 {
                return Ok((JsonLine::Eof, consumed));
            }
            let complete = self.line.ends_with(b"\n");
            if self.discarding {
                self.discarding = !complete;
                self.line.clear();
                continue;
            }
            if self.line.len() > MAX_JSON_LINE_BYTES {
                // The id comes from a prefix scan, not a JSON parse: parsing megabytes
                // just to reject them would let an oversized line monopolize a reader.
                let id = salvage_oversized_id(&self.line);
                self.discarding = !complete;
                self.line.clear();
                let error = ProtoError::Parse {
                    message: format!(
                        "request line exceeds the {MAX_JSON_LINE_BYTES} byte JSON cap; \
                         negotiate the binary codec and use a chunked corpus upload"
                    ),
                };
                return Ok((JsonLine::Oversized { id, error }, consumed));
            }
            return Ok((JsonLine::Line(std::mem::take(&mut self.line)), consumed));
        }
    }
}

/// Best-effort id salvage for a line too large to parse: the protocol's own encoder
/// always emits `{"id":N,` first, so a prefix scan recovers the id from conforming
/// clients in O(digits). Foreign encodings that put `id` elsewhere salvage as `None`,
/// which is the documented best-effort contract.
fn salvage_oversized_id(line: &[u8]) -> Option<u64> {
    let digits: Vec<u8> = line
        .strip_prefix(b"{\"id\":")?
        .iter()
        .copied()
        .take_while(u8::is_ascii_digit)
        .collect();
    std::str::from_utf8(&digits).ok()?.parse().ok()
}

/// One connection's writer loop: write completed responses in the order executors
/// finish them, counting every byte into the wire-written telemetry. Exits when every
/// sender is gone or on the first write failure (the peer vanished). Responses already
/// waiting in the channel are coalesced into one flush.
pub(crate) fn write_responses(
    mut stream: TcpStream,
    responses: &mpsc::Receiver<Vec<u8>>,
    metrics: &ServerMetrics,
) {
    for response in responses {
        if stream.write_all(&response).is_err() {
            return;
        }
        let mut written = response.len() as u64;
        while let Ok(next) = responses.try_recv() {
            if stream.write_all(&next).is_err() {
                return;
            }
            written = written.saturating_add(next.len() as u64);
        }
        metrics.count_wire_written(written);
        if stream.flush().is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn a_newline_free_stream_costs_one_capped_line_not_unbounded_memory() {
        // An endless stream with no newline: the reader stops at the cap instead of
        // buffering forever.
        let mut endless = BufReader::new(std::io::repeat(b'x'));
        let mut lines = LineReader::default();
        let (line, consumed) = lines.read(&mut endless).unwrap();
        assert!(
            matches!(line, JsonLine::Oversized { id: None, .. }),
            "{line:?}"
        );
        assert_eq!(consumed, MAX_JSON_LINE_BYTES + 1);
    }
}
