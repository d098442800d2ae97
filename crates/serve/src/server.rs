//! Transport: the same newline-delimited protocol over TCP or any byte
//! stream (stdin/stdout for `risc1 serve --stdin`).
//!
//! Each TCP connection gets its own thread; all of them share one
//! [`ExecService`], whose single state lock is the only synchronisation.
//! A `shutdown` request answers first, then stops the service (waiting
//! for the in-flight batch) and unblocks the accept loop, so shutdown is
//! always clean: no connection is severed mid-response.
//!
//! Frames are read through a bounded reader: a request line longer than
//! [`MAX_WIRE_LINE_BYTES`] is discarded (to the next newline) and answered
//! with a structured `oversized-frame` error instead of growing an
//! unbounded buffer; a stream that ends mid-line gets a `truncated-frame`
//! error; invalid UTF-8 gets `bad-request`. Malformed input is always
//! answered, never panicked on.

use crate::service::ExecService;
use crate::wire::{self, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Hard cap on one request line. Large enough for a maximal submit (a
/// 64 MiB snapshot serializes to well under this only when sparse, so
/// genuinely huge snapshots must ship fewer resident pages), small enough
/// to bound what one connection can make the server buffer.
pub const MAX_WIRE_LINE_BYTES: usize = 64 << 20;

/// One framing outcome from [`read_frame`].
enum Frame {
    /// A complete line (without the trailing newline).
    Line(String),
    /// The line exceeded the cap; it was discarded up to the next newline.
    Oversized,
    /// The stream ended mid-line (no trailing newline).
    Truncated,
    /// The line was complete but not UTF-8.
    BadUtf8,
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-delimited frame without ever buffering more than
/// `max` bytes of it.
fn read_frame(reader: &mut impl BufRead, max: usize) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (newline_at, len) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                return Ok(if buf.is_empty() {
                    Frame::Eof
                } else {
                    Frame::Truncated
                });
            }
            (chunk.iter().position(|&b| b == b'\n'), chunk.len())
        };
        match newline_at {
            Some(pos) => {
                if buf.len() + pos > max {
                    reader.consume(pos + 1);
                    return Ok(Frame::Oversized);
                }
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return Ok(match String::from_utf8(buf) {
                    Ok(line) => Frame::Line(line),
                    Err(_) => Frame::BadUtf8,
                });
            }
            None => {
                if buf.len() + len > max {
                    // Over the cap with no newline in sight: stop
                    // accumulating and discard through the next newline.
                    buf.clear();
                    reader.consume(len);
                    loop {
                        let (pos, len) = {
                            let chunk = reader.fill_buf()?;
                            if chunk.is_empty() {
                                // Oversized *and* truncated; the size
                                // violation came first.
                                return Ok(Frame::Oversized);
                            }
                            (chunk.iter().position(|&b| b == b'\n'), chunk.len())
                        };
                        match pos {
                            Some(p) => {
                                reader.consume(p + 1);
                                return Ok(Frame::Oversized);
                            }
                            None => reader.consume(len),
                        }
                    }
                }
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// The structured reply for one non-`Line` frame, or `None` at stream end.
fn frame_reply(frame: &Frame) -> Option<String> {
    match frame {
        Frame::Line(_) | Frame::Eof => None,
        Frame::Oversized => Some(wire::frame_error(
            "oversized-frame",
            &format!("request line exceeds {MAX_WIRE_LINE_BYTES} bytes"),
        )),
        Frame::Truncated => Some(wire::frame_error(
            "truncated-frame",
            "stream ended mid-line (missing trailing newline)",
        )),
        Frame::BadUtf8 => Some(wire::bad_request("request line is not valid UTF-8")),
    }
}

/// Handles one request line, returning the response and whether the
/// server should shut down after sending it.
pub fn handle_line(service: &ExecService, line: &str) -> (String, bool) {
    match wire::parse_request(line) {
        Err(e) => (wire::bad_request(&e.to_string()), false),
        Ok(Request::Submit {
            client,
            weight,
            specs,
        }) => match service.submit(&client, weight, specs) {
            Ok(tickets) => (wire::submit_response(&tickets), false),
            Err(e) => (wire::submit_error_response(&e), false),
        },
        Ok(Request::Poll { id, wait_ms }) => {
            let state = match wait_ms {
                Some(ms) if ms > 0 => service.wait(id, Duration::from_millis(ms)),
                _ => service.poll(id),
            };
            (wire::poll_response(state.as_ref(), id), false)
        }
        Ok(Request::Journal { id, seq }) => {
            let journal = service.journal(id);
            (
                wire::journal_response(id, seq, journal.as_ref().map(|j| j.as_str())),
                false,
            )
        }
        Ok(Request::Status) => (wire::status_response(&service.status()), false),
        Ok(Request::Shutdown) => (wire::shutdown_response(), true),
    }
}

/// Serves the protocol over any byte stream until EOF or a `shutdown`
/// request: stdin, or one TCP connection. Returns whether shutdown was
/// requested.
///
/// # Errors
/// Propagates I/O errors from the underlying stream.
pub fn serve_lines(
    service: &ExecService,
    reader: impl BufRead,
    mut writer: impl Write,
) -> std::io::Result<bool> {
    let mut reader = reader;
    loop {
        let frame = read_frame(&mut reader, MAX_WIRE_LINE_BYTES)?;
        let at_end = matches!(frame, Frame::Eof | Frame::Truncated);
        let (response, stop) = match (&frame, frame_reply(&frame)) {
            (Frame::Eof, _) => return Ok(false),
            (_, Some(reply)) => (reply, false),
            (Frame::Line(line), None) => {
                if line.trim().is_empty() {
                    continue;
                }
                handle_line(service, line)
            }
            _ => unreachable!("every non-line frame has a reply"),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        if stop {
            service.shutdown();
            return Ok(true);
        }
        if at_end {
            return Ok(false);
        }
    }
}

/// Accepts connections on `listener` until a client sends `shutdown`.
/// Each connection runs on its own thread; the service (and its queues,
/// dedup map and counters) is shared across all of them.
///
/// # Errors
/// Propagates fatal `accept` errors. Per-connection I/O errors only end
/// that connection.
pub fn serve_tcp(service: &ExecService, listener: TcpListener) -> std::io::Result<()> {
    let stop = AtomicBool::new(false);
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        loop {
            let (stream, _) = listener.accept()?;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stop = &stop;
            scope.spawn(move || {
                let Ok(reader) = stream.try_clone() else {
                    return;
                };
                if let Ok(true) = serve_lines(service, BufReader::new(reader), stream) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so the server exits.
                    let _ = TcpStream::connect(addr);
                }
            });
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frames(input: &[u8], max: usize) -> Vec<&'static str> {
        let mut reader = BufReader::new(Cursor::new(input.to_vec()));
        let mut out = Vec::new();
        loop {
            match read_frame(&mut reader, max).unwrap() {
                Frame::Line(_) => out.push("line"),
                Frame::Oversized => out.push("oversized"),
                Frame::Truncated => out.push("truncated"),
                Frame::BadUtf8 => out.push("bad-utf8"),
                Frame::Eof => return out,
            }
        }
    }

    #[test]
    fn frame_reader_enforces_the_cap_and_recovers() {
        // Normal lines pass; the oversized middle line is discarded and
        // the stream keeps going.
        let mut input = b"short\n".to_vec();
        input.extend(vec![b'x'; 100]);
        input.push(b'\n');
        input.extend(b"after\n");
        assert_eq!(frames(&input, 16), vec!["line", "oversized", "line"]);
        // A line of exactly the cap is fine.
        let exact = [vec![b'y'; 16], vec![b'\n']].concat();
        assert_eq!(frames(&exact, 16), vec!["line"]);
        // Truncated tail (no trailing newline).
        assert_eq!(frames(b"complete\npartial", 64), vec!["line", "truncated"]);
        // Oversized with no newline before EOF still terminates.
        assert_eq!(frames(&[b'z'; 100], 16), vec!["oversized"]);
        // Invalid UTF-8 is framed but flagged.
        assert_eq!(frames(&[0xff, 0xfe, b'\n'], 16), vec!["bad-utf8"]);
    }

    #[test]
    fn frame_reader_handles_tiny_buffer_chunks() {
        // A BufReader with a 1-byte buffer forces the multi-chunk path.
        let input = b"hello world\nbye\n";
        let mut reader = BufReader::with_capacity(1, Cursor::new(input.to_vec()));
        match read_frame(&mut reader, 64).unwrap() {
            Frame::Line(l) => assert_eq!(l, "hello world"),
            _ => panic!("expected a line"),
        }
        match read_frame(&mut reader, 2).unwrap() {
            Frame::Oversized => {}
            _ => panic!("expected oversized"),
        }
        assert!(matches!(read_frame(&mut reader, 2).unwrap(), Frame::Eof));
    }
}
