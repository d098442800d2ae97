//! Malformed-input fuzz for the wire protocol: the server must answer
//! every frame with a structured response and never panic, whatever
//! bytes arrive — truncated submits, bit-flipped JSON, binary garbage,
//! oversized frames, invalid UTF-8. A script of the malformed frames runs
//! over a real TCP connection too, which must answer it byte for byte as
//! the in-memory stream does.
//!
//! The generator is a deterministic xorshift PRNG, so a failure is a
//! reproducible frame, not a flake.

use risc1::core::SimConfig;
use risc1::ir::{compile_risc, RiscOpts};
use risc1::serve::server::{serve_lines, serve_tcp};
use risc1::serve::wire;
use risc1::serve::MAX_WIRE_LINE_BYTES;
use risc1::workloads::by_id;
use risc1::{ExecService, ServiceConfig};
use std::io::{Cursor, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic, dependency-free.
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A well-formed submit request to mutate.
fn template() -> String {
    let w = by_id("fib").expect("suite workload");
    let prog = compile_risc(&w.module, RiscOpts::default()).expect("compiles");
    wire::submit_request(
        "fuzz",
        1,
        &prog,
        &w.small_args,
        &SimConfig::default(),
        &[1, 2],
        true,
        40,
        "all",
        true,
        "direct",
        None,
        false,
        None,
    )
}

/// One mutated frame: a truncation, a byte corruption, a splice of two
/// requests, raw binary garbage, or a structurally-plausible-but-wrong
/// document. Newlines are stripped so one mutation stays one frame.
fn mutate(rng: &mut Rng, template: &str) -> String {
    let bytes = template.as_bytes();
    let frame = match rng.below(5) {
        // Truncate at an arbitrary byte offset.
        0 => String::from_utf8_lossy(&bytes[..rng.below(bytes.len().max(1))]).into_owned(),
        // Flip several bytes in place.
        1 => {
            let mut b = bytes.to_vec();
            for _ in 0..=rng.below(8) {
                let at = rng.below(b.len());
                b[at] ^= (rng.next() as u8) | 1;
            }
            String::from_utf8_lossy(&b).into_owned()
        }
        // Splice a suffix of one request onto a prefix of another.
        2 => {
            let cut = rng.below(bytes.len());
            let paste = rng.below(bytes.len());
            format!(
                "{}{}",
                String::from_utf8_lossy(&bytes[..cut]),
                String::from_utf8_lossy(&bytes[paste..])
            )
        }
        // Raw garbage of random length.
        3 => {
            let len = rng.below(200) + 1;
            (0..len)
                .map(|_| char::from((rng.next() % 94) as u8 + 32))
                .collect()
        }
        // Plausible JSON with the wrong shape.
        _ => {
            let variants = [
                "{}",
                "[]",
                "{\"op\":17}",
                "{\"op\":\"submit\"}",
                "{\"op\":\"submit\",\"client\":\"c\",\"seeds\":\"not-an-array\"}",
                "{\"op\":\"poll\"}",
                "{\"op\":\"poll\",\"id\":-3}",
                "{\"op\":\"journal\",\"id\":1,\"seq\":18446744073709551615}",
                "{\"op\":\"status\",\"extra\":{\"deep\":[[[[[[1]]]]]]}}",
                "null",
                "\"just a string\"",
                "{\"op\":\"submit\",\"client\":\"c\",\"snapshot\":{\"version\":1}}",
            ];
            variants[rng.below(variants.len())].to_owned()
        }
    };
    frame.replace(['\n', '\r'], " ")
}

fn service() -> ExecService {
    ExecService::start(ServiceConfig {
        threads: 1,
        ..ServiceConfig::default()
    })
}

/// 500+ mutated frames through the full framed server loop: every
/// non-empty frame gets exactly one response line, zero panics.
#[test]
fn mutated_frames_are_always_answered_never_panicked_on() {
    let template = template();
    let mut rng = Rng(0x5eed_1981_u64);
    let mut input = String::new();
    let mut expected_responses = 0usize;
    for _ in 0..512 {
        let frame = mutate(&mut rng, &template);
        if !frame.trim().is_empty() {
            expected_responses += 1;
        }
        input.push_str(&frame);
        input.push('\n');
    }

    let service = service();
    let mut output: Vec<u8> = Vec::new();
    let stopped = serve_lines(&service, Cursor::new(input.into_bytes()), &mut output)
        .expect("in-memory transport never fails");
    assert!(!stopped, "no mutated frame should be a valid shutdown");

    let responses: Vec<&str> = std::str::from_utf8(&output)
        .expect("responses are UTF-8")
        .lines()
        .collect();
    assert_eq!(
        responses.len(),
        expected_responses,
        "every non-empty frame is answered exactly once"
    );
    for r in &responses {
        assert!(
            r.starts_with('{') && r.contains("\"ok\""),
            "structured response, got {r:?}"
        );
    }
    service.shutdown();
}

/// A frame over the line cap is discarded and answered with a structured
/// `oversized-frame` error, and the connection keeps serving afterwards.
#[test]
fn oversized_frame_is_rejected_and_the_stream_continues() {
    let mut input = Vec::with_capacity(MAX_WIRE_LINE_BYTES + 64);
    input.resize(MAX_WIRE_LINE_BYTES + 1, b'a');
    input.extend_from_slice(b"\n{\"op\":\"status\"}\n");

    let service = service();
    let mut output: Vec<u8> = Vec::new();
    serve_lines(&service, Cursor::new(input), &mut output).expect("serve");
    let text = String::from_utf8(output).expect("utf8");
    let mut lines = text.lines();
    let first = lines.next().expect("oversized reply");
    assert!(
        first.contains("\"ok\":false") && first.contains("oversized-frame"),
        "structured oversize error, got {first:?}"
    );
    let second = lines.next().expect("status reply after the oversize");
    assert!(
        second.contains("\"ok\":true"),
        "stream keeps serving, got {second:?}"
    );
    service.shutdown();
}

/// A stream that ends mid-line (no trailing newline) gets a structured
/// `truncated-frame` error rather than silence.
#[test]
fn truncated_final_frame_gets_a_structured_error() {
    let input = b"{\"op\":\"status\"}\n{\"op\":\"poll\",\"id\":".to_vec();
    let service = service();
    let mut output: Vec<u8> = Vec::new();
    serve_lines(&service, Cursor::new(input), &mut output).expect("serve");
    let text = String::from_utf8(output).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains("\"ok\":true"));
    assert!(
        lines[1].contains("truncated-frame"),
        "structured truncation error, got {:?}",
        lines[1]
    );
    service.shutdown();
}

/// Invalid UTF-8 in an otherwise complete line is answered as a bad
/// request, not a panic and not a dropped connection.
#[test]
fn invalid_utf8_is_a_bad_request_not_a_panic() {
    let mut input = vec![0xff, 0xfe, 0x80, b'{'];
    input.extend_from_slice(b"\n{\"op\":\"status\"}\n");
    let service = service();
    let mut output: Vec<u8> = Vec::new();
    serve_lines(&service, Cursor::new(input), &mut output).expect("serve");
    let text = String::from_utf8(output).expect("utf8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(
        lines[0].contains("\"ok\":false") && lines[0].contains("UTF-8"),
        "structured UTF-8 error, got {:?}",
        lines[0]
    );
    assert!(lines[1].contains("\"ok\":true"));
    service.shutdown();
}

/// The malformed-frame script: an oversized frame, blank lines, invalid
/// UTF-8, a line that is not JSON and a status request, then `ending`.
fn malformed_script(ending: &[u8]) -> Vec<u8> {
    let mut script = vec![b'a'; MAX_WIRE_LINE_BYTES + 1];
    script.extend_from_slice(b"\n\n   \n");
    script.extend_from_slice(&[0xff, 0xfe, 0x80, b'{', b'\n']);
    script.extend_from_slice(b"this is not json\n{\"op\":\"status\"}\n");
    script.extend_from_slice(ending);
    script
}

/// Both transports run one frame loop: the malformed-frame script, ended
/// once by a truncated frame and once by `shutdown`, gets byte-identical
/// replies from `serve_lines` over memory and from `serve_tcp` over two
/// connections, each half-closed after its script.
#[test]
fn the_tcp_transport_answers_the_malformed_frame_script_byte_for_byte() {
    let scripts = [
        malformed_script(b"{\"op\":\"poll\",\"id\":"),
        malformed_script(b"{\"op\":\"shutdown\"}\n"),
    ];

    let in_memory = service();
    let want: Vec<Vec<u8>> = scripts
        .iter()
        .map(|script| {
            let mut output = Vec::new();
            serve_lines(&in_memory, Cursor::new(&script[..]), &mut output).expect("serve");
            output
        })
        .collect();

    let over_tcp = service();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let got: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&over_tcp, listener));
        let got = scripts
            .iter()
            .map(|script| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(script).expect("send");
                stream.shutdown(Shutdown::Write).expect("half-close");
                let mut output = Vec::new();
                stream.read_to_end(&mut output).expect("recv");
                output
            })
            .collect();
        server
            .join()
            .expect("server thread exits")
            .expect("accept loop exits cleanly");
        got
    });
    assert_eq!(got, want, "TCP replies differ from the in-memory stream's");
    for (output, ending) in want.iter().zip(["truncated-frame", "shutting-down"]) {
        let replies: Vec<&str> = std::str::from_utf8(output).expect("utf8").lines().collect();
        assert_eq!(replies.len(), 5, "one reply a frame, none a blank line");
        assert!(replies[0].contains("oversized-frame"), "{:?}", replies[0]);
        assert!(replies[1].contains("UTF-8"), "{:?}", replies[1]);
        assert!(replies[2].contains("bad-request"), "{:?}", replies[2]);
        assert!(replies[3].contains("\"ok\":true"), "{:?}", replies[3]);
        assert!(replies[4].contains(ending), "{:?}", replies[4]);
    }
}
