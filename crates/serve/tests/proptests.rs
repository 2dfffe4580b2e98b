//! Never-panic properties for the server's input parsers: whatever bytes
//! a client sends, `read_request` and `Request::json_body` return a value
//! or an error, and a parsed request's accessors stay total.

use std::io::BufReader;

use alex_serve::http::{read_request, Request};
use proptest::prelude::*;

const METHODS: &[&str] = &["GET", "POST", "DELETE", "é"];
const VERSIONS: &[&str] = &["HTTP/1.1", "HTTP/1.1", "HTTP/1.0", "HTTP/2"];

/// Path segments and query keys/values, several malformed or carrying
/// multi-byte text, so requests reach percent-decoding and query
/// splitting.
const SEGMENTS: &[&str] = &[
    "/sessions",
    "/s1",
    "/links",
    "/é",
    "/%2F",
    "/a+b",
    "/%zz",
    "/%",
];
const QUERY_PARTS: &[&str] = &[
    "limit", "format", "tree", "5", "%C3%A9", "é", "+", "%", "%zz", "=", "",
];

const HEADER_NAMES: &[&str] = &[
    "Host",
    "Connection",
    "Content-Type",
    "Transfer-Encoding",
    "X-Request-Id",
    "é",
    "",
];

const HEADER_VALUES: &[&str] = &[
    "close",
    "keep-alive",
    "chunked",
    "0",
    "-1",
    "99999999999999999999",
    "é",
    ":",
    " ",
];

/// A request assembled from HTTP syntax; one case in eight is cut short
/// and one in eight has a flipped byte. Most cases get past the request
/// line, so the header, framing and decoding paths all see hostile input.
fn arb_request() -> impl Strategy<Value = Vec<u8>> {
    (
        (0..METHODS.len(), 0..VERSIONS.len()),
        proptest::collection::vec(0..SEGMENTS.len(), 1..4),
        proptest::collection::vec((0..QUERY_PARTS.len(), 0..QUERY_PARTS.len()), 0..4),
        proptest::collection::vec(
            (
                0..HEADER_NAMES.len(),
                proptest::collection::vec(0..HEADER_VALUES.len(), 0..3),
            ),
            0..4,
        ),
        (0usize..6, proptest::collection::vec(any::<u8>(), 0..32)),
        (0usize..8, any::<usize>(), any::<u8>()),
    )
        .prop_map(
            |((method, version), path, query, headers, (framing, body), (damage, at, x))| {
                let mut target: String = path.iter().map(|&i| SEGMENTS[i]).collect();
                if !query.is_empty() {
                    let pairs: Vec<String> = query
                        .iter()
                        .map(|&(k, v)| format!("{}={}", QUERY_PARTS[k], QUERY_PARTS[v]))
                        .collect();
                    target = format!("{target}?{}", pairs.join("&"));
                }
                let mut text = format!("{} {target} {}\r\n", METHODS[method], VERSIONS[version]);
                for (name, value) in headers {
                    let value: String = value.iter().map(|&i| HEADER_VALUES[i]).collect();
                    text.push_str(&format!("{}: {value}\r\n", HEADER_NAMES[name]));
                }
                // The declared body length: mostly exact, else one too
                // long, absent, or doubled (a duplicate header).
                match framing {
                    0..=2 => text.push_str(&format!("Content-Length: {}\r\n", body.len())),
                    3 => text.push_str(&format!("Content-Length: {}\r\n", body.len() + 1)),
                    4 => {}
                    _ => text.push_str("content-length: 1\r\nContent-Length: 1\r\n"),
                }
                text.push_str("\r\n");
                let mut bytes = text.into_bytes();
                bytes.extend_from_slice(&body);
                match damage {
                    0 => bytes.truncate(at % (bytes.len() + 1)),
                    1 => {
                        let i = at % bytes.len();
                        bytes[i] ^= x;
                    }
                    _ => {}
                }
                bytes
            },
        )
}

/// Exercises every accessor a handler calls on a parsed request.
fn touch(req: &Request) {
    let _ = req.header("content-type");
    let _ = req.wants_keep_alive();
    let _ = req.query_params();
    let _ = req.json_body();
}

/// JSON syntax fragments for body mixes.
const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "é",
    "\"items\"",
    "true",
    "false",
    "null",
    "-",
    "0",
    "1e999",
    "-0.5",
    "9999999999999999999999",
    " ",
    "\n",
    // Deeper than the parser's nesting limit once a few are mixed in.
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
];

fn arb_json_fragment() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0..JSON_TOKENS.len()).prop_map(|i| JSON_TOKENS[i].as_bytes().to_vec()),
        proptest::collection::vec(any::<u8>(), 0..4),
    ]
}

fn request_with_body(body: Vec<u8>) -> Request {
    Request {
        method: "POST".into(),
        path: "/sessions".into(),
        query: None,
        http11: true,
        headers: Vec::new(),
        body,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes on the socket never panic the reader.
    #[test]
    fn read_request_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        if let Ok(req) = read_request(&mut BufReader::new(bytes.as_slice())) {
            touch(&req);
        }
    }

    /// Requests built from hostile HTTP syntax, cut short or corrupted,
    /// never panic the reader or the accessors of whatever it parses.
    #[test]
    fn read_request_never_panics_on_assembled_requests(bytes in arb_request()) {
        if let Ok(req) = read_request(&mut BufReader::new(bytes.as_slice())) {
            touch(&req);
        }
    }

    /// Arbitrary body bytes are a JSON value or an error, never a panic.
    #[test]
    fn json_body_never_panics_on_arbitrary_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        let _ = request_with_body(body).json_body();
    }

    /// Mixes of JSON fragments and raw bytes, nested deep and cut
    /// anywhere, are a value or an error, never a panic.
    #[test]
    fn json_body_never_panics_on_json_fragments(
        parts in proptest::collection::vec(arb_json_fragment(), 0..48)
    ) {
        let _ = request_with_body(parts.concat()).json_body();
    }
}
