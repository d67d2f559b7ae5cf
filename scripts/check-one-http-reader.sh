#!/usr/bin/env bash
# Fails when yprov-service reads HTTP/1.1 anywhere but `conn.rs`. The
# server's requests and every response its own code receives (`Client`,
# `http::request`) go through one parser, `conn::HttpParser`, so one set
# of header and framing rules holds in both directions. Checked: the
# non-test code (every line before the first column-0 `#[cfg(test)]`)
# of every `crates/yprov-service/src` file but `conn.rs`, comments
# stripped. A hit is a line that parses a head:
#   - a line reader (`read_line`, the `BufRead` trait);
#   - a search for a CR or LF (`split_once("\r\n\r\n")`, `b'\n'`);
#   - a header field name as a string of its own
#     (`eq_ignore_ascii_case("content-length")`).
# Head writers name fields inside a format string (`"Content-Length:
# {}\r\n"`), so they are not hits.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

scan='
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { code = $0; sub(/\/\/.*/, "", code) }
  code ~ /read_line\(|BufRead([^A-Za-z]|$)/ ||
  code ~ /\(b?"(\\r|\\n)/ || code ~ /b\x27\\[rn]\x27/ ||
  tolower(code) ~ /"(content-length|transfer-encoding|connection|retry-after|traceparent)"/ {
    printf "%s:%d:%s\n", FILENAME, FNR, $0
  }'

# Self-check: the scan must see each way of reading a head and skip the
# writers, comments, doc comments and test code.
sample=$(mktemp)
trap 'rm -f "$sample"' EXIT
cat >"$sample" <<'EOF'
        match reader.read_line(&mut head) {
use std::io::{self, BufRead, BufReader, Read, Write};
        .split_once("\r\n\r\n")
        if name.eq_ignore_ascii_case("Content-Length") {
    let lines = buf.iter().filter(|&&b| b == b'\n').count();
        "HTTP/1.1 {status} {reason}\r\nContent-Length: {content_length}\r\n{retry_after}Connection: {connection}\r\n\r\n"
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        "Retry-After: 1\r\n"
    let reader = std::io::BufReader::new(file);
        // read_line and split_once("\r\n\r\n") live in conn.rs only.
/// A `"content-length"` check belongs to the parser.
#[cfg(test)]
        BufReader::new(&stall).read_line(&mut response).unwrap();
EOF
awk "$scan" "$sample" | wc -l | grep -qx 5 || { echo "scan missed or over-matched its sample lines" >&2; exit 2; }

hits=$(find crates/yprov-service/src -name '*.rs' -not -path 'crates/yprov-service/src/conn.rs' -print0 \
  | sort -z | xargs -0 awk "$scan")

if [ -n "$hits" ]; then
  echo "an HTTP/1.1 head parsed outside conn.rs (read it with conn::HttpParser):" >&2
  echo "$hits" >&2
  exit 1
fi
