//! Case-insensitive, insertion-ordered header map.
//!
//! Names and values are `Cow`s: a parsed request's headers borrow the
//! request bytes, and a response's fixed names and values (`Server`,
//! `Connection`, `X-Swala-Cache`, common content types) are `'static`
//! strings — neither side allocates a string per header.

use std::borrow::Cow;
use std::fmt;

/// A single header as parsed from or written to the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header<'a> {
    /// Field name with original casing preserved for writing.
    pub name: Cow<'a, str>,
    /// Field value, with surrounding whitespace trimmed.
    pub value: Cow<'a, str>,
}

/// An ordered multimap of HTTP headers.
///
/// * lookup is case-insensitive (RFC 1945 §4.2),
/// * insertion order is preserved when serializing,
/// * duplicate names are allowed (needed for e.g. `Set-Cookie`), with
///   [`HeaderMap::get`] returning the first occurrence.
///
/// With the `MAX_HEADERS` cap at 128 a linear scan beats a hash map here:
/// requests in the Swala workloads carry fewer than ten headers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap<'a> {
    entries: Vec<Header<'a>>,
}

impl<'a> HeaderMap<'a> {
    /// Create an empty map.
    pub fn new() -> Self {
        HeaderMap {
            entries: Vec::new(),
        }
    }

    /// An empty map over `entries`' allocation.
    pub(crate) fn reusing(mut entries: Vec<Header<'a>>) -> Self {
        entries.clear();
        HeaderMap { entries }
    }

    /// The list's allocation, for [`reusing`](Self::reusing).
    pub(crate) fn take_entries(&mut self) -> Vec<Header<'a>> {
        std::mem::take(&mut self.entries)
    }
}

/// `entries`' allocation, emptied, as a list that may outlive what its
/// headers borrowed (the collect reuses the buffer in place).
pub(crate) fn detached(mut entries: Vec<Header<'_>>) -> Vec<Header<'static>> {
    entries.clear();
    entries
        .into_iter()
        .map(|_| unreachable!("the list is empty"))
        .collect()
}

impl<'a> HeaderMap<'a> {
    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a header, preserving any existing ones with the same name.
    pub fn append(&mut self, name: impl Into<Cow<'a, str>>, value: impl Into<Cow<'a, str>>) {
        self.entries.push(Header {
            name: name.into(),
            value: value.into(),
        });
    }

    /// Set a header, replacing every existing occurrence of the name.
    pub fn set(&mut self, name: impl Into<Cow<'a, str>>, value: impl Into<Cow<'a, str>>) {
        let name = name.into();
        self.entries.retain(|h| !h.name.eq_ignore_ascii_case(&name));
        self.entries.push(Header {
            name,
            value: value.into(),
        });
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|h| h.name.eq_ignore_ascii_case(name))
            .map(|h| &*h.value)
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'s str> + 's {
        self.entries
            .iter()
            .filter(move |h| h.name.eq_ignore_ascii_case(name))
            .map(|h| &*h.value)
    }

    /// Remove every occurrence of `name`; returns true if any was present.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|h| !h.name.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    /// True when `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterate over all headers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Header<'a>> {
        self.entries.iter()
    }

    /// An owned copy that no longer borrows the request bytes.
    pub fn into_owned(self) -> HeaderMap<'static> {
        HeaderMap {
            entries: self
                .entries
                .into_iter()
                .map(|h| Header {
                    name: Cow::Owned(h.name.into_owned()),
                    value: Cow::Owned(h.value.into_owned()),
                })
                .collect(),
        }
    }

    /// Parsed `Content-Length`, if present and syntactically valid.
    ///
    /// Returns `Err` with the raw value when present but invalid — not
    /// all digits, or repeated with different values — so the caller can
    /// reject the request instead of silently mis-framing it.
    pub fn content_length(&self) -> Result<Option<usize>, String> {
        let mut length = None;
        for v in self.get_all("Content-Length") {
            length = Some(one_length(length, v).ok_or_else(|| v.to_string())?);
        }
        Ok(length)
    }

    /// Evaluate keep-alive semantics for a message of version `version`.
    ///
    /// `Connection` is a comma-separated token list and may be repeated:
    /// a `close` token anywhere closes, else a `keep-alive` token keeps
    /// the connection open, else the version decides — HTTP/1.1 persists,
    /// HTTP/1.0 closes.
    pub fn keep_alive(&self, version: crate::Version) -> bool {
        let mut keep = version.default_keep_alive();
        for value in self.get_all("Connection") {
            for token in value.split(',') {
                match token.trim_ascii().as_bytes() {
                    t if t.eq_ignore_ascii_case(b"close") => return false,
                    t if t.eq_ignore_ascii_case(b"keep-alive") => keep = true,
                    _ => {}
                }
            }
        }
        keep
    }
}

impl fmt::Display for HeaderMap<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for h in &self.entries {
            writeln!(f, "{}: {}", h.name, h.value)?;
        }
        Ok(())
    }
}

/// One more `Content-Length` value, `value`, after `seen`: its length,
/// or `None` when it is not all digits or differs from `seen`.
pub(crate) fn one_length(seen: Option<usize>, value: &str) -> Option<usize> {
    let digits = value.trim_ascii();
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let length = digits.parse::<usize>().ok()?;
    seen.is_none_or(|seen| seen == length).then_some(length)
}

/// Parse one `name: value` header line (without the trailing CRLF).
///
/// Returns `None` for syntactically invalid lines. Leading/trailing
/// whitespace around the value is trimmed; the name must be a non-empty
/// RFC 1945 token (no spaces, no control characters). The header
/// borrows `line`.
pub fn parse_header_line(line: &str) -> Option<Header<'_>> {
    let colon = line.bytes().position(|b| !TOKEN[b as usize])?;
    if colon == 0 || line.as_bytes()[colon] != b':' {
        return None;
    }
    Some(Header {
        name: Cow::Borrowed(&line[..colon]),
        value: Cow::Borrowed(line[colon + 1..].trim_ascii()),
    })
}

/// RFC 1945 token characters: printable ASCII minus separators.
static TOKEN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = matches!(b as u8,
            b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.' |
            b'^' | b'_' | b'`' | b'|' | b'~' | b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z');
        b += 1;
    }
    table
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Version;

    #[test]
    fn case_insensitive_get() {
        let mut h = HeaderMap::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert_eq!(h.get("X-Missing"), None);
    }

    #[test]
    fn append_keeps_duplicates_set_replaces() {
        let mut h = HeaderMap::new();
        h.append("X-A", "1");
        h.append("x-a", "2");
        assert_eq!(h.get("X-A"), Some("1"));
        assert_eq!(h.get_all("X-A").collect::<Vec<_>>(), vec!["1", "2"]);
        h.set("X-a", "3");
        assert_eq!(h.get_all("X-A").collect::<Vec<_>>(), vec!["3"]);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn remove_is_case_insensitive() {
        let mut h = HeaderMap::new();
        h.append("Foo", "a");
        h.append("FOO", "b");
        assert!(h.remove("foo"));
        assert!(h.is_empty());
        assert!(!h.remove("foo"));
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        assert_eq!(h.content_length().unwrap(), None);
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length().unwrap(), Some(42));
        h.set("Content-Length", "abc");
        assert!(h.content_length().is_err());
        h.set("Content-Length", "-1");
        assert!(h.content_length().is_err());
        h.set("Content-Length", "+5");
        assert!(h.content_length().is_err());
        // Repeated: the same value is one length, different values none.
        h.set("Content-Length", "5");
        h.append("Content-Length", "5");
        assert_eq!(h.content_length().unwrap(), Some(5));
        h.append("content-length", "0");
        assert!(h.content_length().is_err());
    }

    #[test]
    fn keep_alive_semantics() {
        let mut h = HeaderMap::new();
        assert!(!h.keep_alive(Version::Http10));
        assert!(h.keep_alive(Version::Http11));
        h.set("Connection", "keep-alive");
        assert!(h.keep_alive(Version::Http10));
        h.set("Connection", "Close");
        assert!(!h.keep_alive(Version::Http11));
        h.set("Connection", "upgrade"); // unknown token falls back to default
        assert!(h.keep_alive(Version::Http11));
        assert!(!h.keep_alive(Version::Http10));
    }

    #[test]
    fn connection_is_a_token_list_across_repeated_headers() {
        let mut h = HeaderMap::new();
        h.set("Connection", "TE, close");
        assert!(!h.keep_alive(Version::Http11));
        h.set("Connection", "Keep-Alive , TE");
        assert!(h.keep_alive(Version::Http10));
        h.set("Connection", "TE");
        h.append("connection", " close ");
        assert!(!h.keep_alive(Version::Http11));
        // close wins over keep-alive wherever it appears.
        h.set("Connection", "keep-alive");
        h.append("Connection", "upgrade,close");
        assert!(!h.keep_alive(Version::Http10));
        h.set("Connection", "te,,upgrade");
        assert!(h.keep_alive(Version::Http11));
        assert!(!h.keep_alive(Version::Http10));
    }

    #[test]
    fn parse_header_line_ok() {
        let h = parse_header_line("Host:  example.org ").unwrap();
        assert_eq!(h.name, "Host");
        assert_eq!(h.value, "example.org");
        // empty value is legal
        let h = parse_header_line("X-Empty:").unwrap();
        assert_eq!(h.value, "");
    }

    #[test]
    fn parse_header_line_rejects_bad() {
        assert!(parse_header_line("NoColonHere").is_none());
        assert!(parse_header_line(": value").is_none());
        assert!(parse_header_line("Bad Name: v").is_none());
        assert!(parse_header_line("Bad\tName: v").is_none());
    }

    #[test]
    fn display_renders_lines() {
        let mut h = HeaderMap::new();
        h.append("A", "1");
        h.append("B", "2");
        assert_eq!(h.to_string(), "A: 1\nB: 2\n");
    }
}
