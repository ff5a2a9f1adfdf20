//! Request targets: path + query parsing, percent decoding, normalization.
//!
//! Cache keys in Swala are derived from the request target, so two spellings
//! of the same CGI invocation must normalize identically, and path traversal
//! (`..`) must be rejected before a file or program is resolved.
//!
//! A target borrows from the bytes it was parsed from: a path that is
//! already in canonical form (the common case) is not copied.

use crate::error::{HttpError, Result};
use std::borrow::Cow;
use std::fmt;
use std::ops::Deref;

/// Text taken from a request: borrowed from the bytes it was parsed out
/// of when they need no change, owned when decoding or normalizing
/// changed them.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Text<'a>(Cow<'a, str>);

impl<'a> Text<'a> {
    /// The text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// An owned copy that no longer borrows the request bytes.
    pub fn into_owned(self) -> Text<'static> {
        Text(Cow::Owned(self.0.into_owned()))
    }
}

impl Deref for Text<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Text<'_> {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl<'a> From<&'a str> for Text<'a> {
    fn from(s: &'a str) -> Text<'a> {
        Text(Cow::Borrowed(s))
    }
}

impl From<String> for Text<'_> {
    fn from(s: String) -> Self {
        Text(Cow::Owned(s))
    }
}

impl From<Text<'_>> for String {
    fn from(t: Text<'_>) -> String {
        t.0.into_owned()
    }
}

impl PartialEq<str> for Text<'_> {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Text<'_> {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Text<'_> {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Text<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A parsed origin-form request target (`/path/to/x?query`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestTarget<'a> {
    /// Percent-decoded, `.`/`..`-normalized absolute path. Always starts
    /// with `/`.
    pub path: Text<'a>,
    /// The raw (still percent-encoded) query string, without the leading
    /// `?`. `None` when no `?` was present; `Some("")` for a bare `?`.
    pub query: Option<Text<'a>>,
    /// `path`, then `?` and the query when there is one: the cache key.
    key: Text<'a>,
}

impl<'a> RequestTarget<'a> {
    /// Parse an origin-form target from the request line.
    ///
    /// Absolute-form targets (`http://host/path`) are accepted and reduced
    /// to origin form, as RFC 1945 requires of proxies-capable servers.
    pub fn parse(raw: &'a str) -> Result<RequestTarget<'a>> {
        let bad = || HttpError::BadTarget(raw.to_string());
        if raw.is_empty() {
            return Err(bad());
        }
        // Strip absolute-form scheme+authority if present.
        let origin = match raw.starts_with('/') {
            true => raw,
            false => strip_scheme_authority(raw).unwrap_or(raw),
        };
        if !origin.starts_with('/') {
            return Err(bad());
        }
        // A fragment is the client's own (RFC 9112 §3.2): it names
        // nothing the server serves, so it is no part of the path, the
        // query or the key.
        let origin = origin.split_once('#').map_or(origin, |(target, _)| target);
        let (path_part, query) = match origin.bytes().position(|b| b == b'?') {
            Some(i) => (&origin[..i], Some(&origin[i + 1..])),
            None => (origin, None),
        };
        // A canonical path is the text itself, and so is the key.
        if is_canonical(path_part) {
            return Ok(RequestTarget {
                path: Text::from(path_part),
                query: query.map(Text::from),
                key: Text::from(origin),
            });
        }
        if path_part.bytes().any(|b| b == 0) {
            return Err(bad());
        }
        let decoded = decode_percent(path_part).ok_or_else(bad)?;
        if decoded.bytes().any(|b| b == 0) {
            return Err(bad());
        }
        let path = normalize_path(&decoded).ok_or_else(bad)?;
        let key = match query {
            Some(q) => Text::from(format!("{path}?{q}")),
            None => Text::from(path.clone()),
        };
        Ok(RequestTarget {
            path: Text::from(path),
            query: query.map(Text::from),
            key,
        })
    }

    /// The canonical string form used as the dynamic-content cache key:
    /// normalized path plus the raw query (queries are significant bytes
    /// for CGI, so they are *not* decoded).
    pub fn cache_key(&self) -> &str {
        &self.key
    }

    /// [`cache_key`](Self::cache_key) as an owned string.
    pub fn cache_key_string(&self) -> String {
        self.key.to_string()
    }

    /// An owned copy that no longer borrows the request bytes.
    pub fn into_owned(self) -> RequestTarget<'static> {
        RequestTarget {
            path: self.path.into_owned(),
            query: self.query.map(Text::into_owned),
            key: self.key.into_owned(),
        }
    }

    /// Decode the query string into `(key, value)` pairs, by
    /// [`form_pairs`]' rules.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        form_pairs(self.query.as_deref().unwrap_or_default())
            .map(|(k, v)| (k.into_owned(), v.into_owned()))
            .collect()
    }

    /// File extension of the path, lowercased, if any.
    pub fn extension(&self) -> Option<&str> {
        let file = self.path.rsplit('/').next()?;
        let dot = file.rfind('.')?;
        if dot == 0 || dot + 1 == file.len() {
            return None;
        }
        Some(&file[dot + 1..])
    }
}

impl fmt::Display for RequestTarget<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key)
    }
}

/// True when decoding and [`normalize_path`] would return `path`
/// unchanged: no `%` escape or NUL byte, no empty segment but a trailing
/// one, and no `.` or `..` segment. One pass over the bytes.
fn is_canonical(path: &str) -> bool {
    let bytes = path.as_bytes();
    // Where the current segment starts (just past its `/`).
    let mut segment = 1;
    for (i, &b) in bytes.iter().enumerate().skip(1) {
        match b {
            b'%' | 0 => return false,
            b'/' => {
                if matches!(&bytes[segment..i], b"" | b"." | b"..") {
                    return false;
                }
                segment = i + 1;
            }
            _ => {}
        }
    }
    !matches!(&bytes[segment..], b"." | b"..")
}

/// If `raw` is absolute-form, return the part starting at the path.
fn strip_scheme_authority(raw: &str) -> Option<&str> {
    let rest = raw
        .strip_prefix("http://")
        .or_else(|| raw.strip_prefix("https://"))?;
    match rest.find('/') {
        Some(i) => Some(&rest[i..]),
        // `http://host` with no path means `/`.
        None => Some("/"),
    }
}

/// Percent-decode a string. Returns `None` on truncated or non-hex escapes
/// or if the result is not valid UTF-8.
pub fn decode_percent(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// The `(key, value)` pairs of a raw query string, each decoded as it
/// is reached.
///
/// Uses `application/x-www-form-urlencoded` rules: `&`-separated pairs,
/// `=`-split, `+` means space, `%XX` decoding. Undecodable components
/// are preserved raw rather than dropped (CGI programs see them as-is),
/// and a component with nothing to decode is borrowed, not copied.
pub fn form_pairs(query: &str) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
    query.split('&').filter(|s| !s.is_empty()).map(|pair| {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        (decode_form(k), decode_form(v))
    })
}

/// Form decoding: like percent decoding but `+` becomes space, and invalid
/// escapes pass through verbatim (lenient, as CGI libraries of the era were).
fn decode_form(s: &str) -> Cow<'_, str> {
    if !s.contains(['+', '%']) {
        return Cow::Borrowed(s);
    }
    let replaced = s.replace('+', " ");
    Cow::Owned(decode_percent(&replaced).unwrap_or(replaced))
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Normalize `.` and `..` segments and collapse duplicate slashes.
///
/// Returns `None` when `..` would escape the root — the caller must treat
/// that as a malformed (hostile) request, never resolve it against the
/// document root.
fn normalize_path(path: &str) -> Option<String> {
    debug_assert!(path.starts_with('/'));
    let mut segments: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                segments.pop()?;
            }
            s => segments.push(s),
        }
    }
    let trailing_slash = path.ends_with('/') && !segments.is_empty();
    let mut out = String::with_capacity(path.len());
    for s in &segments {
        out.push('/');
        out.push_str(s);
    }
    if out.is_empty() || trailing_slash {
        out.push('/');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let t = RequestTarget::parse("/index.html").unwrap();
        assert_eq!(t.path, "/index.html");
        assert_eq!(t.query, None);
        assert_eq!(t.cache_key_string(), "/index.html");
    }

    #[test]
    fn parse_with_query() {
        let t = RequestTarget::parse("/cgi-bin/map?x=1&y=2").unwrap();
        assert_eq!(t.path, "/cgi-bin/map");
        assert_eq!(t.query.as_deref(), Some("x=1&y=2"));
        assert_eq!(t.cache_key_string(), "/cgi-bin/map?x=1&y=2");
    }

    #[test]
    fn bare_question_mark() {
        let t = RequestTarget::parse("/a?").unwrap();
        assert_eq!(t.query.as_deref(), Some(""));
        assert_eq!(t.cache_key_string(), "/a?");
    }

    #[test]
    fn percent_decoding_in_path_only() {
        let t = RequestTarget::parse("/a%20b?q=%20").unwrap();
        assert_eq!(t.path, "/a b");
        // Query stays raw in the key...
        assert_eq!(t.query.as_deref(), Some("q=%20"));
        // ...but decodes in pairs.
        assert_eq!(t.query_pairs(), vec![("q".to_string(), " ".to_string())]);
    }

    #[test]
    fn plus_means_space_in_query_not_path() {
        let t = RequestTarget::parse("/a+b?k=v+w").unwrap();
        assert_eq!(t.path, "/a+b");
        assert_eq!(t.query_pairs(), vec![("k".to_string(), "v w".to_string())]);
    }

    #[test]
    fn dot_and_dotdot_normalization() {
        assert_eq!(RequestTarget::parse("/a/./b").unwrap().path, "/a/b");
        assert_eq!(RequestTarget::parse("/a/b/../c").unwrap().path, "/a/c");
        assert_eq!(RequestTarget::parse("//a///b").unwrap().path, "/a/b");
        assert_eq!(RequestTarget::parse("/a/b/..").unwrap().path, "/a");
        assert_eq!(RequestTarget::parse("/..a/b").unwrap().path, "/..a/b");
    }

    #[test]
    fn traversal_escape_rejected() {
        assert!(RequestTarget::parse("/../etc/passwd").is_err());
        assert!(RequestTarget::parse("/a/../../etc").is_err());
        // Encoded traversal decodes first, then normalizes, then escapes.
        assert!(RequestTarget::parse("/%2e%2e/etc").is_err());
    }

    #[test]
    fn root_and_trailing_slash() {
        assert_eq!(RequestTarget::parse("/").unwrap().path, "/");
        assert_eq!(RequestTarget::parse("/dir/").unwrap().path, "/dir/");
        assert_eq!(RequestTarget::parse("/a/./").unwrap().path, "/a/");
    }

    #[test]
    fn absolute_form_reduced() {
        let t = RequestTarget::parse("http://host.example/cgi?a=1").unwrap();
        assert_eq!(t.path, "/cgi");
        assert_eq!(t.query.as_deref(), Some("a=1"));
        assert_eq!(
            RequestTarget::parse("http://host.example").unwrap().path,
            "/"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(RequestTarget::parse("").is_err());
        assert!(RequestTarget::parse("notaslash").is_err());
        assert!(RequestTarget::parse("/bad%zz").is_err());
        assert!(RequestTarget::parse("/trunc%2").is_err());
        assert!(RequestTarget::parse("/nul%00byte").is_err());
    }

    #[test]
    fn query_pairs_edge_cases() {
        let t = RequestTarget::parse("/x?a=1&&b&c=").unwrap();
        assert_eq!(
            t.query_pairs(),
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "".to_string()),
                ("c".to_string(), "".to_string()),
            ]
        );
        assert!(RequestTarget::parse("/x").unwrap().query_pairs().is_empty());
    }

    #[test]
    fn extension() {
        assert_eq!(
            RequestTarget::parse("/a/b.html").unwrap().extension(),
            Some("html")
        );
        assert_eq!(
            RequestTarget::parse("/a/b.tar.gz").unwrap().extension(),
            Some("gz")
        );
        assert_eq!(RequestTarget::parse("/a/noext").unwrap().extension(), None);
        assert_eq!(
            RequestTarget::parse("/a/.hidden").unwrap().extension(),
            None
        );
        assert_eq!(RequestTarget::parse("/a/dot.").unwrap().extension(), None);
    }

    #[test]
    fn a_canonical_path_is_borrowed_and_others_are_normalized() {
        let raw = "/cgi-bin/map?x=1";
        let t = RequestTarget::parse(raw).unwrap();
        assert!(std::ptr::eq(t.path.as_ptr(), raw.as_ptr()));
        assert!(std::ptr::eq(t.cache_key().as_ptr(), raw.as_ptr()));
        for (raw, key) in [
            ("/", "/"),
            ("/a/", "/a/"),
            ("//a?q", "/a?q"),
            ("/a/./b", "/a/b"),
            ("/a/..", "/"),
            ("/a%20b?q=%20", "/a b?q=%20"),
            ("http://h/x/../y?z", "/y?z"),
        ] {
            let t = RequestTarget::parse(raw).unwrap();
            assert_eq!(t.cache_key(), key, "{raw}");
            assert_eq!(t.cache_key_string(), key, "{raw}");
            assert_eq!(t.to_string(), key, "{raw}");
        }
    }

    #[test]
    fn decode_percent_basics() {
        assert_eq!(decode_percent("abc").as_deref(), Some("abc"));
        assert_eq!(decode_percent("a%41c").as_deref(), Some("aAc"));
        assert_eq!(decode_percent("%e2%82%ac").as_deref(), Some("€"));
        assert_eq!(decode_percent("%G1"), None);
        assert_eq!(decode_percent("%"), None);
        // Invalid UTF-8 after decoding.
        assert_eq!(decode_percent("%ff%fe"), None);
    }
}
