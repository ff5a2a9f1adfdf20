//! Request targets: path + query parsing, percent decoding, normalization.
//!
//! Cache keys in Swala are derived from the request target, so two spellings
//! of the same CGI invocation must normalize identically, and path traversal
//! (`..`) must be rejected before a file or program is resolved.

use crate::error::{HttpError, Result};
use std::fmt;

/// A parsed origin-form request target (`/path/to/x?query`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestTarget {
    /// Percent-decoded, `.`/`..`-normalized absolute path. Always starts
    /// with `/`.
    pub path: String,
    /// The raw (still percent-encoded) query string, without the leading
    /// `?`. `None` when no `?` was present; `Some("")` for a bare `?`.
    pub query: Option<String>,
}

impl RequestTarget {
    /// Parse an origin-form target from the request line.
    ///
    /// Absolute-form targets (`http://host/path`) are accepted and reduced
    /// to origin form, as RFC 1945 requires of proxies-capable servers.
    pub fn parse(raw: &str) -> Result<RequestTarget> {
        if raw.is_empty() {
            return Err(HttpError::BadTarget(raw.to_string()));
        }
        // Strip absolute-form scheme+authority if present.
        let origin = if let Some(rest) = strip_scheme_authority(raw) {
            rest
        } else {
            raw
        };
        if !origin.starts_with('/') {
            return Err(HttpError::BadTarget(raw.to_string()));
        }
        let (path_part, query) = match origin.find('?') {
            Some(i) => (&origin[..i], Some(origin[i + 1..].to_string())),
            None => (origin, None),
        };
        let decoded =
            decode_percent(path_part).ok_or_else(|| HttpError::BadTarget(raw.to_string()))?;
        if decoded.bytes().any(|b| b == 0) {
            return Err(HttpError::BadTarget(raw.to_string()));
        }
        let path = normalize_path(&decoded).ok_or_else(|| HttpError::BadTarget(raw.to_string()))?;
        Ok(RequestTarget { path, query })
    }

    /// The canonical string form used as the dynamic-content cache key:
    /// normalized path plus the raw query (queries are significant bytes
    /// for CGI, so they are *not* decoded).
    pub fn cache_key_string(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// Decode the query string into `(key, value)` pairs.
    ///
    /// Uses `application/x-www-form-urlencoded` rules: `&`-separated pairs,
    /// `=`-split, `+` means space, `%XX` decoding. Undecodable components
    /// are preserved raw rather than dropped (CGI programs see them as-is).
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        let Some(q) = &self.query else {
            return Vec::new();
        };
        q.split('&')
            .filter(|s| !s.is_empty())
            .map(|pair| {
                let (k, v) = match pair.find('=') {
                    Some(i) => (&pair[..i], &pair[i + 1..]),
                    None => (pair, ""),
                };
                (decode_form(k), decode_form(v))
            })
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

impl fmt::Display for RequestTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cache_key_string())
    }
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

/// Form decoding: like percent decoding but `+` becomes space, and invalid
/// escapes pass through verbatim (lenient, as CGI libraries of the era were).
fn decode_form(s: &str) -> String {
    if !s.contains(['+', '%']) {
        return s.to_string();
    }
    let replaced = s.replace('+', " ");
    decode_percent(&replaced).unwrap_or(replaced)
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
