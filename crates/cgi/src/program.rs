//! The `Program` trait and the request view handed to programs.

use crate::output::CgiOutput;
use std::borrow::Cow;
use std::io;
use swala_http::uri::form_pairs;
use swala_http::{Method, Request};

/// Everything a CGI program sees about the request that invoked it.
///
/// This is the program-facing view, borrowed from the parsed request
/// and the server: building it copies nothing, and a query parameter is
/// decoded only when a program asks for it. The fields mirror the
/// CGI/1.1 meta-variables a forked process would receive (see
/// [`crate::env`]).
#[derive(Debug, Clone, Copy)]
pub struct CgiRequest<'a> {
    pub method: Method,
    /// Script path as requested, e.g. `/cgi-bin/mapserver`.
    pub script_name: &'a str,
    /// Raw query string (still percent-encoded), empty if none.
    pub query_string: &'a str,
    /// POST body, if any.
    pub body: &'a [u8],
    /// Client address string for `REMOTE_ADDR`.
    pub remote_addr: &'a str,
    /// Server identity for `SERVER_NAME`/`SERVER_PORT`.
    pub server_name: &'a str,
    pub server_port: u16,
}

impl<'a> CgiRequest<'a> {
    /// The program-facing view of a parsed HTTP request.
    pub fn from_http(
        req: &'a Request<'_>,
        remote_addr: &'a str,
        server_name: &'a str,
        server_port: u16,
    ) -> Self {
        CgiRequest {
            method: req.method,
            script_name: &req.target.path,
            query_string: req.target.query.as_deref().unwrap_or_default(),
            body: &req.body,
            remote_addr,
            server_name,
            server_port,
        }
    }

    /// The decoded query pairs (`application/x-www-form-urlencoded`
    /// rules), each decoded as it is reached.
    pub fn query_pairs(&self) -> impl Iterator<Item = (Cow<'a, str>, Cow<'a, str>)> {
        form_pairs(self.query_string)
    }

    /// First value of a decoded query parameter.
    pub fn param(&self, key: &str) -> Option<Cow<'a, str>> {
        self.query_pairs()
            .find(|(k, _)| k == key)
            .map(|(_, value)| value)
    }

    /// Parse an integer query parameter, `None` if absent or malformed.
    pub fn param_u64(&self, key: &str) -> Option<u64> {
        self.param(key).and_then(|v| v.parse().ok())
    }
}

/// A dynamic-content program the server can invoke.
///
/// Programs must be deterministic functions of the [`CgiRequest`] when they
/// are registered as cacheable — the whole premise of result caching (§4.2
/// "strong content consistency requires that if the CGI is to execute
/// again, the new result is identical to the cached result").
pub trait Program: Send + Sync {
    /// Execute the program and produce its output.
    ///
    /// Errors map to `500 Internal Server Error`; per Figure 2, failed
    /// executions are never inserted into the cache.
    fn run(&self, req: &CgiRequest) -> io::Result<CgiOutput>;

    /// Human-readable name for logs and stats.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `check` on the view of a GET for `target`.
    fn with_request(target: &str, check: impl FnOnce(CgiRequest<'_>)) {
        let req = Request::get(target).unwrap();
        check(CgiRequest::from_http(&req, "127.0.0.1:9", "node0", 8080));
    }

    #[test]
    fn from_http_extracts_fields() {
        with_request("/cgi-bin/map?x=1&y=two", |c| {
            assert_eq!(c.script_name, "/cgi-bin/map");
            assert_eq!(c.query_string, "x=1&y=two");
            assert_eq!(c.param("x").as_deref(), Some("1"));
            assert_eq!(c.param("y").as_deref(), Some("two"));
            assert_eq!(c.param("z"), None);
            assert_eq!(c.server_port, 8080);
        });
    }

    #[test]
    fn param_u64_parses() {
        with_request("/cgi-bin/p?t=250&bad=xy", |c| {
            assert_eq!(c.param_u64("t"), Some(250));
            assert_eq!(c.param_u64("bad"), None);
            assert_eq!(c.param_u64("missing"), None);
        });
    }

    #[test]
    fn no_query_is_empty_string() {
        with_request("/cgi-bin/p", |c| {
            assert_eq!(c.query_string, "");
            assert_eq!(c.query_pairs().count(), 0);
        });
    }

    #[test]
    fn params_are_decoded_as_asked_and_only_then_copied() {
        with_request("/cgi-bin/p?a+b=1%2B2&plain=x&a%20b=second&empty", |c| {
            let pairs: Vec<_> = c.query_pairs().collect();
            let pairs: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (&**k, &**v)).collect();
            assert_eq!(
                pairs,
                [
                    ("a b", "1+2"),
                    ("plain", "x"),
                    ("a b", "second"),
                    ("empty", "")
                ]
            );
            assert!(matches!(c.param("plain"), Some(Cow::Borrowed("x"))));
            assert_eq!(c.param("a b").as_deref(), Some("1+2"), "the first value");
        });
    }
}
