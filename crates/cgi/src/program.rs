//! The `Program` trait and the request view handed to programs.

use crate::output::CgiOutput;
use std::io;
use swala_http::{Method, Request};

/// Everything a CGI program sees about the request that invoked it.
///
/// This is the decoded, program-facing view; the raw HTTP request stays in
/// the server. The fields mirror the CGI/1.1 meta-variables a forked
/// process would receive (see [`crate::env`]).
#[derive(Debug, Clone)]
pub struct CgiRequest {
    pub method: Method,
    /// Script path as requested, e.g. `/cgi-bin/mapserver`.
    pub script_name: String,
    /// Raw query string (still percent-encoded), empty if none.
    pub query_string: String,
    /// Decoded query pairs (`application/x-www-form-urlencoded` rules).
    pub query_pairs: Vec<(String, String)>,
    /// POST body, if any.
    pub body: Vec<u8>,
    /// Client address string for `REMOTE_ADDR`.
    pub remote_addr: String,
    /// Server identity for `SERVER_NAME`/`SERVER_PORT`.
    pub server_name: String,
    pub server_port: u16,
}

impl CgiRequest {
    /// Build the program-facing view from a parsed HTTP request.
    pub fn from_http(
        req: &Request,
        remote_addr: &str,
        server_name: &str,
        server_port: u16,
    ) -> Self {
        CgiRequest {
            method: req.method,
            script_name: req.target.path.to_string(),
            query_string: req.target.query.as_deref().unwrap_or_default().to_string(),
            query_pairs: req.target.query_pairs(),
            body: req.body.clone(),
            remote_addr: remote_addr.to_string(),
            server_name: server_name.to_string(),
            server_port,
        }
    }

    /// First value of a decoded query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query_pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
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

    fn sample_request(target: &str) -> CgiRequest {
        let req = Request::get(target).unwrap();
        CgiRequest::from_http(&req, "127.0.0.1:9", "node0", 8080)
    }

    #[test]
    fn from_http_extracts_fields() {
        let c = sample_request("/cgi-bin/map?x=1&y=two");
        assert_eq!(c.script_name, "/cgi-bin/map");
        assert_eq!(c.query_string, "x=1&y=two");
        assert_eq!(c.param("x"), Some("1"));
        assert_eq!(c.param("y"), Some("two"));
        assert_eq!(c.param("z"), None);
        assert_eq!(c.server_port, 8080);
    }

    #[test]
    fn param_u64_parses() {
        let c = sample_request("/cgi-bin/p?t=250&bad=xy");
        assert_eq!(c.param_u64("t"), Some(250));
        assert_eq!(c.param_u64("bad"), None);
        assert_eq!(c.param_u64("missing"), None);
    }

    #[test]
    fn no_query_is_empty_string() {
        let c = sample_request("/cgi-bin/p");
        assert_eq!(c.query_string, "");
        assert!(c.query_pairs.is_empty());
    }
}
