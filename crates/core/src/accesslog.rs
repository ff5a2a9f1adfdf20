//! Access logging in Common Log Format.
//!
//! 1998 servers wrote NCSA Common Log Format, and so does Swala:
//!
//! ```text
//! 127.0.0.1 - - [28/Jul/1998:12:00:00 +0000] "GET /cgi-bin/adl?id=1 HTTP/1.0" 200 2048
//! ```
//!
//! With tracing on, each line carries a telemetry suffix after the byte
//! count (`out=`/`owner=`/`trace=`…); parsers that stop at the byte
//! count, `swala-workload`'s among them, read the line unchanged.
//!
//! Lines are buffered per write and the file is shared by all request
//! threads through a mutex — the bottleneck profile of the original
//! servers, which is fine because a log write is two orders of magnitude
//! cheaper than the dynamic requests Swala exists to serve.

use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use swala_http::date::UtcDateTime;
use swala_http::{Request, Response};
use swala_obs::TraceSummary;

/// A shared, append-only CLF access log.
pub struct AccessLog {
    file: Mutex<File>,
}

impl AccessLog {
    /// Open (appending) a CLF log at `path`.
    pub fn open(path: &Path) -> io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
        })
    }

    /// Append one request/response pair without telemetry.
    pub fn log(&self, peer: &str, req: &Request, resp: &Response) {
        self.log_with(peer, req, resp, None);
    }

    /// Append one request/response pair with its trace summary (when
    /// tracing produced one), spliced in as the telemetry suffix before
    /// the newline — the CLF prefix is unchanged, so existing log
    /// parsers (which stop at status+bytes) keep working.
    pub fn log_with(
        &self,
        peer: &str,
        req: &Request,
        resp: &Response,
        summary: Option<&TraceSummary>,
    ) {
        let mut line = format_clf(peer, req, resp, std::time::SystemTime::now());
        if let Some(s) = summary {
            line.pop();
            line.push(' ');
            line.push_str(&trace_suffix(s));
            line.push('\n');
        }
        let mut file = self.file.lock();
        // Logging must never take the server down; drop the line on error.
        let _ = file.write_all(line.as_bytes());
    }
}

/// The telemetry suffix appended to a CLF line when tracing is on:
/// outcome, owning node, trace id (hex, grep-able across nodes),
/// per-stage micros and total.
pub fn trace_suffix(s: &swala_obs::TraceSummary) -> String {
    format!(
        "out={} owner={} trace={:016x} total_us={} stages={}",
        s.outcome.as_str(),
        s.owner.map(|o| o.to_string()).unwrap_or_else(|| "-".into()),
        s.id,
        s.total_us,
        if s.stages.is_empty() { "-" } else { &s.stages },
    )
}

/// Render one CLF line (without writing it) — separated for testing.
pub fn format_clf(
    peer: &str,
    req: &Request,
    resp: &Response,
    now: std::time::SystemTime,
) -> String {
    let host = peer.rsplit_once(':').map(|(h, _)| h).unwrap_or(peer);
    // The body bytes sent: a HEAD answer carries none.
    let bytes = if req.method.response_has_body() {
        resp.body.len()
    } else {
        0
    };
    let t = UtcDateTime::from_system_time(now);
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    format!(
        "{host} - - [{:02}/{}/{:04}:{:02}:{:02}:{:02} +0000] \"{} {} {}\" {} {}\n",
        t.day,
        MONTHS[(t.month - 1) as usize],
        t.year,
        t.hour,
        t.minute,
        t.second,
        req.method,
        req.target.cache_key(),
        req.version,
        resp.status.as_u16(),
        bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, UNIX_EPOCH};
    use swala_http::{Method, StatusCode};

    fn sample() -> (Request<'static>, Response) {
        let req = Request::get("/cgi-bin/adl?id=1&ms=5").unwrap();
        let resp = Response::ok("text/html", vec![b'x'; 2048]);
        (req, resp)
    }

    #[test]
    fn clf_line_shape() {
        let (req, resp) = sample();
        // 1998-07-28 12:00:00 UTC.
        let when = UNIX_EPOCH + Duration::from_secs(901_627_200);
        let line = format_clf("10.1.2.3:51000", &req, &resp, when);
        assert_eq!(
            line,
            "10.1.2.3 - - [28/Jul/1998:12:00:00 +0000] \
             \"GET /cgi-bin/adl?id=1&ms=5 HTTP/1.0\" 200 2048\n"
        );
    }

    #[test]
    fn status_and_method_vary() {
        let mut req = Request::new(Method::Post, "/cgi-bin/x").unwrap();
        req.version = swala_http::Version::Http11;
        let mut resp = Response::error(StatusCode::NOT_FOUND);
        resp.body = b"nf".to_vec().into();
        let line = format_clf("h:1", &req, &resp, UNIX_EPOCH);
        assert!(
            line.contains("\"POST /cgi-bin/x HTTP/1.1\" 404 2"),
            "{line}"
        );
    }

    #[test]
    fn log_appends_to_file() {
        let path = std::env::temp_dir().join(format!("swala-clf-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path).unwrap();
        let (req, resp) = sample();
        log.log("1.2.3.4:9", &req, &resp);
        log.log("5.6.7.8:9", &req, &resp);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("1.2.3.4 - - ["));
        assert!(text.lines().nth(1).unwrap().starts_with("5.6.7.8"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn enriched_line_keeps_clf_prefix() {
        use swala_obs::{Outcome, TraceSummary};
        let path = std::env::temp_dir().join(format!("swala-clf-tr-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open(&path).unwrap();
        let (req, resp) = sample();
        let summary = TraceSummary {
            id: 0x0001_0000_0000_002a,
            outcome: Outcome::LocalMem,
            owner: None,
            total_us: 123,
            stages: "rules:1,mem-tier:2".to_string(),
        };
        log.log_with("9.9.9.9:1", &req, &resp, Some(&summary));
        let text = std::fs::read_to_string(&path).unwrap();
        let line = text.lines().next().unwrap();
        // CLF prefix intact, suffix appended after status+bytes.
        assert!(
            line.contains("\" 200 2048 out=local-mem owner=- "),
            "{line}"
        );
        assert!(
            line.contains("trace=0001000000002a") || line.contains("trace=000100000000002a"),
            "{line}"
        );
        assert!(
            line.ends_with("total_us=123 stages=rules:1,mem-tier:2"),
            "{line}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn trace_suffix_formats_owner_and_empty_stages() {
        use swala_obs::{Outcome, TraceSummary};
        let s = TraceSummary {
            id: 7,
            outcome: Outcome::Remote,
            owner: Some(2),
            total_us: 9,
            stages: String::new(),
        };
        assert_eq!(
            trace_suffix(&s),
            "out=remote owner=2 trace=0000000000000007 total_us=9 stages=-"
        );
    }

    #[test]
    fn concurrent_logging_keeps_lines_whole() {
        use std::sync::Arc;
        let path = std::env::temp_dir().join(format!("swala-clf-conc-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = Arc::new(AccessLog::open(&path).unwrap());
        std::thread::scope(|s| {
            for t in 0..4 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    let (req, resp) = sample();
                    for _ in 0..100 {
                        log.log(&format!("10.0.0.{t}:1"), &req, &resp);
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 400);
        for line in text.lines() {
            assert!(line.ends_with("200 2048"), "torn line: {line:?}");
        }
        let _ = std::fs::remove_file(path);
    }
}
