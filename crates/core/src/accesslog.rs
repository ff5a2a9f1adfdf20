//! Access logging: Common Log Format or JSON lines.
//!
//! 1998 servers wrote NCSA Common Log Format, and so does Swala by
//! default:
//!
//! ```text
//! 127.0.0.1 - - [28/Jul/1998:12:00:00 +0000] "GET /cgi-bin/adl?id=1 HTTP/1.0" 200 2048
//! ```
//!
//! `log_format json` switches each line to one JSON object with the
//! same fields (including the telemetry suffix's `out=`/`owner=`/
//! `trace=` data as proper keys), for log pipelines that would
//! otherwise regex the CLF line apart.
//!
//! Lines are buffered per write and the file is shared by all request
//! threads through a mutex — the bottleneck profile of the original
//! servers, which is fine because a log write is two orders of magnitude
//! cheaper than the dynamic requests Swala exists to serve.

use crate::config::LogFormat;
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use swala_http::date::UtcDateTime;
use swala_http::{Request, Response};
use swala_obs::TraceSummary;

/// A shared, append-only access log (CLF text or JSON lines).
pub struct AccessLog {
    file: Mutex<File>,
    format: LogFormat,
}

impl AccessLog {
    /// Open (appending) a CLF text log at `path`.
    pub fn open(path: &Path) -> io::Result<AccessLog> {
        AccessLog::open_with(path, LogFormat::Text)
    }

    /// Open (appending) the log at `path` in the given line format.
    pub fn open_with(path: &Path, format: LogFormat) -> io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(AccessLog {
            file: Mutex::new(file),
            format,
        })
    }

    /// The configured line format.
    pub fn format(&self) -> LogFormat {
        self.format
    }

    /// Append one request/response pair without telemetry.
    pub fn log(&self, peer: &str, req: &Request, resp: &Response) {
        self.log_with(peer, req, resp, None);
    }

    /// Append one request/response pair with its trace summary (when
    /// tracing produced one). Text format splices the telemetry suffix
    /// in before the newline — the CLF prefix is unchanged, so existing
    /// log parsers (which stop at status+bytes) keep working. JSON
    /// format emits the same data as object fields.
    pub fn log_with(
        &self,
        peer: &str,
        req: &Request,
        resp: &Response,
        summary: Option<&TraceSummary>,
    ) {
        let now = std::time::SystemTime::now();
        let line = match self.format {
            LogFormat::Text => {
                let mut line = format_clf(peer, req, resp, now);
                if let Some(s) = summary {
                    line.pop();
                    line.push(' ');
                    line.push_str(&trace_suffix(s));
                    line.push('\n');
                }
                line
            }
            LogFormat::Json => format_json(peer, req, resp, now, summary),
        };
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
        resp.body.len(),
    )
}

/// Render one JSON log line (without writing it) — the same fields as
/// the CLF line plus its telemetry suffix, as one object per line.
pub fn format_json(
    peer: &str,
    req: &Request,
    resp: &Response,
    now: std::time::SystemTime,
    summary: Option<&TraceSummary>,
) -> String {
    let host = peer.rsplit_once(':').map(|(h, _)| h).unwrap_or(peer);
    let t = UtcDateTime::from_system_time(now);
    let mut line = format!(
        "{{\"host\":\"{}\",\"time\":\"{:04}-{:02}-{:02}T{:02}:{:02}:{:02}Z\",\
         \"method\":\"{}\",\"target\":\"{}\",\"version\":\"{}\",\"status\":{},\"bytes\":{}",
        json_escape(host),
        t.year,
        t.month,
        t.day,
        t.hour,
        t.minute,
        t.second,
        req.method,
        json_escape(req.target.cache_key()),
        req.version,
        resp.status.as_u16(),
        resp.body.len(),
    );
    if let Some(s) = summary {
        line.push_str(&format!(
            ",\"out\":\"{}\",\"owner\":{},\"trace\":\"{:016x}\",\"total_us\":{},\"stages\":\"{}\"",
            s.outcome.as_str(),
            s.owner
                .map(|o| o.to_string())
                .unwrap_or_else(|| "null".into()),
            s.id,
            s.total_us,
            json_escape(&s.stages),
        ));
    }
    line.push_str("}\n");
    line
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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
    fn json_line_carries_the_same_fields() {
        use swala_obs::{Outcome, TraceSummary};
        let (req, resp) = sample();
        // 1998-07-28 12:00:00 UTC.
        let when = UNIX_EPOCH + Duration::from_secs(901_627_200);
        let summary = TraceSummary {
            id: 0x2a,
            outcome: Outcome::Remote,
            owner: Some(3),
            total_us: 456,
            stages: "dir-lookup:1,remote-fetch:400".to_string(),
        };
        let line = format_json("10.1.2.3:51000", &req, &resp, when, Some(&summary));
        assert_eq!(
            line,
            "{\"host\":\"10.1.2.3\",\"time\":\"1998-07-28T12:00:00Z\",\
             \"method\":\"GET\",\"target\":\"/cgi-bin/adl?id=1&ms=5\",\
             \"version\":\"HTTP/1.0\",\"status\":200,\"bytes\":2048,\
             \"out\":\"remote\",\"owner\":3,\"trace\":\"000000000000002a\",\
             \"total_us\":456,\"stages\":\"dir-lookup:1,remote-fetch:400\"}\n"
        );
        // Without a summary, the telemetry keys are absent entirely.
        let bare = format_json("h:1", &req, &resp, when, None);
        assert!(bare.ends_with("\"status\":200,\"bytes\":2048}\n"), "{bare}");
        assert!(!bare.contains("\"trace\""), "{bare}");
    }

    #[test]
    fn json_escapes_exotic_targets() {
        let req = Request::get("/cgi-bin/q?s=%22x%5C").unwrap();
        let resp = Response::ok("text/html", b"y".to_vec());
        let line = format_json("h:1", &req, &resp, UNIX_EPOCH, None);
        // The raw (decoded) target may hold quotes/backslashes; whatever
        // the key string is, the line must stay one valid JSON object.
        assert_eq!(line.matches('{').count(), 1, "{line}");
        assert!(line.ends_with("}\n"), "{line}");
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn json_log_file_roundtrips() {
        let path = std::env::temp_dir().join(format!("swala-json-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open_with(&path, LogFormat::Json).unwrap();
        assert_eq!(log.format(), LogFormat::Json);
        let (req, resp) = sample();
        log.log("1.2.3.4:9", &req, &resp);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"host\":\"1.2.3.4\""), "{text}");
        assert!(text.ends_with("}\n"));
        let _ = std::fs::remove_file(path);
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
