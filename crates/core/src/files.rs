//! Static-file serving.
//!
//! The paper deliberately does *not* cache files (§4.1: file fetches are
//! network-bound, best cached at proxies near clients) — Swala just
//! serves them from the document root, relying on the operating system's
//! file-system cache to keep hot files in memory. We read through
//! `std::fs`, which on Linux goes through the page cache; the paper's
//! memory-mapped I/O is a non-allowed-dependency away and behaviourally
//! equivalent at these scales (see DESIGN.md substitutions).
//!
//! Conditional GET (`If-Modified-Since` → `304 Not Modified`) is
//! supported: it is how 1998 proxies validated files cached near the
//! client, the other half of the paper's caching story.

use std::path::{Path, PathBuf};
use std::time::UNIX_EPOCH;
use swala_http::date::{parse_rfc1123, UtcDateTime};
use swala_http::{mime, Response, StatusCode};

/// Resolve a normalized request path against `docroot` and build the
/// response, honoring `If-Modified-Since` when present.
///
/// The path comes from `RequestTarget::parse`, which has already rejected
/// `..` escapes; this function still defends in depth by refusing any
/// resolved path that leaves the root (symlinks inside the root are the
/// administrator's own policy, as in the 1998 servers).
pub fn serve_file_conditional(
    docroot: &Path,
    request_path: &str,
    if_modified_since: Option<&str>,
) -> Response {
    debug_assert!(request_path.starts_with('/'));
    let relative = request_path.trim_start_matches('/');
    // Defense in depth: the parser never emits these, but never trust it.
    if relative.split('/').any(|seg| seg == "..") {
        return Response::error(StatusCode::FORBIDDEN);
    }
    let mut full: PathBuf = docroot.join(relative);
    if request_path.ends_with('/') || relative.is_empty() {
        full = full.join("index.html");
    }

    let mtime_unix = std::fs::metadata(&full)
        .ok()
        .filter(|m| m.is_file())
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map(|d| d.as_secs());

    // Conditional GET: unchanged since the client's copy → 304.
    if let (Some(mtime), Some(ims)) = (mtime_unix, if_modified_since.and_then(parse_rfc1123)) {
        if mtime <= ims {
            let mut resp = Response::error(StatusCode::NOT_MODIFIED);
            resp.body.clear();
            resp.headers.set(
                "Last-Modified",
                UtcDateTime::from_unix_seconds(mtime as i64).to_rfc1123(),
            );
            return resp;
        }
    }

    match std::fs::read(&full) {
        Ok(body) => {
            let ctype = mime::for_path(&full.to_string_lossy());
            let mut resp = Response::ok(ctype, body);
            if let Some(mtime) = mtime_unix {
                resp.headers.set(
                    "Last-Modified",
                    UtcDateTime::from_unix_seconds(mtime as i64).to_rfc1123(),
                );
            }
            resp
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Response::error(StatusCode::NOT_FOUND)
        }
        Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => {
            Response::error(StatusCode::FORBIDDEN)
        }
        // Directory without trailing slash and other oddities.
        Err(_) => Response::error(StatusCode::NOT_FOUND),
    }
}

/// Unconditional file serving (no validator header).
pub fn serve_file(docroot: &Path, request_path: &str) -> Response {
    serve_file_conditional(docroot, request_path, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn docroot(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("swala-files-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(d.join("sub")).unwrap();
        fs::write(d.join("index.html"), "<h1>root index</h1>").unwrap();
        fs::write(d.join("page.html"), "<p>page</p>").unwrap();
        fs::write(d.join("image.gif"), b"GIF89a...").unwrap();
        fs::write(d.join("sub/index.html"), "<h1>sub index</h1>").unwrap();
        fs::write(d.join("sub/data.bin"), [0u8, 1, 2]).unwrap();
        d
    }

    #[test]
    fn serves_files_with_mime() {
        let root = docroot("mime");
        let r = serve_file(&root, "/page.html");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.headers.get("Content-Type"), Some("text/html"));
        assert_eq!(r.body, b"<p>page</p>");
        assert!(r.headers.get("Last-Modified").unwrap().ends_with("GMT"));

        let r = serve_file(&root, "/image.gif");
        assert_eq!(r.headers.get("Content-Type"), Some("image/gif"));

        let r = serve_file(&root, "/sub/data.bin");
        assert_eq!(
            r.headers.get("Content-Type"),
            Some("application/octet-stream")
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn directory_requests_get_index() {
        let root = docroot("index");
        assert_eq!(serve_file(&root, "/").body, b"<h1>root index</h1>");
        assert_eq!(serve_file(&root, "/sub/").body, b"<h1>sub index</h1>");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn missing_file_is_404() {
        let root = docroot("missing");
        assert_eq!(
            serve_file(&root, "/ghost.html").status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(
            serve_file(&root, "/no/such/dir/").status,
            StatusCode::NOT_FOUND
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn traversal_defense_in_depth() {
        let root = docroot("traversal");
        // The HTTP parser would never produce this, but serve_file must
        // still refuse it.
        assert_eq!(
            serve_file(&root, "/../etc/passwd").status,
            StatusCode::FORBIDDEN
        );
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn directory_without_slash_is_404_not_panic() {
        let root = docroot("noslash");
        let r = serve_file(&root, "/sub");
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn conditional_get_304_when_unchanged() {
        let root = docroot("cond");
        // Validator from the future: the file is definitely older.
        let future = "Fri, 01 Jan 2100 00:00:00 GMT";
        let r = serve_file_conditional(&root, "/page.html", Some(future));
        assert_eq!(r.status, StatusCode::NOT_MODIFIED);
        assert!(r.body.is_empty(), "304 carries no body");
        assert!(r.headers.contains("Last-Modified"));
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn conditional_get_full_body_when_changed() {
        let root = docroot("cond2");
        // Validator far in the past: the file is newer.
        let past = "Thu, 01 Jan 1970 00:00:00 GMT";
        let r = serve_file_conditional(&root, "/page.html", Some(past));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body, b"<p>page</p>");
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn garbage_validator_ignored() {
        let root = docroot("cond3");
        let r = serve_file_conditional(&root, "/page.html", Some("not-a-date"));
        assert_eq!(r.status, StatusCode::OK);
        let _ = fs::remove_dir_all(root);
    }

    #[test]
    fn conditional_on_missing_file_is_404() {
        let root = docroot("cond4");
        let future = "Fri, 01 Jan 2100 00:00:00 GMT";
        let r = serve_file_conditional(&root, "/ghost.html", Some(future));
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        let _ = fs::remove_dir_all(root);
    }
}
