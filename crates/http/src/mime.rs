//! File-extension → MIME-type mapping.
//!
//! Covers the types appearing in the WebStone mix and the ADL-style
//! workloads (HTML pages, images, map tiles, archives).

/// Content type for a lowercase file extension; `None` for unknown.
pub fn from_extension(ext: &str) -> Option<&'static str> {
    Some(match ext {
        "html" | "htm" => "text/html",
        "txt" => "text/plain",
        "css" => "text/css",
        "js" => "application/javascript",
        "gif" => "image/gif",
        "jpg" | "jpeg" => "image/jpeg",
        "png" => "image/png",
        "tif" | "tiff" => "image/tiff",
        "pdf" => "application/pdf",
        "ps" => "application/postscript",
        "zip" => "application/zip",
        "gz" => "application/gzip",
        "tar" => "application/x-tar",
        "bin" | "exe" => "application/octet-stream",
        "xml" => "text/xml",
        _ => return None,
    })
}

/// `content_type` as a `'static` string when it is one of the types
/// above (or `application/octet-stream`), so a response can hold it
/// without copying.
pub(crate) fn interned(content_type: &str) -> Option<&'static str> {
    Some(match content_type {
        "text/html" => "text/html",
        "text/plain" => "text/plain",
        "text/css" => "text/css",
        "text/xml" => "text/xml",
        "application/javascript" => "application/javascript",
        "application/octet-stream" => "application/octet-stream",
        "application/pdf" => "application/pdf",
        "application/postscript" => "application/postscript",
        "application/zip" => "application/zip",
        "application/gzip" => "application/gzip",
        "application/x-tar" => "application/x-tar",
        "image/gif" => "image/gif",
        "image/jpeg" => "image/jpeg",
        "image/png" => "image/png",
        "image/tiff" => "image/tiff",
        _ => return None,
    })
}

/// Content type for a path, defaulting to `application/octet-stream`.
pub fn for_path(path: &str) -> &'static str {
    path.rsplit('/')
        .next()
        .and_then(|file| file.rfind('.').map(|i| &file[i + 1..]))
        .map(|e| e.to_ascii_lowercase())
        .and_then(|e| from_extension(&e))
        .unwrap_or("application/octet-stream")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_extensions() {
        assert_eq!(from_extension("html"), Some("text/html"));
        assert_eq!(from_extension("gif"), Some("image/gif"));
        assert_eq!(from_extension("jpeg"), Some("image/jpeg"));
        assert_eq!(from_extension("weird"), None);
    }

    #[test]
    fn every_known_type_is_interned() {
        for ext in [
            "html", "txt", "css", "js", "gif", "jpg", "png", "tif", "pdf", "ps", "zip", "gz",
            "tar", "bin", "xml",
        ] {
            let ct = from_extension(ext).unwrap();
            assert_eq!(interned(ct), Some(ct));
        }
        assert_eq!(interned("text/html; charset=utf-8"), None);
    }

    #[test]
    fn path_resolution() {
        assert_eq!(for_path("/a/b/index.html"), "text/html");
        assert_eq!(for_path("/a/IMG.JPG"), "image/jpeg");
        assert_eq!(for_path("/a/noext"), "application/octet-stream");
        assert_eq!(for_path("/dir.d/file"), "application/octet-stream");
        assert_eq!(for_path("/a/archive.tar.gz"), "application/gzip");
    }
}
