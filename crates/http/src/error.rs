//! Error type shared by the HTTP substrate.

use std::fmt;
use std::io;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, HttpError>;

/// Errors produced while reading, parsing or writing HTTP messages.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying socket/file I/O failed.
    Io(io::Error),
    /// The request line was malformed (wrong token count, bad version...).
    BadRequestLine(String),
    /// An unknown or unsupported HTTP method token.
    BadMethod(String),
    /// The HTTP version token was not `HTTP/1.0` or `HTTP/1.1`.
    BadVersion(String),
    /// A header line was malformed (missing `:`, illegal characters...).
    BadHeader(String),
    /// The request target (URI) was malformed.
    BadTarget(String),
    /// A size limit (`MAX_REQUEST_LINE`, `MAX_HEADERS`, `MAX_BODY`...) was hit.
    TooLarge(&'static str),
    /// The peer closed the connection before a full request was read.
    ///
    /// `clean` is true when zero bytes had been read, i.e. the client simply
    /// closed an idle keep-alive connection — not an error worth logging.
    ConnectionClosed { clean: bool },
    /// `Content-Length` was present but unparsable or contradictory.
    BadContentLength(String),
    /// The request uses a feature this server does not implement (a
    /// `Transfer-Encoding`).
    Unsupported(&'static str),
}

impl HttpError {
    /// True when the error represents a clean EOF on an idle connection.
    pub fn is_clean_close(&self) -> bool {
        matches!(self, HttpError::ConnectionClosed { clean: true })
    }

    /// Status code a server should answer with for this parse error.
    ///
    /// I/O errors and closed connections return `None`: there is nobody to
    /// answer.
    pub fn response_status(&self) -> Option<crate::StatusCode> {
        use crate::StatusCode;
        match self {
            HttpError::Io(_) | HttpError::ConnectionClosed { .. } => None,
            HttpError::TooLarge(_) => Some(StatusCode::PAYLOAD_TOO_LARGE),
            HttpError::BadMethod(_) | HttpError::Unsupported(_) => {
                Some(StatusCode::NOT_IMPLEMENTED)
            }
            HttpError::BadVersion(_) => Some(StatusCode::VERSION_NOT_SUPPORTED),
            _ => Some(StatusCode::BAD_REQUEST),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::BadRequestLine(l) => write!(f, "malformed request line: {l:?}"),
            HttpError::BadMethod(m) => write!(f, "unsupported method: {m:?}"),
            HttpError::BadVersion(v) => write!(f, "unsupported HTTP version: {v:?}"),
            HttpError::BadHeader(h) => write!(f, "malformed header: {h:?}"),
            HttpError::BadTarget(t) => write!(f, "malformed request target: {t:?}"),
            HttpError::TooLarge(what) => write!(f, "{what} exceeds configured limit"),
            HttpError::ConnectionClosed { clean } => {
                write!(
                    f,
                    "connection closed ({})",
                    if *clean { "idle" } else { "mid-request" }
                )
            }
            HttpError::BadContentLength(v) => write!(f, "bad Content-Length: {v:?}"),
            HttpError::Unsupported(what) => write!(f, "unsupported {what}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            HttpError::ConnectionClosed { clean: false }
        } else {
            HttpError::Io(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatusCode;

    #[test]
    fn clean_close_detection() {
        assert!(HttpError::ConnectionClosed { clean: true }.is_clean_close());
        assert!(!HttpError::ConnectionClosed { clean: false }.is_clean_close());
        assert!(!HttpError::BadHeader("x".into()).is_clean_close());
    }

    #[test]
    fn response_status_mapping() {
        assert_eq!(
            HttpError::BadRequestLine("x".into()).response_status(),
            Some(StatusCode::BAD_REQUEST)
        );
        assert_eq!(
            HttpError::BadMethod("BREW".into()).response_status(),
            Some(StatusCode::NOT_IMPLEMENTED)
        );
        assert_eq!(
            HttpError::BadVersion("HTTP/3".into()).response_status(),
            Some(StatusCode::VERSION_NOT_SUPPORTED)
        );
        assert_eq!(
            HttpError::TooLarge("body").response_status(),
            Some(StatusCode::PAYLOAD_TOO_LARGE)
        );
        assert_eq!(
            HttpError::ConnectionClosed { clean: true }.response_status(),
            None
        );
        assert!(HttpError::Io(io::Error::other("x"))
            .response_status()
            .is_none());
    }

    #[test]
    fn io_eof_becomes_unclean_close() {
        let e: HttpError = io::Error::new(io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(matches!(e, HttpError::ConnectionClosed { clean: false }));
    }

    #[test]
    fn display_is_informative() {
        let s = HttpError::BadHeader("Foo".into()).to_string();
        assert!(s.contains("Foo"));
        let s = HttpError::TooLarge("request line").to_string();
        assert!(s.contains("request line"));
    }
}
