//! # swala-http
//!
//! A from-scratch HTTP/1.0 (plus the minimal HTTP/1.1 surface the Swala
//! evaluation needs) implementation: request parsing, URI and query-string
//! handling, header maps, response serialization, MIME-type inference and
//! HTTP-date formatting.
//!
//! The Swala paper (Holmedahl, Smith & Yang, HPDC 1998) describes a
//! multi-threaded Web server whose request threads "take turns listening on
//! the main port for incoming connections" and own a request "from parsing
//! to completion". This crate provides exactly that parsing/serialization
//! layer; the thread pool and the caching control flow live in the `swala`
//! crate.
//!
//! ## Scope
//!
//! * Request line + headers + optional body (`Content-Length` framing),
//!   parsed in place: a request borrows the bytes it was read into.
//! * Percent-decoding and query-string parsing (CGI requests are keyed by
//!   their full path + query, so this must be exact and canonical).
//! * Response writing with status lines, headers and bodies.
//! * `Connection: keep-alive` / `close` semantics for both 1.0 and 1.1.
//!
//! Chunked transfer encoding is intentionally out of scope: the paper
//! pre-dates widespread HTTP/1.1 deployment and every Swala response is
//! either a file or a completed CGI result with a known length. A request
//! with any `Transfer-Encoding` is refused (501), as is one whose
//! `Content-Length` values disagree (400), rather than mis-framed.

pub mod body;
pub mod date;
pub mod error;
pub mod headers;
pub mod method;
pub mod mime;
pub mod request;
pub mod response;
pub mod status;
pub mod uri;
pub mod version;

pub use body::Body;
pub use error::{HttpError, Result};
pub use headers::HeaderMap;
pub use method::Method;
pub use request::{read_request, try_parse_request, ParseStatus, Request};
pub use response::Response;
pub use status::StatusCode;
pub use uri::{decode_percent, RequestTarget, Text};
pub use version::Version;

/// Maximum accepted request-line length in bytes.
///
/// Generous compared to 1998-era servers (NCSA used 8 KiB buffers) but
/// bounded so a misbehaving client cannot force unbounded allocation.
pub const MAX_REQUEST_LINE: usize = 16 * 1024;

/// Maximum accepted size of a single header line in bytes.
pub const MAX_HEADER_LINE: usize = 16 * 1024;

/// Maximum number of header lines accepted in one request.
pub const MAX_HEADERS: usize = 128;

/// Maximum request body this server will buffer (CGI POST bodies).
pub const MAX_BODY: usize = 8 * 1024 * 1024;
