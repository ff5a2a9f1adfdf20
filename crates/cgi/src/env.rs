//! CGI/1.1 meta-variable construction.
//!
//! When Swala forks a real process ([`crate::ProcessProgram`]) it passes
//! the request context through environment variables, per the CGI/1.1
//! convention NCSA HTTPd established and the paper's server implements.

use crate::program::CgiRequest;

/// Software identification passed as `SERVER_SOFTWARE`.
pub const SERVER_SOFTWARE: &str = "Swala/0.1 (rust reproduction)";

/// Build the CGI/1.1 environment for a request.
///
/// Returns `(name, value)` pairs suitable for `Command::envs`. The set
/// covers every variable the paper-era servers provided that our request
/// model can populate.
pub fn build_env(req: &CgiRequest) -> Vec<(String, String)> {
    let mut env = vec![
        ("GATEWAY_INTERFACE".to_string(), "CGI/1.1".to_string()),
        ("SERVER_SOFTWARE".to_string(), SERVER_SOFTWARE.to_string()),
        ("SERVER_PROTOCOL".to_string(), "HTTP/1.0".to_string()),
        (
            "REQUEST_METHOD".to_string(),
            req.method.as_str().to_string(),
        ),
        ("SCRIPT_NAME".to_string(), req.script_name.to_string()),
        ("QUERY_STRING".to_string(), req.query_string.to_string()),
        ("SERVER_NAME".to_string(), req.server_name.to_string()),
        ("SERVER_PORT".to_string(), req.server_port.to_string()),
    ];
    // REMOTE_ADDR without the port, as CGI specifies.
    let addr = req
        .remote_addr
        .rsplit_once(':')
        .map(|(h, _)| h)
        .unwrap_or(req.remote_addr);
    env.push(("REMOTE_ADDR".to_string(), addr.to_string()));
    if !req.body.is_empty() {
        env.push(("CONTENT_LENGTH".to_string(), req.body.len().to_string()));
        env.push((
            "CONTENT_TYPE".to_string(),
            "application/x-www-form-urlencoded".to_string(),
        ));
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_http::{Method, Request};

    /// The environment of a GET for `target`.
    fn env_of(target: &str) -> Vec<(String, String)> {
        let req = Request::get(target).unwrap();
        build_env(&CgiRequest::from_http(
            &req,
            "10.0.0.7:51234",
            "node3",
            8083,
        ))
    }

    fn lookup<'a>(env: &'a [(String, String)], k: &str) -> Option<&'a str> {
        env.iter().find(|(n, _)| n == k).map(|(_, v)| v.as_str())
    }

    #[test]
    fn core_variables_present() {
        let env = env_of("/cgi-bin/map?layer=3");
        assert_eq!(lookup(&env, "GATEWAY_INTERFACE"), Some("CGI/1.1"));
        assert_eq!(lookup(&env, "REQUEST_METHOD"), Some("GET"));
        assert_eq!(lookup(&env, "SCRIPT_NAME"), Some("/cgi-bin/map"));
        assert_eq!(lookup(&env, "QUERY_STRING"), Some("layer=3"));
        assert_eq!(lookup(&env, "SERVER_NAME"), Some("node3"));
        assert_eq!(lookup(&env, "SERVER_PORT"), Some("8083"));
        assert_eq!(lookup(&env, "REMOTE_ADDR"), Some("10.0.0.7"));
    }

    #[test]
    fn content_length_only_with_body() {
        let env = env_of("/cgi-bin/x");
        assert_eq!(lookup(&env, "CONTENT_LENGTH"), None);

        let mut req = Request::new(Method::Post, "/cgi-bin/x").unwrap();
        req.body = b"a=1&b=2".to_vec();
        let c = CgiRequest::from_http(&req, "1.2.3.4:5", "n", 80);
        let env = build_env(&c);
        assert_eq!(lookup(&env, "CONTENT_LENGTH"), Some("7"));
        assert!(lookup(&env, "CONTENT_TYPE").is_some());
    }

    #[test]
    fn empty_query_is_empty_var() {
        let env = env_of("/cgi-bin/x");
        assert_eq!(lookup(&env, "QUERY_STRING"), Some(""));
    }
}
