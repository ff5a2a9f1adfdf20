//! CGI invocation with a real process-spawn cost.

use std::io;
use std::sync::Arc;
use swala_cgi::{CgiOutput, CgiRequest, Program};

/// Pay a real `fork`+`exec` by spawning a no-op process.
///
/// `true(1)` is universally available and does nothing, so the measured
/// cost is exactly the OS call mechanism the paper attributes CGI
/// overhead to.
pub fn pay_fork_exec_cost() -> io::Result<()> {
    let status = std::process::Command::new("true")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()?;
    if status.success() {
        Ok(())
    } else {
        Err(io::Error::other("no-op child failed"))
    }
}

/// A [`Program`] wrapper that charges the CGI call mechanism's
/// `fork`+`exec` before running the wrapped program.
///
/// All servers in the Figure 3 comparison register their programs through
/// this wrapper, so executing a CGI costs the same everywhere; serving a
/// cached result (which skips `run` entirely) is where Swala wins.
pub struct ForkedCgi {
    inner: Arc<dyn Program>,
}

impl ForkedCgi {
    pub fn new(inner: Arc<dyn Program>) -> Self {
        ForkedCgi { inner }
    }

    /// Convenience: wrap into an `Arc<dyn Program>` for registration.
    pub fn wrap(inner: Arc<dyn Program>) -> Arc<dyn Program> {
        Arc::new(ForkedCgi::new(inner))
    }
}

impl Program for ForkedCgi {
    fn run(&self, req: &CgiRequest) -> io::Result<CgiOutput> {
        pay_fork_exec_cost()?;
        self.inner.run(req)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use swala_cgi::null_cgi;
    use swala_http::Request;

    /// `program` run on a GET for `target`.
    fn run(program: &dyn Program, target: &str) -> io::Result<CgiOutput> {
        let req = Request::get(target).unwrap();
        program.run(&CgiRequest::from_http(&req, "c:1", "n", 80))
    }

    #[test]
    fn fork_cost_is_real_but_bounded() {
        let t0 = Instant::now();
        pay_fork_exec_cost().unwrap();
        let cost = t0.elapsed();
        assert!(cost > Duration::ZERO);
        assert!(cost < Duration::from_secs(1), "spawning true took {cost:?}");
    }

    #[test]
    fn wrapper_preserves_output_and_name() {
        let plain = null_cgi();
        let expected = run(&plain, "/cgi-bin/nullcgi").unwrap();
        let wrapped = ForkedCgi::wrap(Arc::new(null_cgi()));
        assert_eq!(wrapped.name(), "nullcgi");
        let out = run(wrapped.as_ref(), "/cgi-bin/nullcgi").unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn wrapped_execution_costs_more_than_bare() {
        let bare = Arc::new(null_cgi());
        let wrapped = ForkedCgi::wrap(Arc::clone(&bare) as Arc<dyn Program>);
        let req = Request::get("/cgi-bin/nullcgi").unwrap();
        let req = CgiRequest::from_http(&req, "c:1", "n", 80);
        // Warm both paths once.
        bare.run(&req).unwrap();
        wrapped.run(&req).unwrap();
        let n = 20;
        let t0 = Instant::now();
        for _ in 0..n {
            bare.run(&req).unwrap();
        }
        let bare_time = t0.elapsed();
        let t1 = Instant::now();
        for _ in 0..n {
            wrapped.run(&req).unwrap();
        }
        let wrapped_time = t1.elapsed();
        assert!(
            wrapped_time > bare_time,
            "fork cost invisible: bare {bare_time:?} vs wrapped {wrapped_time:?}"
        );
    }
}
