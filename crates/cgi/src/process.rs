//! Real-process CGI execution.
//!
//! The paper stresses that "for call mechanisms such as CGI, the operating
//! system overhead for this call is significant" (§2) — fork+exec is the
//! very cost result caching avoids. `ProcessProgram` pays that cost for
//! real: it spawns an executable with a CGI/1.1 environment, writes the
//! request body to its stdin, and parses the CGI header block from stdout.

use crate::env::build_env;
use crate::output::CgiOutput;
use crate::program::{CgiRequest, Program};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A CGI program backed by an on-disk executable.
pub struct ProcessProgram {
    name: String,
    executable: PathBuf,
    /// Extra fixed argv entries passed before CGI conventions.
    args: Vec<String>,
}

impl ProcessProgram {
    /// Program that runs `executable` per request.
    pub fn new(name: &str, executable: impl Into<PathBuf>) -> Self {
        ProcessProgram {
            name: name.to_string(),
            executable: executable.into(),
            args: Vec::new(),
        }
    }

    /// Add a fixed command-line argument.
    pub fn arg(mut self, a: &str) -> Self {
        self.args.push(a.to_string());
        self
    }
}

impl Program for ProcessProgram {
    fn run(&self, req: &CgiRequest) -> io::Result<CgiOutput> {
        let mut cmd = Command::new(&self.executable);
        cmd.args(&self.args)
            .env_clear()
            .envs(build_env(req))
            .stdin(if req.body.is_empty() {
                Stdio::null()
            } else {
                Stdio::piped()
            })
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn()?;
        if !req.body.is_empty() {
            // Write the POST body; the child may exit early, which is fine.
            if let Some(mut stdin) = child.stdin.take() {
                let _ = stdin.write_all(req.body);
            }
        }
        let out = child.wait_with_output()?;
        if !out.status.success() {
            return Err(io::Error::other(format!(
                "CGI process {} exited with {}",
                self.name, out.status
            )));
        }
        CgiOutput::parse(&out.stdout).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("CGI process {} produced no header block", self.name),
            )
        })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swala_http::{Method, Request};

    /// `program` run on a GET for `target`.
    fn run(program: &dyn Program, target: &str) -> io::Result<CgiOutput> {
        let req = Request::get(target).unwrap();
        program.run(&CgiRequest::from_http(&req, "9.8.7.6:1", "n", 80))
    }

    /// Write a tiny shell script and make it executable.
    fn script(dir: &std::path::Path, name: &str, body: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("swala-cgi-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn runs_shell_script_with_env() {
        let dir = tmpdir("env");
        let exe = script(
            &dir,
            "echo-env.sh",
            "#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\nq=%s m=%s' \"$QUERY_STRING\" \"$REQUEST_METHOD\"\n",
        );
        let p = ProcessProgram::new("echo-env", exe);
        let out = run(&p, "/cgi-bin/echo-env?a=1").unwrap();
        assert_eq!(out.content_type, "text/plain");
        assert_eq!(out.body, b"q=a=1 m=GET");
    }

    #[test]
    fn reads_post_body_from_stdin() {
        let dir = tmpdir("stdin");
        let exe = script(
            &dir,
            "cat-body.sh",
            "#!/bin/sh\nprintf 'Content-Type: text/plain\\n\\n'\ncat\n",
        );
        let mut req = Request::new(Method::Post, "/cgi-bin/cat").unwrap();
        req.body = b"posted-data".to_vec();
        let c = CgiRequest::from_http(&req, "1:1", "n", 80);
        let out = ProcessProgram::new("cat", exe).run(&c).unwrap();
        assert_eq!(out.body, b"posted-data");
    }

    #[test]
    fn nonzero_exit_is_error() {
        let dir = tmpdir("fail");
        let exe = script(&dir, "fail.sh", "#!/bin/sh\nexit 3\n");
        assert!(run(&ProcessProgram::new("fail", exe), "/cgi-bin/f").is_err());
    }

    #[test]
    fn missing_header_block_is_error() {
        let dir = tmpdir("nohead");
        let exe = script(
            &dir,
            "nohead.sh",
            "#!/bin/sh\necho 'just text, no headers'\n",
        );
        let err = run(&ProcessProgram::new("nohead", exe), "/cgi-bin/n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn missing_executable_is_error() {
        let p = ProcessProgram::new("ghost", "/nonexistent/path/to/cgi");
        assert!(run(&p, "/cgi-bin/g").is_err());
    }

    #[test]
    fn status_header_propagates() {
        let dir = tmpdir("status");
        let exe = script(
            &dir,
            "notfound.sh",
            "#!/bin/sh\nprintf 'Content-Type: text/html\\nStatus: 404 Not Found\\n\\nmissing'\n",
        );
        let out = run(&ProcessProgram::new("nf", exe), "/cgi-bin/nf").unwrap();
        assert_eq!(out.status, swala_http::StatusCode::NOT_FOUND);
    }
}
