//! Cacheability rules — the administrator's configuration surface.
//!
//! §4.1: "Not all CGI requests can or should be cached... Swala uses a
//! configuration file, loaded at startup, to provide the system
//! administrator with a flexible way to control which requests are
//! cache-able."
//!
//! The format is deliberately 1998-plain — one rule per line, first match
//! wins, `#` comments:
//!
//! ```text
//! # pattern            directives
//! nocache /cgi-bin/private/*
//! cache   /cgi-bin/adl*      ttl=300  min_ms=50
//! cache   /cgi-bin/*         min_ms=1000
//! ```
//!
//! * `pattern` is a path-prefix glob: a trailing `*` matches any suffix;
//!   without `*` the match is exact.
//! * `ttl=SECONDS` sets the entry's time-to-live (default: no expiry).
//! * `min_ms=MILLIS` is the paper's execution-time threshold (§3, Table 1
//!   and Figure 2's "execution time is longer than a runtime-defined
//!   limit"): faster results are not worth caching.

use std::time::Duration;

/// Verdict for a request path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheDecision {
    /// Never cache (matched a `nocache` rule or no rule at all).
    Uncacheable,
    /// Cacheable if execution takes at least `min_exec`; lives for `ttl`.
    Cacheable {
        ttl: Option<Duration>,
        min_exec: Duration,
    },
}

impl CacheDecision {
    /// Whether a result with the given execution time should be inserted.
    pub fn should_insert(&self, exec: Duration) -> bool {
        match self {
            CacheDecision::Uncacheable => false,
            CacheDecision::Cacheable { min_exec, .. } => exec >= *min_exec,
        }
    }
}

/// One configuration line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    pub pattern: String,
    pub cacheable: bool,
    pub ttl: Option<Duration>,
    pub min_exec: Duration,
}

impl Rule {
    fn matches(&self, path: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => path.starts_with(prefix),
            None => path == self.pattern,
        }
    }
}

/// An ordered rule list; first match wins.
#[derive(Debug, Clone, Default)]
pub struct CacheRules {
    rules: Vec<Rule>,
}

impl CacheRules {
    /// No rules: everything is uncacheable (fail-safe default).
    pub fn deny_all() -> Self {
        CacheRules { rules: Vec::new() }
    }

    /// Cache every dynamic result with no threshold and no expiry —
    /// the configuration the §5.2–5.3 experiments effectively run with.
    pub fn allow_all() -> Self {
        CacheRules {
            rules: vec![Rule {
                pattern: "*".to_string(),
                cacheable: true,
                ttl: None,
                min_exec: Duration::ZERO,
            }],
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are configured.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse the configuration-file format described in the module docs.
    ///
    /// Returns `Err` with a line-numbered message on the first malformed
    /// line — a server must refuse to start on a broken config rather
    /// than silently cache the wrong things.
    pub fn parse(text: &str) -> Result<CacheRules, String> {
        let mut rules = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tokens = line.split_whitespace();
            let verb = tokens.next().unwrap();
            let cacheable = match verb {
                "cache" => true,
                "nocache" => false,
                other => return Err(format!("line {}: unknown verb {other:?}", lineno + 1)),
            };
            let pattern = tokens
                .next()
                .ok_or_else(|| format!("line {}: missing pattern", lineno + 1))?
                .to_string();
            if !pattern.starts_with('/') && pattern != "*" {
                return Err(format!(
                    "line {}: pattern must start with '/' or be '*'",
                    lineno + 1
                ));
            }
            let mut ttl = None;
            let mut min_exec = Duration::ZERO;
            for tok in tokens {
                if let Some(v) = tok.strip_prefix("ttl=") {
                    let secs: u64 = v
                        .parse()
                        .map_err(|_| format!("line {}: bad ttl {v:?}", lineno + 1))?;
                    ttl = Some(Duration::from_secs(secs));
                } else if let Some(v) = tok.strip_prefix("min_ms=") {
                    let ms: u64 = v
                        .parse()
                        .map_err(|_| format!("line {}: bad min_ms {v:?}", lineno + 1))?;
                    min_exec = Duration::from_millis(ms);
                } else {
                    return Err(format!("line {}: unknown directive {tok:?}", lineno + 1));
                }
            }
            if !cacheable && (ttl.is_some() || min_exec > Duration::ZERO) {
                return Err(format!("line {}: nocache takes no directives", lineno + 1));
            }
            rules.push(Rule {
                pattern,
                cacheable,
                ttl,
                min_exec,
            });
        }
        Ok(CacheRules { rules })
    }

    /// Decide cacheability for `path`. First matching rule wins; no match
    /// means uncacheable.
    pub fn decide(&self, path: &str) -> CacheDecision {
        for rule in &self.rules {
            if rule.matches(path) {
                return if rule.cacheable {
                    CacheDecision::Cacheable {
                        ttl: rule.ttl,
                        min_exec: rule.min_exec,
                    }
                } else {
                    CacheDecision::Uncacheable
                };
            }
        }
        CacheDecision::Uncacheable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# ADL-style configuration
nocache /cgi-bin/private/*
cache   /cgi-bin/adl*      ttl=300  min_ms=50
cache   /cgi-bin/*         min_ms=1000
";

    #[test]
    fn parse_and_first_match_wins() {
        let r = CacheRules::parse(SAMPLE).unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.decide("/cgi-bin/private/secret"),
            CacheDecision::Uncacheable
        );
        assert_eq!(
            r.decide("/cgi-bin/adl?id=1"),
            CacheDecision::Cacheable {
                ttl: Some(Duration::from_secs(300)),
                min_exec: Duration::from_millis(50),
            }
        );
        assert_eq!(
            r.decide("/cgi-bin/other"),
            CacheDecision::Cacheable {
                ttl: None,
                min_exec: Duration::from_millis(1000)
            }
        );
        assert_eq!(r.decide("/static/file.html"), CacheDecision::Uncacheable);
    }

    #[test]
    fn exact_pattern_requires_equality() {
        let r = CacheRules::parse("cache /cgi-bin/map\n").unwrap();
        assert!(matches!(
            r.decide("/cgi-bin/map"),
            CacheDecision::Cacheable { .. }
        ));
        assert_eq!(r.decide("/cgi-bin/mapx"), CacheDecision::Uncacheable);
        assert_eq!(r.decide("/cgi-bin/map/sub"), CacheDecision::Uncacheable);
    }

    #[test]
    fn star_matches_everything() {
        let r = CacheRules::parse("cache *\n").unwrap();
        assert!(matches!(
            r.decide("/anything"),
            CacheDecision::Cacheable { .. }
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let r = CacheRules::parse("\n# full comment\ncache /a # trailing\n\n").unwrap();
        assert_eq!(r.len(), 1);
        assert!(matches!(r.decide("/a"), CacheDecision::Cacheable { .. }));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(CacheRules::parse("frobnicate /x")
            .unwrap_err()
            .contains("line 1"));
        assert!(CacheRules::parse("cache")
            .unwrap_err()
            .contains("missing pattern"));
        assert!(CacheRules::parse("cache relative/x")
            .unwrap_err()
            .contains("line 1"));
        assert!(CacheRules::parse("cache /x ttl=abc")
            .unwrap_err()
            .contains("bad ttl"));
        assert!(CacheRules::parse("cache /x min_ms=--")
            .unwrap_err()
            .contains("bad min_ms"));
        assert!(CacheRules::parse("cache /x wat=1")
            .unwrap_err()
            .contains("unknown directive"));
        assert!(CacheRules::parse("nocache /x ttl=3")
            .unwrap_err()
            .contains("no directives"));
    }

    #[test]
    fn min_exec_threshold_gates_insert() {
        let d = CacheDecision::Cacheable {
            ttl: None,
            min_exec: Duration::from_millis(100),
        };
        assert!(!d.should_insert(Duration::from_millis(99)));
        assert!(d.should_insert(Duration::from_millis(100)));
        assert!(d.should_insert(Duration::from_secs(5)));
        assert!(!CacheDecision::Uncacheable.should_insert(Duration::from_secs(999)));
    }

    #[test]
    fn deny_and_allow_all() {
        assert_eq!(
            CacheRules::deny_all().decide("/x"),
            CacheDecision::Uncacheable
        );
        assert!(CacheRules::deny_all().is_empty());
        assert!(matches!(
            CacheRules::allow_all().decide("/x"),
            CacheDecision::Cacheable { ttl: None, .. }
        ));
    }
}
