//! URL → program resolution.

use crate::program::Program;
use std::collections::HashMap;
use std::sync::Arc;

/// Maps script paths to [`Program`] implementations.
///
/// Resolution follows the NCSA convention: any path under a registered
/// prefix (default `/cgi-bin/`) is dynamic; the first segment after the
/// prefix names the program. `/cgi-bin/map/extra?x=1` resolves program
/// `map` (extra path info is part of the cache key but not of program
/// lookup).
pub struct ProgramRegistry {
    prefix: String,
    programs: HashMap<String, Arc<dyn Program>>,
}

impl ProgramRegistry {
    /// Empty registry with the conventional `/cgi-bin/` prefix.
    pub fn new() -> Self {
        Self::with_prefix("/cgi-bin/")
    }

    /// Empty registry with a custom dynamic-content prefix.
    ///
    /// The prefix must begin and end with `/`.
    pub fn with_prefix(prefix: &str) -> Self {
        assert!(
            prefix.starts_with('/') && prefix.ends_with('/'),
            "prefix must start and end with '/'"
        );
        ProgramRegistry {
            prefix: prefix.to_string(),
            programs: HashMap::new(),
        }
    }

    /// The dynamic-content prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Register a program under its [`Program::name`].
    pub fn register(&mut self, program: Arc<dyn Program>) {
        self.programs.insert(program.name().to_string(), program);
    }

    /// Number of registered programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no programs are registered.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// Whether `path` falls under the dynamic prefix at all.
    pub fn is_dynamic(&self, path: &str) -> bool {
        path.starts_with(&self.prefix)
    }

    /// Resolve the program for `path`.
    ///
    /// * `None` if the path is not under the dynamic prefix (static file).
    /// * `Some(None)` if it is dynamic but no such program exists (404).
    /// * `Some(Some(p))` on success.
    ///
    /// The program is lent, not cloned: a request does not touch the
    /// reference count every other request shares.
    pub fn resolve(&self, path: &str) -> Option<Option<&Arc<dyn Program>>> {
        let rest = path.strip_prefix(&self.prefix)?;
        let name = rest.split('/').next().unwrap_or("");
        if name.is_empty() {
            return Some(None);
        }
        Some(self.programs.get(name))
    }
}

impl Default for ProgramRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::{null_cgi, SimulatedProgram, WorkKind};

    fn registry() -> ProgramRegistry {
        let mut r = ProgramRegistry::new();
        r.register(Arc::new(null_cgi()));
        r.register(Arc::new(SimulatedProgram::trace_driven(
            "adl",
            WorkKind::Spin,
        )));
        r
    }

    #[test]
    fn static_paths_are_not_dynamic() {
        let r = registry();
        assert!(!r.is_dynamic("/index.html"));
        assert!(r.resolve("/index.html").is_none());
        assert!(r.resolve("/cgi-binx/adl").is_none());
    }

    #[test]
    fn resolves_registered_programs() {
        let r = registry();
        let p = r.resolve("/cgi-bin/nullcgi").unwrap().unwrap();
        assert_eq!(p.name(), "nullcgi");
        let p = r.resolve("/cgi-bin/adl").unwrap().unwrap();
        assert_eq!(p.name(), "adl");
    }

    #[test]
    fn unknown_program_is_some_none() {
        let r = registry();
        assert!(r.resolve("/cgi-bin/ghost").unwrap().is_none());
        assert!(r.resolve("/cgi-bin/").unwrap().is_none());
    }

    #[test]
    fn extra_path_info_ignored_for_lookup() {
        let r = registry();
        let p = r.resolve("/cgi-bin/adl/extra/info").unwrap().unwrap();
        assert_eq!(p.name(), "adl");
    }

    #[test]
    fn custom_prefix() {
        let mut r = ProgramRegistry::with_prefix("/dyn/");
        r.register(Arc::new(null_cgi()));
        assert!(r.is_dynamic("/dyn/nullcgi"));
        assert!(!r.is_dynamic("/cgi-bin/nullcgi"));
        assert!(r.resolve("/dyn/nullcgi").unwrap().is_some());
    }

    #[test]
    #[should_panic(expected = "prefix must")]
    fn bad_prefix_panics() {
        ProgramRegistry::with_prefix("no-slashes");
    }

    #[test]
    fn len_and_register_overwrite() {
        let mut r = registry();
        assert_eq!(r.len(), 2);
        r.register(Arc::new(null_cgi()));
        assert_eq!(r.len(), 2, "same-name registration replaces");
        assert!(!r.is_empty());
    }
}
