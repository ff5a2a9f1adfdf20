//! Server construction helpers shared by the experiments.

use std::sync::Arc;
use swala_baseline::ForkedCgi;
use swala_cgi::{null_cgi, ProgramRegistry, SimulatedProgram, WorkKind};

/// Registry used by the §5.1 comparisons: the paper's `nullcgi` plus the
/// trace-driven `adl` program, each behind a real `fork`+`exec` (the CGI
/// call mechanism every compared server paid in 1998).
pub fn forked_registry() -> ProgramRegistry {
    let mut r = ProgramRegistry::new();
    r.register(ForkedCgi::wrap(Arc::new(null_cgi())));
    r.register(ForkedCgi::wrap(Arc::new(SimulatedProgram::trace_driven(
        "adl",
        WorkKind::Sleep,
    ))));
    r
}
