//! # swala-workload
//!
//! Workload substrate for the Swala reproduction:
//!
//! * [`trace`] — the request-trace model shared by the analyzer, the
//!   simulator and the live load generators;
//! * [`zipf`] — deterministic Zipf sampling (Web request popularity is
//!   famously Zipf-like, which is what makes result caching pay off);
//! * [`adl`] — a synthesizer calibrated to §3's Alexandria Digital
//!   Library access-log statistics (69,337 requests, 41.3 % CGI, 0.03 s
//!   vs 1.6 s mean service times, 97 % of time in CGI);
//! * [`analysis`] — the Table 1 computation (potential time saved by
//!   caching, per execution-time threshold);
//! * [`section53`] — the fixed 1600-request / 1122-unique trace §5.3's
//!   hit-ratio experiments (Tables 5–6) replay;
//! * [`webstone`] — the paper's WebStone file mix and a multi-threaded
//!   load generator measuring mean response time.

pub mod adl;
pub mod analysis;
pub mod hetero;
pub mod logfile;
pub mod section53;
pub mod trace;
pub mod webstone;
pub mod zipf;

pub use adl::{synthesize_adl_trace, AdlTraceConfig};
pub use analysis::{analyze_thresholds, ThresholdRow};
pub use hetero::{heterogeneous_trace, HeteroConfig};
pub use logfile::{filter_for_replay, parse_clf, replay_and_time, ClfRecord};
pub use section53::{section53_trace, SECTION53_TOTAL, SECTION53_UNIQUE};
pub use trace::{RequestKind, Trace, TraceRequest};
pub use webstone::{materialize_docroot, FileMix, LoadGenerator, LoadReport};
pub use zipf::Zipf;
