//! Figure 2 as data: one request's cache flow, with no I/O.
//!
//! A [`Flow`] is told what the lookup found, then how each step went; it
//! answers with the next [`Step`] and its [`Marks`]. It holds ids,
//! classes and flags only, so a step takes no lock and allocates
//! nothing. Two callers perform the steps: the server's request handler,
//! with sockets, threads and the CGI program, and the simulator, with
//! its tables and notice queue.

use crate::{BodyTier, NodeId};
use swala_obs::Outcome;

/// The `X-Swala-Cache` response header, and its values: how the cache
/// answered a request.
pub mod class {
    pub const NAME: &str = "X-Swala-Cache";
    pub const UNCACHEABLE: &str = "uncacheable";
    pub const MISS: &str = "miss";
    pub const LOCAL_HIT: &str = "local-hit";
    pub const REMOTE_HIT: &str = "remote-hit";
    pub const FALSE_HIT: &str = "false-hit-fallback";
    pub const REMOTE_DOWN: &str = "remote-unreachable-fallback";
    pub const QUARANTINED: &str = "quarantined-peer-fallback";
    pub const HOME_DOWN: &str = "home-unreachable-fallback";
    pub const COALESCED: &str = "coalesced-hit";
    pub const COALESCE_FALLBACK: &str = "coalesce-fallback";
    pub const DISABLED: &str = "disabled";
}

/// One of [`class`]'s values.
pub type Class = &'static str;

/// What the flow is told: first what the lookup found, then how the
/// last step went (each [`Step`] names the events that answer it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// Not for the cache: a rule, a method other than GET, or caching `off`.
    Uncacheable { off: bool },
    /// Cached here, in this tier.
    LocalHit(BodyTier),
    /// Cached at `owner`; `in_flight`: a request here already fetches it.
    RemoteHit { owner: NodeId, in_flight: bool },
    /// Cached nowhere this node knows of; the key's `homes`.
    Miss { homes: &'a [NodeId] },
    /// An identical request here is producing the body.
    CoalesceWait,
    /// The owner a home's table names, if any.
    Home(Option<NodeId>),
    /// The owner sent the body.
    Hit,
    /// The owner no longer has the entry.
    Gone,
    /// The peer gave no answer.
    Down(Down),
    /// The flight's body arrived.
    Served,
    /// The flight's leader failed, or the wait timed out.
    Abandoned,
    /// The CGI failed.
    Failed,
    /// Output not offered to the cache: not a 200, or an `Exec::Plain`.
    Output,
    /// A 200 the cache did not keep (threshold, size, store).
    Discarded,
    /// A 200 the cache inserted, evicting or not.
    Inserted,
    /// The notices are queued.
    Done,
}

/// Why a peer gave no answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Down {
    /// The exchange failed: evidence against the peer.
    Failed,
    /// This node's own exchanges held every connection to it.
    Busy,
    Quarantined,
    NoAddress,
}

impl Down {
    /// The class of an execution this leaves in place of a fetch.
    pub fn class(self) -> Class {
        match self {
            Down::Quarantined => class::QUARANTINED,
            _ => class::REMOTE_DOWN,
        }
    }
}

/// What the caller does next, and the events that answer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The last step: answer under `class` (`None`: a bare 500), the
    /// trace recording `outcome`.
    Serve {
        class: Option<Class>,
        outcome: Outcome,
    },
    /// `Home` or `Down`.
    AskHome { home: NodeId },
    /// `Hit`, `Gone` or `Down`; `home_resolved`: a home named `owner`.
    Fetch { owner: NodeId, home_resolved: bool },
    /// `Served` or `Abandoned`: wait on the key's flight.
    Wait,
    /// `Failed`, `Output`, `Discarded` or `Inserted`: run the CGI.
    Execute { class: Class, exec: Exec },
    /// `Done`: announce the insert and its victims' deletes.
    Announce,
    /// `Done`: announce a delete on `owner`'s behalf (it has no entry).
    Repair { owner: NodeId },
}

/// How an execution stands to the key's flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// Outside the cache: no flight, nothing to insert.
    Plain,
    /// Under the flight the lookup's miss took.
    Lead,
    /// After a failed wait: take the flight first.
    Forced,
    /// In place of a fetch, under the fetch's flight.
    Instead,
}

/// What a step marks besides its response, for the caller to apply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Marks {
    /// A miss a home resolved, whose owner answered: a remote hit.
    pub reclassify_miss_as_remote_hit: bool,
    /// §4.2's false hit, on its `Repair` step.
    pub false_hit: bool,
    /// The peer just asked answered (`Ok`) or failed (`Err`).
    pub peer: Option<Result<NodeId, NodeId>>,
    /// The execution under the key's flight left nothing to insert.
    pub abort: bool,
}

/// What `event`, `peer`'s reply or its absence, says of `peer`.
pub fn peer_mark(peer: NodeId, event: Event<'_>) -> Option<Result<NodeId, NodeId>> {
    match event {
        Event::Down(Down::Failed) => Some(Err(peer)),
        Event::Down(_) => None,
        _ => Some(Ok(peer)),
    }
}

/// One request's place in Figure 2, at node `me`.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    me: NodeId,
    /// The step last returned; `None` before the lookup's event.
    at: Option<Step>,
    /// The `Serve` a `Wait` or an `Announce` leads to.
    then: Step,
}

impl Flow {
    pub fn new(me: NodeId) -> Flow {
        Flow {
            me,
            at: None,
            then: Step::Wait,
        }
    }

    /// The step `event` leads to.
    ///
    /// # Panics
    /// If `event` does not answer the step last returned.
    pub fn next(&mut self, event: Event<'_>) -> (Step, Marks) {
        use {Event as E, Exec::*, Step as S};
        let mut marks = Marks::default();
        if let Some(S::AskHome { home: peer } | S::Fetch { owner: peer, .. }) = self.at {
            marks.peer = peer_mark(peer, event);
        }
        // The owner a home resolved a miss to answered: the lookup's miss
        // was the (possibly false) remote hit a home would have found.
        if let Some(S::Fetch { home_resolved, .. }) = self.at {
            let answered = matches!(marks.peer, Some(Ok(_)));
            marks.reclassify_miss_as_remote_hit = home_resolved && answered;
        }
        let step = match (self.at, event) {
            (None, E::Uncacheable { off: false }) => self.execute(class::UNCACHEABLE, Plain),
            (None, E::Uncacheable { off: true }) => self.execute(class::DISABLED, Plain),
            (None, E::LocalHit(BodyTier::Memory)) => serve(class::LOCAL_HIT, Outcome::LocalMem),
            (None, E::LocalHit(BodyTier::Disk)) => serve(class::LOCAL_HIT, Outcome::LocalDisk),
            (None, E::RemoteHit { owner, in_flight }) if !in_flight => fetch(owner, false),
            // A wait that joined a fetch answers like the fetch.
            (None, E::RemoteHit { .. }) => self.wait(serve(class::REMOTE_HIT, Outcome::Remote)),
            // A coalesced request paid (most of) the miss latency.
            (None, E::CoalesceWait) => self.wait(serve(class::COALESCED, Outcome::Miss)),
            // A local miss is the cluster's answer only at a home of the
            // key; elsewhere the home is asked first.
            (None, E::Miss { homes }) if homes.contains(&self.me) => {
                self.execute(class::MISS, Lead)
            }
            (None, E::Miss { homes }) => S::AskHome { home: homes[0] },
            // The home names this node, which just missed: its record is
            // stale (a lost delete), so repair it.
            (Some(S::AskHome { .. }), E::Home(Some(owner))) if owner == self.me => {
                S::Repair { owner }
            }
            (Some(S::AskHome { .. }), E::Home(Some(owner))) => fetch(owner, true),
            (Some(S::AskHome { .. }), E::Home(None)) => self.execute(class::MISS, Lead),
            (Some(S::AskHome { .. }), E::Down(_)) => self.execute(class::HOME_DOWN, Lead),
            (Some(S::Fetch { .. }), E::Hit) => serve(class::REMOTE_HIT, Outcome::Remote),
            // Every other record naming the owner is stale too.
            (Some(S::Fetch { owner, .. }), E::Gone) => {
                marks.false_hit = true;
                S::Repair { owner }
            }
            (Some(S::Fetch { .. }), E::Down(down)) => self.execute(down.class(), Instead),
            (Some(S::Repair { owner }), E::Done) if owner == self.me => {
                self.execute(class::MISS, Lead)
            }
            (Some(S::Repair { .. }), E::Done) => self.execute(class::FALSE_HIT, Instead),
            (Some(S::Wait), E::Served) | (Some(S::Announce), E::Done) => self.then,
            (Some(S::Wait), E::Abandoned) => self.execute(class::COALESCE_FALLBACK, Forced),
            (Some(S::Execute { .. }), E::Inserted) => S::Announce,
            (Some(S::Execute { class, exec }), E::Failed | E::Output | E::Discarded) => {
                marks.abort = exec != Plain && event != E::Discarded;
                let outcome = match exec {
                    Plain => Outcome::Uncacheable,
                    _ => Outcome::Miss,
                };
                let class = (event != E::Failed).then_some(class);
                S::Serve { class, outcome }
            }
            (at, event) => panic!("{event:?} does not answer {at:?}"),
        };
        self.at = Some(step);
        (step, marks)
    }

    fn wait(&mut self, served: Step) -> Step {
        self.then = served;
        Step::Wait
    }

    /// An `Execute`, whose `Serve` follows an `Announce` if it inserts.
    fn execute(&mut self, class: Class, exec: Exec) -> Step {
        self.then = serve(class, Outcome::Miss);
        Step::Execute { class, exec }
    }
}

fn serve(class: Class, outcome: Outcome) -> Step {
    let class = Some(class);
    Step::Serve { class, outcome }
}

fn fetch(owner: NodeId, home_resolved: bool) -> Step {
    Step::Fetch {
        owner,
        home_resolved,
    }
}

#[cfg(test)]
mod tests {
    use super::class::*;
    use super::Event::*;
    use super::Exec::*;
    use super::*;
    use super::{Down, Marks, Step};
    use proptest::prelude::*;

    const ME: NodeId = NodeId(0);
    const HOME: NodeId = NodeId(1);
    const OWNER: NodeId = NodeId(2);
    /// The longest walk: ask the home, fetch, repair the false hit,
    /// execute, announce, serve.
    const MAX_STEPS: usize = 6;

    /// The steps a flow returned, each with its marks.
    type Walk = Vec<(Step, Marks)>;

    fn run(events: &[Event<'_>]) -> Walk {
        let mut flow = Flow::new(ME);
        events.iter().map(|&event| flow.next(event)).collect()
    }

    fn ex(class: Class, exec: Exec) -> Step {
        Step::Execute { class, exec }
    }

    fn sv(class: Class, outcome: Outcome) -> Step {
        serve(class, outcome)
    }

    fn none() -> Marks {
        Marks::default()
    }

    fn answered(peer: NodeId) -> Marks {
        Marks {
            peer: Some(Ok(peer)),
            ..none()
        }
    }

    fn failed(peer: NodeId) -> Marks {
        Marks {
            peer: Some(Err(peer)),
            ..none()
        }
    }

    fn abort() -> Marks {
        Marks {
            abort: true,
            ..none()
        }
    }

    /// Every arm of Figure 2, walked with no socket: the events a caller
    /// reports, and each step with its marks. The class and the trace
    /// outcome are the last `Serve`'s.
    #[test]
    fn every_arm_walks_its_steps_with_its_marks() {
        let here: &[NodeId] = &[HOME, ME];
        let away: &[NodeId] = &[HOME];
        let miss = Miss { homes: away };
        let ask = (Step::AskHome { home: HOME }, none());
        let owner = (fetch(OWNER, true), answered(HOME));
        let remote = RemoteHit {
            owner: OWNER,
            in_flight: false,
        };
        let joined = RemoteHit {
            owner: OWNER,
            in_flight: true,
        };
        let reclassified = |m: Marks| Marks {
            reclassify_miss_as_remote_hit: true,
            ..m
        };
        let false_hit = |m: Marks| Marks {
            false_hit: true,
            ..m
        };
        let announce = [(Step::Announce, none())];
        let inserted = |step: Step, marks: Marks, class| {
            vec![
                (step, marks),
                announce[0],
                (sv(class, Outcome::Miss), none()),
            ]
        };
        #[rustfmt::skip]
        let arms: Vec<(&str, Vec<Event>, Walk)> = vec![
            ("caching off", vec![Uncacheable { off: true }, Output],
                vec![(ex(DISABLED, Plain), none()), (sv(DISABLED, Outcome::Uncacheable), none())]),
            ("a method other than GET, its CGI failing", vec![Uncacheable { off: false }, Failed],
                vec![(ex(UNCACHEABLE, Plain), none()),
                     (Step::Serve { class: None, outcome: Outcome::Uncacheable }, none())]),
            ("uncacheable by rule", vec![Uncacheable { off: false }, Output],
                vec![(ex(UNCACHEABLE, Plain), none()), (sv(UNCACHEABLE, Outcome::Uncacheable), none())]),
            ("a local hit from memory", vec![LocalHit(BodyTier::Memory)],
                vec![(sv(LOCAL_HIT, Outcome::LocalMem), none())]),
            ("a local hit from disk", vec![LocalHit(BodyTier::Disk)],
                vec![(sv(LOCAL_HIT, Outcome::LocalDisk), none())]),
            ("a remote hit", vec![remote, Hit],
                vec![(fetch(OWNER, false), none()), (sv(REMOTE_HIT, Outcome::Remote), answered(OWNER))]),
            ("a remote hit joining a fetch in flight", vec![joined, Served],
                vec![(Step::Wait, none()), (sv(REMOTE_HIT, Outcome::Remote), none())]),
            ("a remote hit whose joined fetch falls through", vec![joined, Abandoned, Inserted, Done],
                [vec![(Step::Wait, none())],
                 inserted(ex(COALESCE_FALLBACK, Forced), none(), COALESCE_FALLBACK)].concat()),
            ("a coalesce wait, served", vec![CoalesceWait, Served],
                vec![(Step::Wait, none()), (sv(COALESCED, Outcome::Miss), none())]),
            ("a coalesce wait whose leader fails", vec![CoalesceWait, Abandoned, Inserted, Done],
                [vec![(Step::Wait, none())],
                 inserted(ex(COALESCE_FALLBACK, Forced), none(), COALESCE_FALLBACK)].concat()),
            ("a coalesce wait that times out, its result discarded",
                vec![CoalesceWait, Abandoned, Discarded],
                vec![(Step::Wait, none()), (ex(COALESCE_FALLBACK, Forced), none()),
                     (sv(COALESCE_FALLBACK, Outcome::Miss), none())]),
            ("a miss at a home", vec![Miss { homes: here }, Inserted, Done],
                inserted(ex(MISS, Lead), none(), MISS)),
            ("a miss whose home answers none", vec![miss, Home(None), Inserted, Done],
                [vec![ask], inserted(ex(MISS, Lead), answered(HOME), MISS)].concat()),
            ("a miss whose home names this node: a stale record, repaired",
                vec![miss, Home(Some(ME)), Done, Inserted, Done],
                [vec![ask, (Step::Repair { owner: ME }, answered(HOME))],
                 inserted(ex(MISS, Lead), none(), MISS)].concat()),
            ("a miss the home resolves, the owner sending the body",
                vec![miss, Home(Some(OWNER)), Hit],
                vec![ask, owner, (sv(REMOTE_HIT, Outcome::Remote), reclassified(answered(OWNER)))]),
            ("a miss the home resolves, the owner's entry gone",
                vec![miss, Home(Some(OWNER)), Gone, Done, Inserted, Done],
                [vec![ask, owner,
                      (Step::Repair { owner: OWNER }, false_hit(reclassified(answered(OWNER))))],
                 inserted(ex(FALSE_HIT, Instead), none(), FALSE_HIT)].concat()),
            ("a miss the home resolves, the owner unreachable",
                vec![miss, Home(Some(OWNER)), Down(Down::Failed), Inserted, Done],
                [vec![ask, owner], inserted(ex(REMOTE_DOWN, Instead), failed(OWNER), REMOTE_DOWN)].concat()),
            ("a miss the home resolves, the owner's connections busy",
                vec![miss, Home(Some(OWNER)), Down(Down::Busy), Inserted, Done],
                [vec![ask, owner], inserted(ex(REMOTE_DOWN, Instead), none(), REMOTE_DOWN)].concat()),
            ("a home whose exchange fails", vec![miss, Down(Down::Failed), Inserted, Done],
                [vec![ask], inserted(ex(HOME_DOWN, Lead), failed(HOME), HOME_DOWN)].concat()),
            ("a home that cannot be asked", vec![miss, Down(Down::Quarantined), Inserted, Done],
                [vec![ask], inserted(ex(HOME_DOWN, Lead), none(), HOME_DOWN)].concat()),
            ("a false hit on a remote hit", vec![remote, Gone, Done, Inserted, Done],
                [vec![(fetch(OWNER, false), none()),
                      (Step::Repair { owner: OWNER }, false_hit(answered(OWNER)))],
                 inserted(ex(FALSE_HIT, Instead), none(), FALSE_HIT)].concat()),
            ("a quarantined owner", vec![remote, Down(Down::Quarantined), Inserted, Done],
                [vec![(fetch(OWNER, false), none())],
                 inserted(ex(QUARANTINED, Instead), none(), QUARANTINED)].concat()),
            ("an owner with no address", vec![remote, Down(Down::NoAddress), Inserted, Done],
                [vec![(fetch(OWNER, false), none())],
                 inserted(ex(REMOTE_DOWN, Instead), none(), REMOTE_DOWN)].concat()),
            ("an execution with another status", vec![Miss { homes: here }, Output],
                vec![(ex(MISS, Lead), none()), (sv(MISS, Outcome::Miss), abort())]),
            ("an execution whose CGI fails", vec![Miss { homes: here }, Failed],
                vec![(ex(MISS, Lead), none()),
                     (Step::Serve { class: None, outcome: Outcome::Miss }, abort())]),
            ("an execution discarded", vec![Miss { homes: here }, Discarded],
                vec![(ex(MISS, Lead), none()), (sv(MISS, Outcome::Miss), none())]),
            // With or without victims: `Announce` sends the insert and
            // every victim's delete, which only the caller holds.
            ("an execution inserted", vec![Miss { homes: here }, Inserted, Done],
                inserted(ex(MISS, Lead), none(), MISS)),
        ];
        for (name, events, want) in arms {
            let got = run(&events);
            assert_eq!(got, want, "{name}");
            assert!(got.len() <= MAX_STEPS, "{name}");
            assert!(
                matches!(got.last(), Some((Step::Serve { .. }, _))),
                "{name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not answer")]
    fn an_event_that_answers_no_step_panics() {
        run(&[LocalHit(BodyTier::Memory), Done]);
    }

    /// The cache's counters as the server keeps them: the lookup counts
    /// its classification, and the marks and steps count the rest.
    #[derive(Debug, Default)]
    struct Counters {
        lookups: i64,
        local: i64,
        remote: i64,
        misses: i64,
        false_hits: i64,
        /// Executions under the cache (an `Exec::Plain` is no lookup).
        executions: i64,
        flight_served: i64,
        /// Executions that a remote hit's flight falls back to: the
        /// owner was silent, or the fetch it joined fell through. The
        /// request executes while counted a remote hit.
        remote_fallbacks: i64,
    }

    fn pick<T: Copy>(choices: &[T], roll: u32) -> T {
        choices[roll as usize % choices.len()]
    }

    const DOWNS: [Down; 4] = [Down::Failed, Down::Busy, Down::Quarantined, Down::NoAddress];

    // Default config on purpose: `scripts/check.sh` and CI set
    // `PROPTEST_CASES` and pin or vary `PROPTEST_RNG_SEED`.
    proptest! {
        /// Random outcomes at every step: the flow serves within
        /// `MAX_STEPS`, and its marks keep the counters' identities —
        /// `lookups == local + remote + misses`, and `executions +
        /// flight_served == misses + false_hits` whenever no remote hit
        /// falls back to executing.
        #[test]
        fn any_outcomes_end_within_the_bound_and_keep_the_identities(
            rolls in proptest::collection::vec(any::<u32>(), MAX_STEPS + 1),
        ) {
            let homes: [&[NodeId]; 3] = [&[ME], &[HOME], &[HOME, ME, OWNER]];
            let first = pick(&[
                Uncacheable { off: rolls[0] & 1 == 0 },
                LocalHit(pick(&[BodyTier::Memory, BodyTier::Disk], rolls[0] >> 8)),
                RemoteHit { owner: OWNER, in_flight: rolls[0] & 2 == 0 },
                Miss { homes: pick(&homes, rolls[0] >> 8) },
                CoalesceWait,
            ], rolls[0] >> 16);
            let mut c = Counters::default();
            match first {
                Uncacheable { .. } => {}
                LocalHit(_) => (c.lookups, c.local) = (1, 1),
                RemoteHit { .. } => (c.lookups, c.remote) = (1, 1),
                _ => (c.lookups, c.misses) = (1, 1),
            }
            let mut flow = Flow::new(ME);
            let mut event = first;
            let mut steps = 0;
            let served_class = loop {
                let (step, marks) = flow.next(event);
                steps += 1;
                prop_assert!(steps <= MAX_STEPS, "{first:?}: no Serve within {MAX_STEPS} steps");
                if marks.reclassify_miss_as_remote_hit {
                    (c.misses, c.remote) = (c.misses - 1, c.remote + 1);
                }
                c.false_hits += marks.false_hit as i64;
                let roll = rolls[steps];
                event = match step {
                    Step::Serve { class, .. } => break class,
                    Step::AskHome { .. } => pick(&[
                        Home(None), Home(Some(ME)), Home(Some(OWNER)), Down(pick(&DOWNS, roll >> 8)),
                    ], roll),
                    Step::Fetch { .. } => pick(&[Hit, Gone, Down(pick(&DOWNS, roll >> 8))], roll),
                    Step::Wait => pick(&[Served, Abandoned], roll),
                    Step::Execute { exec: Plain, .. } => pick(&[Failed, Output], roll),
                    Step::Execute { class, .. } => {
                        c.executions += 1;
                        let on_remote_flight = matches!(first, RemoteHit { .. });
                        if on_remote_flight && class != FALSE_HIT {
                            c.remote_fallbacks += 1;
                        }
                        pick(&[Failed, Output, Discarded, Inserted], roll)
                    }
                    Step::Announce | Step::Repair { .. } => Done,
                };
            };
            c.flight_served += (served_class == Some(COALESCED)) as i64;
            prop_assert_eq!(c.lookups, c.local + c.remote + c.misses, "{:?}", c);
            prop_assert_eq!(
                c.executions + c.flight_served,
                c.misses + c.false_hits + c.remote_fallbacks,
                "{:?}", c
            );
        }
    }
}
