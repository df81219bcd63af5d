//! Deterministic fault injection for the message-passing layer.
//!
//! A [`FaultPlan`] scripts failures against *world ranks* at *logical
//! iterations*: kill a rank's process at an iteration boundary, sever the
//! link between two ranks, delay or black-hole messages by tag. The plan is
//! a pure value — parseable from a compact spec string so it can ride in the
//! run config to every rank — and enforcement is driven by each rank's own
//! logical clock, not wall time. Replaying the same plan against the same
//! seed therefore reproduces the same degraded run, on the in-process
//! [`crate::comm::Fabric`] and the multi-process [`crate::tcp::TcpFabric`]
//! alike: both transports expose an installed [`FaultState`] through
//! [`crate::transport::Transport::fault_state`], and the communicator
//! consults it on every outgoing envelope.
//!
//! Spec grammar (`;`-separated, whitespace ignored):
//!
//! ```text
//! kill:R@I              kill world rank R at the start of iteration I
//! sever:A-B@I           drop all traffic between ranks A and B from iteration I
//! delay:A>B:T@I:MS      delay tag-T messages from A to B by MS ms from iteration I
//! drop:A>B:T@I..J       black-hole tag-T messages from A to B for iterations I..J
//! ```
//!
//! `T` is a decimal tag, `*` (any tag), or a reserved-tag name: `barrier`,
//! `gather` (the result gather) or `allgather` — the snapshot exchange,
//! whose traffic runs straight between ranks that read each other.

use crate::message::{ReservedTags, Tag};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Process-wide switch arming *process-level* fault actions (scripted
/// SIGKILL self-termination and the planned-absence bookkeeping that
/// assumes a real process death). Message-level faults (sever/delay/drop)
/// are always enforced once a plan is installed; killing the current
/// process is only sane when each rank IS a process — the CLI's slave
/// entry point flips this, the in-process (thread-per-rank) drivers never
/// do, so a threaded test run can carry a kill-bearing plan without
/// shooting the test binary.
static PROCESS_FAULTS: AtomicBool = AtomicBool::new(false);

/// Arm process-level fault actions for this process (one-way; called by
/// multi-process rank entry points only).
pub fn enable_process_faults() {
    PROCESS_FAULTS.store(true, Ordering::Release);
}

/// Are process-level fault actions armed in this process?
pub fn process_faults_enabled() -> bool {
    PROCESS_FAULTS.load(Ordering::Acquire)
}

/// Tag selector for message-level faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match every tag.
    Any,
    /// Match one tag exactly.
    Exact(Tag),
}

impl TagSel {
    fn matches(self, tag: Tag) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Exact(t) => t == tag,
        }
    }

    fn parse(s: &str) -> Result<Self, FaultSpecError> {
        Ok(match s {
            "*" => TagSel::Any,
            "barrier" => TagSel::Exact(ReservedTags::BARRIER),
            "gather" => TagSel::Exact(ReservedTags::GATHER),
            "allgather" => TagSel::Exact(ReservedTags::ALLGATHER),
            n => TagSel::Exact(n.parse().map_err(|_| FaultSpecError::bad("tag", n))?),
        })
    }

    fn spec(self) -> String {
        match self {
            TagSel::Any => "*".to_string(),
            TagSel::Exact(t) if t == ReservedTags::BARRIER => "barrier".to_string(),
            TagSel::Exact(t) if t == ReservedTags::GATHER => "gather".to_string(),
            TagSel::Exact(t) if t == ReservedTags::ALLGATHER => "allgather".to_string(),
            TagSel::Exact(t) => t.to_string(),
        }
    }
}

/// One scripted failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// World rank `rank` dies at the start of iteration `at_iter` — before
    /// sending that iteration's exchange contribution, after committing any
    /// checkpoint due at the preceding boundary.
    Kill { rank: usize, at_iter: usize },
    /// All traffic between `a` and `b` (both directions) is dropped once
    /// the *sender's* clock reaches `at_iter`.
    Sever { a: usize, b: usize, at_iter: usize },
    /// Tag-matching messages from `src` to `dst` are held for `millis`
    /// before delivery once the sender's clock reaches `at_iter`. Delays
    /// stretch wall time but never change results in synchronous mode.
    Delay { src: usize, dst: usize, tag: TagSel, at_iter: usize, millis: u64 },
    /// Tag-matching messages from `src` to `dst` vanish while the sender's
    /// clock is in `[from_iter, until_iter)` (`until_iter == usize::MAX`
    /// for "forever").
    Blackhole { src: usize, dst: usize, tag: TagSel, from_iter: usize, until_iter: usize },
}

/// A malformed fault spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl FaultSpecError {
    fn bad(what: &str, got: &str) -> Self {
        Self(format!("bad {what}: {got:?}"))
    }
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

fn parse_num(what: &str, s: &str) -> Result<usize, FaultSpecError> {
    s.parse().map_err(|_| FaultSpecError::bad(what, s))
}

/// Split `s` at the single occurrence of `sep`, or error.
fn split2<'a>(s: &'a str, sep: char, what: &str) -> Result<(&'a str, &'a str), FaultSpecError> {
    s.split_once(sep).ok_or_else(|| FaultSpecError::bad(what, s))
}

/// A deterministic, replayable failure schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty (fault-free) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan with one fault appended (builder style).
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scripted faults, in spec order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse the spec grammar documented at module level.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = Self::new();
        for item in spec.split(';') {
            let item: String = item.chars().filter(|c| !c.is_whitespace()).collect();
            if item.is_empty() {
                continue;
            }
            let (kind, rest) = split2(&item, ':', "fault")?;
            let fault = match kind {
                "kill" => {
                    let (rank, iter) = split2(rest, '@', "kill")?;
                    Fault::Kill {
                        rank: parse_num("rank", rank)?,
                        at_iter: parse_num("iteration", iter)?,
                    }
                }
                "sever" => {
                    let (pair, iter) = split2(rest, '@', "sever")?;
                    let (a, b) = split2(pair, '-', "rank pair")?;
                    Fault::Sever {
                        a: parse_num("rank", a)?,
                        b: parse_num("rank", b)?,
                        at_iter: parse_num("iteration", iter)?,
                    }
                }
                "delay" => {
                    // delay:A>B:T@I:MS
                    let (pair, rest) = split2(rest, ':', "delay")?;
                    let (a, b) = split2(pair, '>', "rank pair")?;
                    let (tag, rest) = split2(rest, '@', "delay window")?;
                    let (iter, ms) = split2(rest, ':', "delay millis")?;
                    Fault::Delay {
                        src: parse_num("rank", a)?,
                        dst: parse_num("rank", b)?,
                        tag: TagSel::parse(tag)?,
                        at_iter: parse_num("iteration", iter)?,
                        millis: parse_num("millis", ms)? as u64,
                    }
                }
                "drop" => {
                    // drop:A>B:T@I..J  (or @I for "forever")
                    let (pair, rest) = split2(rest, ':', "drop")?;
                    let (a, b) = split2(pair, '>', "rank pair")?;
                    let (tag, window) = split2(rest, '@', "drop window")?;
                    let (from, until) = match window.split_once("..") {
                        Some((f, u)) => {
                            (parse_num("iteration", f)?, parse_num("iteration", u)?)
                        }
                        None => (parse_num("iteration", window)?, usize::MAX),
                    };
                    Fault::Blackhole {
                        src: parse_num("rank", a)?,
                        dst: parse_num("rank", b)?,
                        tag: TagSel::parse(tag)?,
                        from_iter: from,
                        until_iter: until,
                    }
                }
                other => return Err(FaultSpecError::bad("fault kind", other)),
            };
            plan.faults.push(fault);
        }
        Ok(plan)
    }

    /// Render back to the spec grammar (parse ∘ spec is identity).
    pub fn spec(&self) -> String {
        let items: Vec<String> = self
            .faults
            .iter()
            .map(|f| match *f {
                Fault::Kill { rank, at_iter } => format!("kill:{rank}@{at_iter}"),
                Fault::Sever { a, b, at_iter } => format!("sever:{a}-{b}@{at_iter}"),
                Fault::Delay { src, dst, tag, at_iter, millis } => {
                    format!("delay:{src}>{dst}:{}@{at_iter}:{millis}", tag.spec())
                }
                Fault::Blackhole { src, dst, tag, from_iter, until_iter } => {
                    if until_iter == usize::MAX {
                        format!("drop:{src}>{dst}:{}@{from_iter}", tag.spec())
                    } else {
                        format!("drop:{src}>{dst}:{}@{from_iter}..{until_iter}", tag.spec())
                    }
                }
            })
            .collect();
        items.join(";")
    }

    /// The iteration at which `rank` is scripted to die, if any (the
    /// earliest when several kills name the same rank).
    pub fn kill_iteration(&self, rank: usize) -> Option<usize> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Kill { rank: r, at_iter } if r == rank => Some(at_iter),
                _ => None,
            })
            .min()
    }

    /// Every scripted `(rank, at_iter)` kill, in spec order.
    pub fn kills(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.faults.iter().filter_map(|f| match *f {
            Fault::Kill { rank, at_iter } => Some((rank, at_iter)),
            _ => None,
        })
    }

    /// Is the `src -> dst` direction severed at the sender's iteration?
    pub fn severed(&self, src: usize, dst: usize, iter: usize) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Sever { a, b, at_iter } => {
                iter >= at_iter && ((a == src && b == dst) || (a == dst && b == src))
            }
            _ => false,
        })
    }

    /// Is a `src -> dst` message with `tag` black-holed at the sender's
    /// iteration (by a sever or an explicit drop window)?
    pub fn blackholed(&self, src: usize, dst: usize, tag: Tag, iter: usize) -> bool {
        self.severed(src, dst, iter)
            || self.faults.iter().any(|f| match *f {
                Fault::Blackhole { src: s, dst: d, tag: t, from_iter, until_iter } => {
                    s == src
                        && d == dst
                        && t.matches(tag)
                        && iter >= from_iter
                        && iter < until_iter
                }
                _ => false,
            })
    }

    /// Scripted delivery delay for a `src -> dst` message with `tag` at the
    /// sender's iteration (the longest when several match).
    pub fn delay(&self, src: usize, dst: usize, tag: Tag, iter: usize) -> Option<Duration> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Delay { src: s, dst: d, tag: t, at_iter, millis }
                    if s == src && d == dst && t.matches(tag) && iter >= at_iter =>
                {
                    Some(millis)
                }
                _ => None,
            })
            .max()
            .map(Duration::from_millis)
    }
}

/// The fully-determined in-flight replacement schedule implied by a plan:
/// which rank dies, when, where its replacement resumes, and the round at
/// which it rendezvouses with the survivors. Pure arithmetic over the plan
/// and the run shape, so every party — the master, the victim's readers,
/// the replacement rank, and the cluster simulator — computes the
/// identical schedule without exchanging a byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplacementSchedule {
    /// World rank of the scripted victim.
    pub victim_world: usize,
    /// Its grid cell (world rank − 1 under the runtime's workload map).
    pub cell: usize,
    /// The iteration at whose start the victim dies.
    pub kill_iter: usize,
    /// The round at which the replacement joins the exchange:
    /// `kill_iter + max_stale_iters`.
    pub rejoin_round: usize,
    /// The committed checkpoint iteration the replacement restores from —
    /// the newest cadence cut at or below `kill_iter` — or `None` (fresh
    /// engine, full catch-up) when no cut can exist.
    pub resume_cut: Option<usize>,
}

/// Compute the in-flight replacement schedule for `plan`, or `None` when
/// the plan's kills (if any) cannot be replaced in-flight and must fall
/// back to coordinated recovery. Only the *earliest* kill is scheduled;
/// additional kills degrade through the unplanned path and escalate.
///
/// Every slave is replaceable; not replaceable are the master (world rank
/// 0) and ranks that are no slave; kills at iteration 0 (no snapshot cached
/// yet to substitute); rejoin rounds at or past the end of the run; any
/// kill when `max_stale_iters` is 0 (degradation disabled); and the one
/// slave of a one-cell grid, which has no neighbour to hold its
/// death-frame.
pub fn replacement_schedule(
    plan: &FaultPlan,
    max_stale_iters: usize,
    checkpoint_every: usize,
    target_iterations: usize,
    cells: usize,
) -> Option<ReplacementSchedule> {
    if max_stale_iters == 0 || cells < 2 {
        return None;
    }
    let (rank, at) = plan.kills().min_by_key(|&(r, i)| (i, r))?;
    if rank == 0 || rank > cells || at == 0 {
        return None;
    }
    let rejoin_round = at + max_stale_iters;
    if rejoin_round >= target_iterations {
        return None;
    }
    // The victim completed exactly `at` iterations and drained its writer
    // before dying, so every cadence cut <= `at` is durably committed.
    let cut = at.checked_div(checkpoint_every).map_or(0, |cadence| cadence * checkpoint_every);
    Some(ReplacementSchedule {
        victim_world: rank,
        cell: rank - 1,
        kill_iter: at,
        rejoin_round,
        resume_cut: (cut > 0).then_some(cut),
    })
}

/// [`replacement_schedule`] straight from a run configuration's plan
/// string (`None` scripts nothing) — the form the master, the simulator and
/// the CLI call, so none of them carries its own copy of the
/// parse-then-schedule step (a slave holds the parsed plan already). A spec that does not parse is an error,
/// never an empty plan: a run asked to replay a fault must not quietly run
/// fault-free.
pub fn scheduled_replacement(
    plan: Option<&str>,
    max_stale_iters: usize,
    checkpoint_every: usize,
    target_iterations: usize,
    cells: usize,
) -> Result<Option<ReplacementSchedule>, FaultSpecError> {
    let Some(spec) = plan else { return Ok(None) };
    let plan = FaultPlan::parse(spec)?;
    Ok(replacement_schedule(&plan, max_stale_iters, checkpoint_every, target_iterations, cells))
}

/// What a transport should do with one outgoing envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFate {
    /// Deliver normally.
    Deliver,
    /// Drop silently (black-holed or severed link).
    Drop,
    /// Hold for the duration, then deliver.
    Delay(Duration),
}

/// A plan plus the per-rank logical clocks that drive enforcement.
///
/// One `FaultState` is installed per transport: the in-process fabric hosts
/// every rank's clock, a socket transport only ever ticks its own. Clocks
/// advance monotonically via [`FaultState::tick`], called by the training
/// loop at each iteration boundary — faults are scheduled in *logical* time,
/// so replays are exact.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    clocks: Vec<AtomicUsize>,
}

impl FaultState {
    /// Fault state for a universe of `world_size` ranks.
    pub fn new(plan: FaultPlan, world_size: usize) -> Self {
        Self { plan, clocks: (0..world_size).map(|_| AtomicUsize::new(0)).collect() }
    }

    /// The scripted plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Advance `rank`'s logical clock to `iter` (monotonic).
    pub fn tick(&self, rank: usize, iter: usize) {
        self.clocks[rank].fetch_max(iter, Ordering::Release);
    }

    /// `rank`'s current logical iteration.
    pub fn clock(&self, rank: usize) -> usize {
        self.clocks[rank].load(Ordering::Acquire)
    }

    /// Fate of an outgoing envelope, judged at the sender's clock.
    pub fn outgoing(&self, src: usize, dst: usize, tag: Tag) -> DeliveryFate {
        let iter = self.clock(src);
        if self.plan.blackholed(src, dst, tag, iter) {
            return DeliveryFate::Drop;
        }
        match self.plan.delay(src, dst, tag, iter) {
            Some(d) => DeliveryFate::Delay(d),
            None => DeliveryFate::Deliver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        let spec = "kill:3@6;sever:1-2@4;delay:1>2:allgather@0:15;drop:2>3:*@5..9;drop:4>1:7@2";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.spec(), spec);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
    }

    #[test]
    fn whitespace_and_empty_items_tolerated() {
        let plan = FaultPlan::parse(" kill:1@2 ; ; sever:0-1@3 ").unwrap();
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.kill_iteration(1), Some(2));
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        assert!(FaultPlan::parse("kill:1").is_err());
        assert!(FaultPlan::parse("explode:1@2").is_err());
        assert!(FaultPlan::parse("delay:1>2:bogus@0:5").is_err());
    }

    #[test]
    fn kill_is_per_rank_and_earliest_wins() {
        let plan = FaultPlan::parse("kill:2@9;kill:2@4").unwrap();
        assert_eq!(plan.kill_iteration(2), Some(4));
        assert_eq!(plan.kill_iteration(1), None);
        assert_eq!(plan.kills().count(), 2);
    }

    #[test]
    fn sever_is_bidirectional_and_iteration_gated() {
        let plan = FaultPlan::parse("sever:1-2@4").unwrap();
        assert!(!plan.severed(1, 2, 3));
        assert!(plan.severed(1, 2, 4));
        assert!(plan.severed(2, 1, 7));
        assert!(!plan.severed(1, 3, 9));
    }

    #[test]
    fn blackhole_window_and_tag_selector() {
        let plan = FaultPlan::parse("drop:0>1:allgather@2..5").unwrap();
        assert!(!plan.blackholed(0, 1, ReservedTags::ALLGATHER, 1));
        assert!(plan.blackholed(0, 1, ReservedTags::ALLGATHER, 2));
        assert!(plan.blackholed(0, 1, ReservedTags::ALLGATHER, 4));
        assert!(!plan.blackholed(0, 1, ReservedTags::ALLGATHER, 5));
        assert!(!plan.blackholed(0, 1, ReservedTags::GATHER, 3));
        assert!(!plan.blackholed(1, 0, ReservedTags::ALLGATHER, 3));
    }

    #[test]
    fn replacement_schedule_picks_earliest_replaceable_kill() {
        let plan = FaultPlan::parse("kill:3@6;kill:2@9").unwrap();
        let s = replacement_schedule(&plan, 3, 5, 20, 4).unwrap();
        assert_eq!(s.victim_world, 3);
        assert_eq!(s.cell, 2);
        assert_eq!(s.kill_iter, 6);
        assert_eq!(s.rejoin_round, 9);
        assert_eq!(s.resume_cut, Some(5));
    }

    #[test]
    fn replacement_schedule_refuses_unreplaceable_kills() {
        let kill = |s: &str| FaultPlan::parse(s).unwrap();
        // Degradation disabled.
        assert!(replacement_schedule(&kill("kill:3@6"), 0, 5, 20, 4).is_none());
        // The master.
        assert!(replacement_schedule(&kill("kill:0@6"), 3, 5, 20, 4).is_none());
        // The lone slave of a one-cell grid: no neighbour holds its frame.
        assert!(replacement_schedule(&kill("kill:1@6"), 3, 5, 20, 1).is_none());
        // Kill before anything was cached.
        assert!(replacement_schedule(&kill("kill:3@0"), 3, 5, 20, 4).is_none());
        // Rejoin would land past the end of the run.
        assert!(replacement_schedule(&kill("kill:3@18"), 3, 5, 20, 4).is_none());
        // Not a slave rank at all.
        assert!(replacement_schedule(&kill("kill:9@6"), 3, 5, 20, 4).is_none());
        // No kills scripted.
        assert!(replacement_schedule(&kill("sever:1-2@3"), 3, 5, 20, 4).is_none());
    }

    #[test]
    fn every_slave_is_replaceable_including_cell_0() {
        for rank in 1..=4 {
            let s = replacement_schedule(
                &FaultPlan::parse(&format!("kill:{rank}@6")).unwrap(),
                3,
                5,
                20,
                4,
            )
            .unwrap_or_else(|| panic!("world rank {rank} refused"));
            assert_eq!((s.victim_world, s.cell), (rank, rank - 1));
        }
    }

    #[test]
    fn replacement_schedule_fresh_start_without_checkpoints() {
        let plan = FaultPlan::parse("kill:2@3").unwrap();
        let s = replacement_schedule(&plan, 2, 0, 10, 4).unwrap();
        assert_eq!(s.resume_cut, None);
        // A cadence with no cut yet at the kill iteration also falls back.
        let s = replacement_schedule(&plan, 2, 5, 10, 4).unwrap();
        assert_eq!(s.resume_cut, None);
    }

    #[test]
    fn fault_state_clocks_drive_fates() {
        let plan = FaultPlan::parse("drop:0>1:*@3;delay:1>0:*@0:25;kill:2@5").unwrap();
        let st = FaultState::new(plan, 3);
        assert_eq!(st.outgoing(0, 1, 9), DeliveryFate::Deliver);
        st.tick(0, 3);
        assert_eq!(st.outgoing(0, 1, 9), DeliveryFate::Drop);
        assert_eq!(st.outgoing(1, 0, 9), DeliveryFate::Delay(Duration::from_millis(25)));
        st.tick(2, 5);
        // Clocks are monotonic: a stale tick cannot rewind.
        st.tick(2, 1);
        assert_eq!(st.clock(2), 5);
    }
}
