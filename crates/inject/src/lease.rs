//! Time-bounded task leases for the distributed campaign coordinator.
//!
//! A lease binds one (benchmark, start-point) task to one worker for a
//! bounded wall-clock window. The worker renews by heartbeating; if the
//! deadline passes without a renewal the coordinator expires the lease and
//! the task becomes grantable again. Because every engine is deterministic
//! per task (the per-task PRNG substream depends only on the campaign seed
//! and the task id), re-executing an expired lease produces byte-identical
//! results — so the accounting contract is *at-most-once in the census*,
//! not at-most-once execution: [`LeaseTable::complete`] accepts the first
//! completion per task (even one arriving under a stale token, i.e. a
//! reassignment racing a late finisher) and flags every later one as a
//! duplicate for the merge footer.
//!
//! The table is a pure state machine over an explicit millisecond clock:
//! callers pass `now_ms`, nothing here reads wall time. That keeps the
//! edge cases — expiry exactly at the heartbeat boundary, late completions,
//! stale reconnect tokens — unit-testable with exact clocks, and leaves the
//! coordinator loop (`shard.rs`) as the only place that touches `Instant`.

use std::collections::{BTreeMap, BTreeSet};

/// A distributable unit of campaign work: one (benchmark, start-point).
pub type TaskId = (usize, u64);

/// Why a heartbeat was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenewError {
    /// No live lease carries this token (expired and reassigned, or the
    /// task already completed). The worker should abandon the task.
    StaleToken,
}

/// Outcome of reporting a task completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// First completion for this task: the result enters the census.
    Accepted,
    /// The task was already completed (an expired lease was re-executed,
    /// or a frame was duplicated). The result is dropped and counted.
    Duplicate,
}

#[derive(Debug, Clone, Copy)]
struct Lease {
    task: TaskId,
    worker: u64,
    /// Lease is live while `now_ms < deadline_ms`; a heartbeat arriving
    /// exactly at the deadline is stale.
    deadline_ms: u64,
}

/// Accounting totals the coordinator folds into its report footer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseStats {
    /// Leases granted, including re-grants of expired tasks.
    pub granted: u64,
    /// Grants of a task whose earlier lease expired (re-execution).
    pub regranted: u64,
    /// Successful heartbeat renewals.
    pub renewed: u64,
    /// Leases expired by the deadline monitor.
    pub expired: u64,
    /// Completions accepted into the census.
    pub completed: u64,
    /// Completions dropped as duplicates.
    pub duplicates: u64,
}

/// The coordinator's lease table: pending tasks, live leases, completions.
pub struct LeaseTable {
    /// Tasks not yet completed and not currently leased, in grant order.
    /// Grant order is popped from the back (longest-first scheduling, like
    /// the in-process worker pool).
    pending: Vec<TaskId>,
    /// Live leases keyed by token. Tokens are never reused, so a stale
    /// token can only miss, never alias a newer lease.
    leases: BTreeMap<u64, Lease>,
    /// Tasks with an accepted completion.
    done: BTreeSet<TaskId>,
    /// Tasks that have been granted at least once (expired grants land
    /// back in `pending`; a re-grant of one of these counts `regranted`).
    ever_granted: BTreeSet<TaskId>,
    /// The benchmark each worker was last granted: a worker keeps that
    /// benchmark's golden walk, so its next grant prefers it.
    last_bench: BTreeMap<u64, usize>,
    next_token: u64,
    lease_ms: u64,
    stats: LeaseStats,
}

impl LeaseTable {
    /// Builds a table over `tasks` (already filtered of journal-completed
    /// work, in grant order — last element is granted first) with a fixed
    /// lease duration.
    pub fn new(tasks: Vec<TaskId>, lease_ms: u64) -> LeaseTable {
        LeaseTable {
            pending: tasks,
            leases: BTreeMap::new(),
            done: BTreeSet::new(),
            ever_granted: BTreeSet::new(),
            last_bench: BTreeMap::new(),
            next_token: 1,
            lease_ms,
            stats: LeaseStats::default(),
        }
    }

    /// Grants the next pending task to `worker`, or `None` if nothing is
    /// currently grantable (all tasks leased or done, or contested).
    ///
    /// A worker keeps the golden walk of the benchmark it was last granted,
    /// so that benchmark's next pending task goes to it first. Otherwise
    /// the next task in grant order goes, unless it is *contested*: the
    /// only pending task of a benchmark another worker holds a live lease
    /// on. That worker will take it next from the walk it already has, so
    /// granting it elsewhere would walk the benchmark twice; once the lease
    /// completes or expires, the task is free to anyone.
    pub fn grant(&mut self, worker: u64, now_ms: u64) -> Option<(TaskId, u64)> {
        let own = self.last_bench.get(&worker).copied();
        let contested = |bench: usize| {
            self.leases.values().any(|l| l.worker != worker && l.task.0 == bench)
                && self.pending.iter().filter(|t| t.0 == bench).count() == 1
        };
        let pick = self
            .pending
            .iter()
            .rposition(|t| Some(t.0) == own)
            .or_else(|| self.pending.iter().rposition(|t| !contested(t.0)))?;
        let task = self.pending.remove(pick);
        self.last_bench.insert(worker, task.0);
        let token = self.next_token;
        self.next_token += 1;
        self.leases.insert(token, Lease { task, worker, deadline_ms: now_ms + self.lease_ms });
        self.stats.granted += 1;
        if !self.ever_granted.insert(task) {
            self.stats.regranted += 1;
        }
        Some((task, token))
    }

    /// Renews the lease behind `token`, pushing its deadline out by the
    /// lease duration. Fails if the token no longer names a live lease.
    pub fn heartbeat(&mut self, token: u64, now_ms: u64) -> Result<(), RenewError> {
        // Expire first: a heartbeat arriving at or after the deadline must
        // not resurrect a lease the monitor would have reclaimed.
        self.expire(now_ms);
        match self.leases.get_mut(&token) {
            Some(lease) => {
                lease.deadline_ms = now_ms + self.lease_ms;
                self.stats.renewed += 1;
                Ok(())
            }
            None => Err(RenewError::StaleToken),
        }
    }

    /// Reclaims every lease whose deadline has passed (`now_ms >=
    /// deadline`), returning the reclaimed leases as `(task, worker,
    /// token)` so the coordinator can emit expiry events. Reclaimed tasks
    /// rejoin the pending queue at the back (granted next).
    pub fn expire(&mut self, now_ms: u64) -> Vec<(TaskId, u64, u64)> {
        let dead: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| now_ms >= l.deadline_ms)
            .map(|(&t, _)| t)
            .collect();
        let mut reclaimed = Vec::with_capacity(dead.len());
        for token in dead {
            let lease = self.leases.remove(&token).expect("token collected above");
            self.pending.push(lease.task);
            self.stats.expired += 1;
            reclaimed.push((lease.task, lease.worker, token));
        }
        reclaimed
    }

    /// Records a completion for `task` reported under `token`.
    ///
    /// First completion wins regardless of token staleness: a worker that
    /// lost its lease but finished anyway produced the same deterministic
    /// result the replacement would, so accepting it is sound and faster.
    /// Any live lease for the task (the racing replacement's) is released
    /// without re-queueing.
    pub fn complete(&mut self, task: TaskId, token: u64) -> CompleteOutcome {
        // Drop the reporting lease if it is still live.
        if self.leases.get(&token).map(|l| l.task) == Some(task) {
            self.leases.remove(&token);
        }
        if !self.done.insert(task) {
            self.stats.duplicates += 1;
            return CompleteOutcome::Duplicate;
        }
        self.stats.completed += 1;
        // Release any racing reassignment of the same task...
        let racing: Vec<u64> =
            self.leases.iter().filter(|(_, l)| l.task == task).map(|(&t, _)| t).collect();
        for t in racing {
            self.leases.remove(&t);
        }
        // ...and un-queue the task if an expiry already re-queued it.
        self.pending.retain(|&t| t != task);
        CompleteOutcome::Accepted
    }

    /// True once every task has an accepted completion.
    pub fn all_done(&self) -> bool {
        self.pending.is_empty() && self.leases.is_empty()
    }

    /// Accounting totals so far.
    pub fn stats(&self) -> LeaseStats {
        self.stats
    }

    /// True while grantable or leased work remains.
    pub fn work_remaining(&self) -> bool {
        !self.pending.is_empty() || !self.leases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(n: usize, lease_ms: u64) -> LeaseTable {
        // Tasks (0,0)..(0,n) granted back-to-front like the campaign pool.
        LeaseTable::new((0..n as u64).map(|sp| (0, sp)).collect(), lease_ms)
    }

    #[test]
    fn grant_complete_drains_the_queue() {
        let mut t = table(3, 100);
        let mut seen = Vec::new();
        while let Some((task, token)) = t.grant(1, 0) {
            assert_eq!(t.complete(task, token), CompleteOutcome::Accepted);
            seen.push(task);
        }
        assert_eq!(seen, [(0, 2), (0, 1), (0, 0)]); // back-to-front
        assert!(t.all_done());
        assert_eq!(t.stats().completed, 3);
        assert_eq!(t.stats().expired, 0);
    }

    #[test]
    fn grants_prefer_the_workers_last_benchmark() {
        // Two benchmarks x two start points, in the campaign's grant order
        // (highest start point first, benchmarks ascending).
        let mut t = LeaseTable::new(vec![(1, 0), (0, 0), (1, 1), (0, 1)], 100);
        let mut grant = |worker| t.grant(worker, 0).map(|(task, _)| task);
        assert_eq!(grant(1), Some((0, 1)));
        assert_eq!(grant(2), Some((1, 1)));
        // Each worker stays on its benchmark while it has pending work...
        assert_eq!(grant(2), Some((1, 0)));
        assert_eq!(grant(1), Some((0, 0)));
        assert_eq!(grant(3), None);
        // ...and otherwise takes the next task in grant order.
        let mut t = LeaseTable::new(vec![(1, 0), (0, 0)], 100);
        assert_eq!(t.grant(1, 0).map(|g| g.0), Some((0, 0)));
        assert_eq!(t.grant(1, 0).map(|g| g.0), Some((1, 0)));
    }

    #[test]
    fn a_benchmarks_last_task_waits_for_the_worker_holding_it() {
        let mut t = LeaseTable::new(vec![(1, 0), (0, 0), (1, 1), (0, 1)], 100);
        let (held, token) = t.grant(1, 0).unwrap();
        assert_eq!(held, (0, 1));
        assert_eq!(t.grant(2, 0).map(|g| g.0), Some((1, 1)));
        assert_eq!(t.grant(2, 0).map(|g| g.0), Some((1, 0)));
        // (0, 0) is benchmark 0's last pending task and worker 1 holds a
        // lease on benchmark 0: worker 2 waits for it rather than walk
        // benchmark 0 again...
        assert_eq!(t.grant(2, 0), None);
        assert!(t.work_remaining());
        // ...and it goes to worker 1 once that lease completes.
        assert_eq!(t.complete(held, token), CompleteOutcome::Accepted);
        assert_eq!(t.grant(1, 0).map(|g| g.0), Some((0, 0)));

        // A holder that dies frees its benchmark when its lease expires.
        let mut t = LeaseTable::new(vec![(0, 0), (0, 1)], 100);
        assert_eq!(t.grant(1, 0).map(|g| g.0), Some((0, 1)));
        assert_eq!(t.grant(2, 0), None);
        t.expire(100);
        assert_eq!(t.grant(2, 100).map(|g| g.0), Some((0, 1)));
        assert_eq!(t.grant(2, 100).map(|g| g.0), Some((0, 0)));

        // A benchmark with more pending work than its holder's next task
        // is shared.
        let mut t = LeaseTable::new(vec![(0, 0), (0, 1), (0, 2)], 100);
        assert_eq!(t.grant(1, 0).map(|g| g.0), Some((0, 2)));
        assert_eq!(t.grant(2, 0).map(|g| g.0), Some((0, 1)));
    }

    #[test]
    fn expiry_exactly_at_the_heartbeat_boundary_is_stale() {
        let mut t = table(1, 100);
        let (task, token) = t.grant(1, 0).unwrap();
        // Renewal strictly before the deadline succeeds...
        assert_eq!(t.heartbeat(token, 99), Ok(()));
        // ...and pushes the deadline to 199. A heartbeat arriving exactly
        // at the deadline is stale: the lease expires first.
        assert_eq!(t.heartbeat(token, 199), Err(RenewError::StaleToken));
        assert_eq!(t.stats().expired, 1);
        // The task is grantable again, as a re-grant.
        let (task2, token2) = t.grant(2, 200).unwrap();
        assert_eq!(task2, task);
        assert_ne!(token2, token);
        assert_eq!(t.stats().regranted, 1);
    }

    #[test]
    fn late_completion_beats_the_racing_reassignment() {
        let mut t = table(1, 100);
        let (task, stale) = t.grant(1, 0).unwrap();
        // Worker 1 hangs; the monitor expires it and worker 2 takes over.
        assert_eq!(t.expire(100).len(), 1);
        let (_, fresh) = t.grant(2, 100).unwrap();
        // Worker 1 wakes up and finishes first, under its stale token.
        assert_eq!(t.complete(task, stale), CompleteOutcome::Accepted);
        // Worker 2's identical result is a counted duplicate; the table
        // is fully done (worker 2's lease was released, not re-queued).
        assert_eq!(t.complete(task, fresh), CompleteOutcome::Duplicate);
        assert!(t.all_done());
        assert_eq!(t.stats().completed, 1);
        assert_eq!(t.stats().duplicates, 1);
    }

    #[test]
    fn completion_unqueues_an_expired_requeue() {
        let mut t = table(1, 100);
        let (task, stale) = t.grant(1, 0).unwrap();
        // Expired and re-queued but not yet re-granted...
        t.expire(150);
        // ...when the late completion lands: nothing left to grant.
        assert_eq!(t.complete(task, stale), CompleteOutcome::Accepted);
        assert_eq!(t.grant(2, 160), None);
        assert!(t.all_done());
    }

    #[test]
    fn reconnecting_worker_with_a_stale_token_is_rejected() {
        let mut t = table(2, 100);
        let (_, token) = t.grant(1, 0).unwrap();
        t.expire(100);
        // The reconnecting worker heartbeats its old token: refused, and
        // the refusal does not disturb the other live lease.
        let (_, live) = t.grant(2, 100).unwrap();
        assert_eq!(t.heartbeat(token, 120), Err(RenewError::StaleToken));
        assert_eq!(t.heartbeat(live, 120), Ok(()));
    }

    #[test]
    fn heartbeat_extends_across_many_renewals() {
        let mut t = table(1, 100);
        let (_, token) = t.grant(1, 0).unwrap();
        for now in (50..1000).step_by(50) {
            assert_eq!(t.heartbeat(token, now), Ok(()), "renewal at {now}");
        }
        assert_eq!(t.stats().renewed, 19);
        assert_eq!(t.stats().expired, 0);
    }

    #[test]
    fn tokens_are_never_reused() {
        let mut t = table(1, 10);
        let mut tokens = Vec::new();
        for round in 0..5u64 {
            let (_, token) = t.grant(round, round * 20).unwrap();
            tokens.push(token);
            t.expire(round * 20 + 10);
        }
        let mut unique = tokens.clone();
        unique.dedup();
        assert_eq!(tokens, unique);
        assert_eq!(t.stats().granted, 5);
        assert_eq!(t.stats().regranted, 4);
    }
}
