//! Homomorphism-search support beside the compiled matcher.
//!
//! Chase termination (§4 of the paper), Σ-equivalence and sound C&B (§5),
//! dependency implication and satisfaction, query isomorphism, and bag
//! containment all bottom out in homomorphism search between conjunctions
//! of atoms. The one compiled matcher for all of them is
//! [`crate::arena::ArenaPlan`] (dense variable slots, an undo trail,
//! delta-constrained passes); this module keeps what surrounds it:
//!
//! * [`mod@reference`] — the naive backtracker the workspace started
//!   with, walking source atoms in their written order and cloning a
//!   `HashMap`-backed [`crate::Subst`] per seed. It is the differential
//!   oracle (`tests/tests/matcher_differential.rs`) and the search of the
//!   reference chase drivers, so it stays independent of the arena.
//! * [`ProbePool`] — the run-long worker pool the chase engine fans its
//!   speculative dependency probes out on. The lowest-indexed actionable
//!   probe commits, preserving the reference firing order exactly, and
//!   "no match" verdicts for the others are retired wholesale, since every
//!   probe ran against the same immutable body snapshot.

/// A run-long pool of parked worker threads for speculative probes.
///
/// Spawning `k - 1` scoped threads on **every** chase step would swamp
/// the probe payoff on small steps, so a `ProbePool` pays the spawn cost
/// once per run: workers park on a condvar and [`ProbePool::run`] hands
/// them jobs per step, blocking until every job has finished and
/// returning results in submission order (the first job runs on the
/// caller's thread). Worker panics are caught and re-raised on the
/// caller.
pub struct ProbePool {
    shared: std::sync::Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

type ErasedJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: std::sync::Mutex<std::collections::VecDeque<ErasedJob>>,
    available: std::sync::Condvar,
    shutdown: std::sync::atomic::AtomicBool,
}

/// Lock a mutex, recovering from poisoning (no pool invariant is
/// protected by unwinding — results slots are all-or-nothing).
fn lock<'a, T>(m: &'a std::sync::Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ProbePool {
    /// A pool with `workers` parked threads (at least one). A pool sized
    /// for `k`-wide probing wants `k - 1` workers: the caller's thread
    /// runs the first job.
    pub fn new(workers: usize) -> ProbePool {
        let shared = std::sync::Arc::new(PoolShared {
            queue: std::sync::Mutex::new(std::collections::VecDeque::new()),
            available: std::sync::Condvar::new(),
            shutdown: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = lock(&shared.queue);
                        loop {
                            if let Some(j) = q.pop_front() {
                                break j;
                            }
                            if shared.shutdown.load(std::sync::atomic::Ordering::Acquire) {
                                return;
                            }
                            q = shared
                                .available
                                .wait(q)
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                        }
                    };
                    job();
                })
            })
            .collect();
        ProbePool { shared, workers }
    }

    /// Runs the jobs, first on the caller's thread and the rest on pool
    /// workers, and returns their results in submission order. Blocks
    /// until **every** submitted job has completed, so the jobs may
    /// borrow from the caller's stack even though the internal handoff
    /// erases their lifetimes.
    pub fn run<'env, R: Send + 'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send + 'env>>,
    ) -> Vec<R> {
        let n = jobs.len();
        if n <= 1 {
            return jobs.into_iter().map(|j| j()).collect();
        }
        struct RunState<R> {
            results: std::sync::Mutex<Vec<Option<std::thread::Result<R>>>>,
            pending: std::sync::Mutex<usize>,
            done: std::sync::Condvar,
        }
        let state = std::sync::Arc::new(RunState::<R> {
            results: std::sync::Mutex::new((0..n).map(|_| None).collect()),
            pending: std::sync::Mutex::new(n - 1),
            done: std::sync::Condvar::new(),
        });
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("n > 1");
        {
            let mut q = lock(&self.shared.queue);
            for (k, job) in jobs.enumerate() {
                let st = std::sync::Arc::clone(&state);
                let closure: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                    lock(&st.results)[k + 1] = Some(r);
                    let mut p = lock(&st.pending);
                    *p -= 1;
                    if *p == 0 {
                        st.done.notify_all();
                    }
                });
                // SAFETY: the erased closure borrows (at most) from
                // `'env`, and this function does not return until the
                // barrier below has observed every job complete — the
                // borrows cannot outlive the frames they point into. A
                // `Box<dyn FnOnce + Send>` has the same layout for any
                // lifetime bound; only the bound is erased.
                let erased: ErasedJob = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, ErasedJob>(closure)
                };
                q.push_back(erased);
            }
            self.shared.available.notify_all();
        }
        let first_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(first));
        {
            let mut p = lock(&state.pending);
            while *p > 0 {
                p = state.done.wait(p).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        let mut slots = lock(&state.results);
        slots[0] = Some(first_result);
        slots
            .drain(..)
            .map(|r| match r.expect("barrier guarantees completion") {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

impl Drop for ProbePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, std::sync::atomic::Ordering::Release);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

pub mod reference {
    //! The naive backtracking homomorphism search — the seed
    //! implementation, preserved as the differential-testing oracle for
    //! the planned matcher ([`crate::arena::ArenaPlan`]). Every search
    //! clones a `HashMap`-backed [`Subst`] per seed and walks the source
    //! atoms in their written order; its value is being obviously correct
    //! and independently derived. Do not "optimize" this module.

    use crate::atom::{Atom, Predicate};
    use crate::subst::Subst;
    use crate::term::{Term, Var};
    use std::collections::HashMap;

    /// Target atom indices per `(predicate, arity)` key, ascending.
    type Buckets = HashMap<(Predicate, usize), Vec<usize>>;

    fn by_key(atoms: &[Atom]) -> Buckets {
        let mut m: Buckets = HashMap::new();
        for (i, a) in atoms.iter().enumerate() {
            m.entry(a.key()).or_default().push(i);
        }
        m
    }

    /// Tries to unify the source atom with the target atom under `s`,
    /// mutating `s`. Returns the bindings added (for backtracking) or
    /// `None`.
    fn match_atom(src: &Atom, dst: &Atom, s: &mut Subst) -> Option<Vec<Var>> {
        debug_assert_eq!(src.key(), dst.key());
        let mut added = Vec::new();
        for (st, dt) in src.args.iter().zip(dst.args.iter()) {
            match st {
                Term::Const(c) => {
                    if *dt != Term::Const(*c) {
                        for v in &added {
                            s.remove(*v);
                        }
                        return None;
                    }
                }
                Term::Var(v) => match s.get(*v) {
                    Some(bound) => {
                        if bound != dt {
                            for w in &added {
                                s.remove(*w);
                            }
                            return None;
                        }
                    }
                    None => {
                        s.set(*v, *dt);
                        added.push(*v);
                    }
                },
            }
        }
        Some(added)
    }

    /// Backtracking search. `emit` is called with each complete
    /// homomorphism; returning `false` from `emit` stops the search.
    fn search(
        src: &[Atom],
        dst: &[Atom],
        buckets: &Buckets,
        idx: usize,
        s: &mut Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        if idx == src.len() {
            return emit(s);
        }
        let atom = &src[idx];
        let Some(cands) = buckets.get(&atom.key()) else {
            return true; // no candidates: this branch yields nothing
        };
        for &j in cands {
            if let Some(added) = match_atom(atom, &dst[j], s) {
                let keep_going = search(src, dst, buckets, idx + 1, s, emit);
                for v in added {
                    s.remove(v);
                }
                if !keep_going {
                    return false;
                }
            }
        }
        true
    }

    /// Lazily enumerates homomorphisms from `src` into `dst` extending
    /// `seed`, in the written atom order; returning `false` from `emit`
    /// stops the search.
    pub fn search_homomorphisms(
        src: &[Atom],
        dst: &[Atom],
        seed: &Subst,
        emit: &mut dyn FnMut(&Subst) -> bool,
    ) {
        let mut s = seed.clone();
        search(src, dst, &by_key(dst), 0, &mut s, emit);
    }

    /// First homomorphism extending `seed`, if any.
    pub fn extend_homomorphism(src: &[Atom], dst: &[Atom], seed: &Subst) -> Option<Subst> {
        let mut found = None;
        search_homomorphisms(src, dst, seed, &mut |h| {
            found = Some(h.clone());
            false
        });
        found
    }

    /// First homomorphism extending `seed` and satisfying `pred`.
    pub fn find_homomorphism_where(
        src: &[Atom],
        dst: &[Atom],
        seed: &Subst,
        pred: &mut dyn FnMut(&Subst) -> bool,
    ) -> Option<Subst> {
        let mut found = None;
        search_homomorphisms(src, dst, seed, &mut |h| {
            if pred(h) {
                found = Some(h.clone());
                false
            } else {
                true
            }
        });
        found
    }

    /// All homomorphisms extending `seed`, deduplicated by their sorted
    /// binding pairs (the historical allocation-per-emission dedup, kept
    /// as the oracle for the planned path's slot-slice dedup). Returns
    /// the homomorphisms and whether the cap cut the enumeration short.
    pub fn enumerate_homomorphisms(
        src: &[Atom],
        dst: &[Atom],
        seed: &Subst,
        cap: usize,
    ) -> (Vec<Subst>, bool) {
        let mut out: Vec<Subst> = Vec::new();
        let mut truncated = false;
        let mut seen: std::collections::HashSet<Vec<(Var, Term)>> =
            std::collections::HashSet::new();
        search_homomorphisms(src, dst, seed, &mut |h| {
            if seen.insert(h.sorted_pairs()) {
                if out.len() == cap {
                    truncated = true;
                    return false;
                }
                out.push(h.clone());
            }
            true
        });
        (out, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::subst::Subst;
    use crate::term::Term;

    #[test]
    fn probe_pool_preserves_submission_order_and_reuses_workers() {
        let pool = ProbePool::new(3);
        for _ in 0..4 {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..7usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            assert_eq!(pool.run(jobs), vec![0, 1, 4, 9, 16, 25, 36]);
        }
    }

    #[test]
    fn probe_pool_jobs_may_borrow_caller_state() {
        let pool = ProbePool::new(2);
        let data: Vec<usize> = (0..100).collect();
        let slices: Vec<&[usize]> = data.chunks(25).collect();
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send + '_>> = slices
            .iter()
            .map(|s| {
                let s = *s;
                Box::new(move || s.iter().sum::<usize>()) as Box<dyn FnOnce() -> usize + Send + '_>
            })
            .collect();
        assert_eq!(pool.run(jobs).into_iter().sum::<usize>(), (0..100).sum());
    }

    #[test]
    fn enumeration_reports_truncation() {
        // 2^18 = 262144 > MAX_HOMOMORPHISMS homomorphisms: 18 independent
        // source atoms with 2 candidates each.
        use crate::atom::Atom;
        use crate::hom::MAX_HOMOMORPHISMS;
        let src_body: Vec<Atom> = (0..18)
            .map(|i| Atom::new(&format!("p{i}"), vec![Term::var(&format!("X{i}"))]))
            .collect();
        let mut dst_body: Vec<Atom> = Vec::new();
        for i in 0..18 {
            dst_body.push(Atom::new(&format!("p{i}"), vec![Term::int(0)]));
            dst_body.push(Atom::new(&format!("p{i}"), vec![Term::int(1)]));
        }
        let (homs, truncated) = reference::enumerate_homomorphisms(
            &src_body,
            &dst_body,
            &Subst::new(),
            MAX_HOMOMORPHISMS,
        );
        assert!(truncated);
        assert_eq!(homs.len(), MAX_HOMOMORPHISMS);
        // A small instance is complete and unflagged.
        let (small, truncated) = reference::enumerate_homomorphisms(
            &src_body[..2],
            &dst_body[..4],
            &Subst::new(),
            MAX_HOMOMORPHISMS,
        );
        assert!(!truncated);
        assert_eq!(small.len(), 4);
    }

    #[test]
    fn enumeration_counts_targets_and_dedups_bindings() {
        let src = parse_query("q() :- p(X)").unwrap().body;
        let three = parse_query("q() :- p(A), p(B), p(C)").unwrap().body;
        let (homs, _) = reference::enumerate_homomorphisms(&src, &three, &Subst::new(), 10);
        assert_eq!(homs.len(), 3);
        // Duplicate target atoms yield the same variable mapping.
        let dup = parse_query("q() :- p(A), p(A)").unwrap().body;
        let (homs, _) = reference::enumerate_homomorphisms(&src, &dup, &Subst::new(), 10);
        assert_eq!(homs.len(), 1);
    }
}
