//! The three workloads, generated from a seed, and the expected verdict of
//! every generated request, computed in-process without cache or server.

use crate::window::{MIN_POOLED, MIN_WINDOW_REQUESTS, QUIET_SHARE};
use eqsql_core::{
    cnb_via, counterexample::separating_database_via, sigma_equivalent_via, CnbOptions,
    DirectChaser, EquivOutcome,
};
use eqsql_cq::{are_isomorphic, Atom, CqQuery, Predicate, Term, Var};
use eqsql_gen::rename_isomorphic;
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{
    parse_request_file, parse_request_line, query_fingerprint, Counterexample, Request, RequestFile,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Which traffic mix a run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    WarmEquiv,
    ColdCnb,
    RestartDisk,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm_equiv" => Some(Workload::WarmEquiv),
            "cold_cnb" => Some(Workload::ColdCnb),
            "restart_disk" => Some(Workload::RestartDisk),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmEquiv => "warm_equiv",
            Workload::ColdCnb => "cold_cnb",
            Workload::RestartDisk => "restart_disk",
        }
    }

    /// Requests in one timed phase. The count is a function of the
    /// arguments only, never of a clock, so every run with the same
    /// arguments does the same work; the rates are what the workloads
    /// sustain on a 2-core x86-64 VM, so a run measures for about
    /// `--seconds`. `restart_disk` repeats a stream of fixed length in
    /// [`Workload::rounds`] instead: its snapshots rewrite the whole
    /// store, so a longer stream would make each run write (and fsync)
    /// quadratically more.
    pub fn timed_requests(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::WarmEquiv => 2800.0,
            Workload::ColdCnb => 1300.0,
            Workload::RestartDisk => return RESTART_PHASE_REQUESTS,
        };
        (seconds as f64 * per_second).round() as usize
    }

    /// Timed phases per run, each on a freshly launched server. A
    /// `restart_disk` phase is one window and takes under a second; two a
    /// second give the quicker phases enough samples to hold steady.
    pub fn rounds(self, seconds: u64) -> usize {
        match self {
            Workload::RestartDisk => (seconds as usize * 2).max(4),
            Workload::WarmEquiv | Workload::ColdCnb => 1,
        }
    }
}

/// Requests in one `restart_disk` phase.
const RESTART_PHASE_REQUESTS: usize = 1100;

/// What a verdict line must say.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub outcome: &'static str,
    pub evidence: String,
}

/// One generated request: the wire line and its decoded form.
pub struct Item {
    pub line: String,
    pub request: Request,
    /// Index into the stream's `expected` table.
    pub expect: usize,
}

/// Everything a run needs about its inputs.
pub struct Stream {
    pub file: RequestFile,
    /// The untimed warm-up pass (`warm_equiv` only).
    pub warmup: Vec<Item>,
    /// The timed stream, in send order.
    pub timed: Vec<Item>,
    pub expected: Vec<Expected>,
    /// Requests per measuring window (see `window.rs`): consecutive
    /// windows of the timed stream do the same work.
    pub window: usize,
}

fn sem_name(sem: Semantics) -> &'static str {
    match sem {
        Semantics::Set => "set",
        Semantics::Bag => "bag",
        Semantics::BagSet => "bagset",
    }
}

const SEMANTICS: [Semantics; 3] = [Semantics::Set, Semantics::Bag, Semantics::BagSet];

/// Builds the stream of `workload` from the committed `equiv_batch.req`
/// fixture (its Σ, schema and budgets; for `warm_equiv` also its 124
/// pairs) and the seed, with about `n` timed requests.
///
/// The timed streams of `warm_equiv` and `cold_cnb` are rounds, each of
/// which holds every base pair or every template once in a seeded order,
/// and their windows are whole rounds, so every window does the same work.
/// A `restart_disk` window is its whole phase: the phase's halves do
/// different work (disk reads, then appends).
pub fn build(workload: Workload, fixture: &str, seed: u64, n: usize) -> Result<Stream, String> {
    let file = parse_request_file(fixture).map_err(|e| format!("fixture: {e:?}"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    // Whole rounds per window, and enough windows that the quickest of
    // them pool `MIN_POOLED` verdicts.
    let windowed = |round: usize| {
        let window = round * MIN_WINDOW_REQUESTS.div_ceil(round);
        let quiet_min = (MIN_POOLED as f64 / QUIET_SHARE).ceil() as usize;
        (window, n.max(quiet_min).div_ceil(window) * window)
    };
    match workload {
        Workload::WarmEquiv => {
            let base: Vec<(Semantics, CqQuery, CqQuery)> = file
                .requests
                .iter()
                .map(|r| match r {
                    Request::Equivalent { q1, q2, opts } => {
                        Ok((opts.sem.unwrap_or(Semantics::Set), q1.clone(), q2.clone()))
                    }
                    other => Err(format!("fixture holds a non-pair request: {}", other.label())),
                })
                .collect::<Result<_, _>>()?;
            let expected = base
                .iter()
                .map(|(sem, q1, q2)| expect_equiv(&file, *sem, q1, q2))
                .collect::<Result<Vec<_>, _>>()?;
            let (window, n) = windowed(base.len());
            let pair = |sem, q1: &CqQuery, q2: &CqQuery, expect| {
                item(format!("pair: {} | {q1} | {q2}", sem_name(sem)), &file.schema, expect)
            };
            let warmup = base
                .iter()
                .enumerate()
                .map(|(b, (sem, q1, q2))| pair(*sem, q1, q2, b))
                .collect::<Result<Vec<_>, _>>()?;
            // Rounds of α-renamed, shuffled copies of every pair: each copy
            // is a memory hit confirmed by isomorphism. A copy's expected
            // verdict is its base pair's, since verdicts are invariant
            // under renaming.
            let mut timed = Vec::with_capacity(n);
            while timed.len() < n {
                let mut order: Vec<usize> = (0..base.len()).collect();
                order.shuffle(&mut rng);
                for b in order.into_iter().take(n - timed.len()) {
                    let (sem, q1, q2) = &base[b];
                    let (r1, r2) =
                        (rename_isomorphic(&mut rng, q1), rename_isomorphic(&mut rng, q2));
                    timed.push(pair(*sem, &r1, &r2, b)?);
                }
            }
            Ok(Stream { file, warmup, timed, expected, window })
        }
        Workload::ColdCnb | Workload::RestartDisk => {
            let templates = templates(&file.schema);
            let (window, n) = match workload {
                Workload::RestartDisk => (n, n),
                _ => windowed(templates.len()),
            };
            let queries = distinct_queries(&mut rng, &templates, n);
            let mut timed = Vec::with_capacity(n);
            for (i, q) in queries.iter().enumerate() {
                let sem = SEMANTICS[i % 3];
                timed.push(item(format!("cnb: {} | {q}", sem_name(sem)), &file.schema, i)?);
            }
            let expected = expect_all_cnb(&file, &timed)?;
            Ok(Stream { file, warmup: Vec::new(), timed, expected, window })
        }
    }
}

fn item(line: String, schema: &Schema, expect: usize) -> Result<Item, String> {
    let request = parse_request_line(&line, schema).map_err(|e| format!("{line}: {e:?}"))?;
    Ok(Item { line, request, expect })
}

/// Relation lists of the `cnb:` query shapes. Each universal plan stays
/// small (at most 7 atoms), so a backchase costs milliseconds and a run
/// yields enough verdicts for p99. Shapes with `p` are left out: `p`
/// alone chases to an 11-atom plan whose backchase takes seconds.
const SHAPES: &[&[&str]] = &[
    &["r"],
    &["u"],
    &["r", "s"],
    &["u", "t"],
    &["r", "u"],
    &["u1", "t"],
    &["r", "t"],
    &["s", "r1"],
];

/// Templates per shape, drawn from a fixed structure seed: the joins and
/// heads are the same for every `--seed`, which picks each instance's
/// constants and the request order. A run's cost then does not depend on
/// which structures its seed happens to draw.
const TEMPLATES_PER_SHAPE: usize = 4;
const STRUCTURE_SEED: u64 = 0x5eed_cb0b;

/// A query template: atoms over variables `V0..`, with `None` marking an
/// argument that each instance fills with a fresh constant.
struct Template {
    head: Vec<Var>,
    body: Vec<(Predicate, Vec<Option<Var>>)>,
}

fn templates(schema: &Schema) -> Vec<Template> {
    let mut rng = StdRng::seed_from_u64(STRUCTURE_SEED);
    let mut out = Vec::new();
    for shape in SHAPES {
        let mut made = 0;
        while made < TEMPLATES_PER_SHAPE {
            let pool: Vec<Var> = (0..shape.len() + 1).map(|i| Var::new(&format!("V{i}"))).collect();
            let body: Vec<(Predicate, Vec<Option<Var>>)> = shape
                .iter()
                .map(|r| {
                    let pred = Predicate::new(r);
                    let arity = schema.arity(pred).expect("shape relations are in the schema");
                    let args = (0..arity)
                        .map(|_| (!rng.gen_bool(0.25)).then(|| pool[rng.gen_range(0..pool.len())]))
                        .collect();
                    (pred, args)
                })
                .collect();
            // Every instance must differ from every other, so each template
            // needs a constant slot.
            if !body.iter().any(|(_, args)| args.iter().any(Option::is_none)) {
                continue;
            }
            let mut vars: Vec<Var> = Vec::new();
            for v in body.iter().flat_map(|(_, a)| a.iter().flatten()) {
                if !vars.contains(v) {
                    vars.push(*v);
                }
            }
            let head = vars.into_iter().filter(|_| rng.gen_bool(0.5)).collect();
            out.push(Template { head, body });
            made += 1;
        }
    }
    out
}

/// `n` safe CQs, pairwise non-isomorphic, in rounds that each instantiate
/// every template once, in a seeded order.
fn distinct_queries(rng: &mut StdRng, templates: &[Template], n: usize) -> Vec<CqQuery> {
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut out: Vec<CqQuery> = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::new();
    while out.len() < n {
        if order.is_empty() {
            order = (0..templates.len()).collect();
            order.shuffle(rng);
        }
        let t = &templates[*order.last().expect("refilled above")];
        let body = t
            .body
            .iter()
            .map(|(pred, args)| Atom {
                pred: *pred,
                args: args
                    .iter()
                    .map(|a| match a {
                        Some(v) => Term::Var(*v),
                        None => Term::int(rng.gen_range(0..1_000_000)),
                    })
                    .collect(),
            })
            .collect();
        let q = CqQuery::new("q", t.head.iter().map(|v| Term::Var(*v)).collect(), body);
        let bucket = seen.entry(query_fingerprint(&q)).or_default();
        if bucket.iter().any(|&k| are_isomorphic(&out[k], &q)) {
            continue; // the same template again, with other constants
        }
        bucket.push(out.len());
        out.push(q);
        order.pop();
    }
    out
}

/// The expected verdict of one `pair:` request, from the direct
/// (uncached) engine: the outcome of `sigma_equivalent_via`, and the
/// evidence class the Solver attaches to it.
fn expect_equiv(
    file: &RequestFile,
    sem: Semantics,
    q1: &CqQuery,
    q2: &CqQuery,
) -> Result<Expected, String> {
    let (sigma, schema, config) = (&file.sigma, &file.schema, &file.config);
    match sigma_equivalent_via(&DirectChaser, sem, q1, q2, sigma, schema, config) {
        EquivOutcome::Equivalent => {
            let failed = |q| {
                eqsql_chase::sound_chase(sem, q, sigma, schema, config)
                    .map(|c| c.failed)
                    .unwrap_or(false)
            };
            let evidence = if failed(q1) && failed(q2) {
                "both-unsatisfiable"
            } else if sem == Semantics::Set {
                "containment-homs"
            } else {
                "isomorphism"
            };
            Ok(Expected { outcome: "equivalent", evidence: evidence.into() })
        }
        EquivOutcome::NotEquivalent => {
            let witness =
                separating_database_via(&DirectChaser, sem, q1, q2, sigma, schema, config)
                    .is_some_and(|db| {
                        Counterexample { db, sem }.verify(q1, q2, sigma, schema).is_ok()
                    });
            let evidence = if witness { "witness-db" } else { "none" };
            Ok(Expected { outcome: "not-equivalent", evidence: evidence.into() })
        }
        EquivOutcome::Unknown(e) => Err(format!("pair {q1} | {q2}: chase gave up: {e}")),
    }
}

/// The expected verdict of every `cnb:` request, from `cnb_via` over the
/// direct engine, on two threads (the machine's cores; nothing else runs
/// while inputs are prepared).
fn expect_all_cnb(file: &RequestFile, items: &[Item]) -> Result<Vec<Expected>, String> {
    let one = |it: &Item| -> Result<Expected, String> {
        let Request::Reformulate { q, opts } = &it.request else {
            return Err(format!("not a cnb request: {}", it.line));
        };
        let sem = opts.sem.unwrap_or(Semantics::Set);
        let r = cnb_via(
            &DirectChaser,
            sem,
            q,
            &file.sigma,
            &file.schema,
            &file.config,
            &CnbOptions::default(),
        )
        .map_err(|e| format!("{}: {e}", it.line))?;
        Ok(Expected {
            outcome: "reformulated",
            evidence: format!("reformulations={}", r.reformulations.len()),
        })
    };
    let half = items.len() / 2;
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| items[half..].iter().map(one).collect::<Result<Vec<_>, _>>());
        let a = items[..half].iter().map(one).collect::<Result<Vec<_>, _>>();
        (a, h.join().expect("expected-verdict worker panicked"))
    });
    let mut out = a?;
    out.extend(b?);
    Ok(out)
}
