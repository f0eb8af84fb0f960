//! CSG instances `I(Γ) = (I_N, I_P)` (Definition 2) and expression
//! evaluation over them.
//!
//! The instance is column-native: a node's extension `I_N` is held as
//! its element count alone, elements being the indices `0..count`. For
//! a converted database these are a table's rows and an attribute's
//! first-seen distinct-value codes, so no value is copied out of the
//! columns. `I_P` is one `(from, to)` index vector per relationship.
//!
//! Two evaluators live here (DESIGN.md §2i):
//!
//! * [`CsgInstance::eval`] materialises the full link set as a
//!   `BTreeSet<(Key, Key)>` — the direct transcription of the §4.1
//!   operator definitions, kept as the differential-test oracle;
//! * [`CsgInstance::count_eval`] computes only the **per-domain-element
//!   link counts** (`Vec<u64>`) that conflict detection actually
//!   consumes, by streaming frontier expansion over lazily-built CSR
//!   adjacency — no keys, no `BTreeSet`, no per-link allocation.
//!
//! [`CsgInstance::link_counts`] routes through the counting evaluator
//! plus a per-instance expression memo (each distinct `(expr, domain)`
//! pair is evaluated once per instance epoch). The `BTreeSet` path is
//! reached only through [`CsgInstance::link_counts_reference_ctx`],
//! which tests and benches call as the oracle.

use crate::expr::{DomainWidth, RelExpr};
use crate::graph::{Csg, Direction, NodeId, RelId, RelRef};
use efes_exec::{Cancelled, Checkpoint, RunContext};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Key of an element (or, for join/collateral results, an element tuple)
/// inside the evaluation machinery: per-node element indices.
pub type Key = Vec<u32>;

/// A set of links, each connecting a (possibly compound) domain key to a
/// (possibly compound) codomain key. `BTreeSet` keeps evaluation
/// deterministic.
pub type LinkSet = BTreeSet<(Key, Key)>;

static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(hits, misses)` of the expression-result memo, across
/// all instances — consumed by the serve layer's Prometheus renderer
/// (`efes_csg_eval_memo_{hits,misses}_total`), same pattern as
/// `efes_exec::fault::injected_counters`.
pub fn eval_memo_counters() -> (u64, u64) {
    (
        MEMO_HITS.load(Ordering::Relaxed),
        MEMO_MISSES.load(Ordering::Relaxed),
    )
}

/// CSR adjacency of one directed reading: `neighbours[offsets[f] ..
/// offsets[f + 1]]` are the **distinct** to-side element indices linked
/// from from-side index `f`, sorted ascending. Duplicate raw links are
/// collapsed at build time, mirroring the `BTreeSet` oracle's set
/// semantics.
#[derive(Debug)]
struct CsrReading {
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
    /// Exclusive upper bound on the to-side indices appearing in
    /// `neighbours` — sizes the sweep's stamp arrays.
    to_bound: usize,
}

impl CsrReading {
    /// Distinct neighbours of from-index `f` (empty past the last
    /// linked index, matching the oracle's "no entry in `by_domain`").
    fn row(&self, f: u32) -> &[u32] {
        let f = f as usize;
        if f + 1 >= self.offsets.len() {
            return &[];
        }
        &self.neighbours[self.offsets[f] as usize..self.offsets[f + 1] as usize]
    }

    fn degree(&self, f: u32) -> u64 {
        let f = f as usize;
        if f + 1 >= self.offsets.len() {
            return 0;
        }
        (self.offsets[f + 1] - self.offsets[f]) as u64
    }
}

fn build_csr(links: &[(u32, u32)], dir: Direction, ck: &Checkpoint<'_>) -> Result<CsrReading, Cancelled> {
    assert!(
        links.len() < u32::MAX as usize,
        "CSR offsets are u32: relationship has too many links"
    );
    let orient = |&(f, t): &(u32, u32)| match dir {
        Direction::Forward => (f, t),
        Direction::Backward => (t, f),
    };
    // The two scan passes are tight branchless loops: one bulk tick
    // each keeps them auto-vectorisable while still honouring the
    // checkpoint's amortisation contract.
    let mut n_from = 0usize;
    let mut to_bound = 0usize;
    ck.tick_n(links.len() as u64)?;
    for l in links {
        let (f, t) = orient(l);
        n_from = n_from.max(f as usize + 1);
        to_bound = to_bound.max(t as usize + 1);
    }
    let mut offsets = vec![0u32; n_from + 1];
    ck.tick_n(links.len() as u64)?;
    for l in links {
        let (f, _) = orient(l);
        offsets[f as usize + 1] += 1;
    }
    for i in 0..n_from {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut neighbours = vec![0u32; links.len()];
    for l in links {
        ck.tick()?;
        let (f, t) = orient(l);
        let c = &mut cursor[f as usize];
        neighbours[*c as usize] = t;
        *c += 1;
    }
    // Sort + dedup each row in place (compacting forward: the write
    // cursor never overtakes the read position).
    let mut write = 0usize;
    let mut compact = vec![0u32; n_from + 1];
    for i in 0..n_from {
        let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
        neighbours[start..end].sort_unstable();
        compact[i] = write as u32;
        let mut last = None;
        for j in start..end {
            ck.tick()?;
            let t = neighbours[j];
            if last != Some(t) {
                neighbours[write] = t;
                write += 1;
                last = Some(t);
            }
        }
    }
    compact[n_from] = write as u32;
    neighbours.truncate(write);
    neighbours.shrink_to_fit();
    Ok(CsrReading {
        offsets: compact,
        neighbours,
        to_bound,
    })
}

/// A lazily-built CSR slot that stays empty if its build is cancelled
/// (`OnceLock::get_or_try_init` is unstable, so build-then-publish).
#[derive(Debug, Default)]
struct CsrCell(OnceLock<CsrReading>);

/// One visited-stamp level of the counting sweep. Concurrent
/// under-construction sets always live at distinct composition depths,
/// so each depth owns a stamp array + generation counter; bumping the
/// generation starts a fresh set without clearing.
#[derive(Default)]
struct StampLevel {
    stamps: Vec<u64>,
    generation: u64,
}

/// Scratch state of one [`CsgInstance::count_eval_ctx`] sweep.
#[derive(Default)]
struct Sweep {
    levels: Vec<StampLevel>,
    pool: Vec<Vec<u32>>,
}

impl Sweep {
    fn begin(&mut self, depth: usize) {
        if self.levels.len() <= depth {
            self.levels.resize_with(depth + 1, StampLevel::default);
        }
        self.levels[depth].generation += 1;
    }
}

/// The expression-result memo: `(expr, domain) → counts`.
type CountMemo = Mutex<HashMap<(RelExpr, NodeId), Arc<Vec<u64>>>>;

/// Derived evaluation state of an instance: CSR adjacency per directed
/// reading and the expression-result memo. Invisible to equality,
/// serde, and cloning — a cloned or deserialised instance starts cold —
/// and invalidated wholesale by any mutation (the epoch bumps).
#[derive(Debug, Default)]
struct EvalCaches {
    /// `csr[rel * 2 + dir]`, built on first use per reading.
    csr: OnceLock<Box<[CsrCell]>>,
    /// Valid for the current epoch only.
    memo: CountMemo,
    /// Bumped by `set_element_count` / `set_links`.
    epoch: u64,
}

impl Clone for EvalCaches {
    fn clone(&self) -> Self {
        EvalCaches::default()
    }
}

impl PartialEq for EvalCaches {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for EvalCaches {}

/// A CSG instance: element sets `I_N` per node and link sets `I_P` per
/// relationship.
///
/// An element is its index: a node's elements are `0..element_count`.
/// Conversion ([`database_to_csg`](crate::convert::database_to_csg))
/// numbers a table node's tuples by row and an attribute node's values
/// by their first-seen codes in the column
/// ([`Column::distinct_codes`](efes_relational::Column::distinct_codes)),
/// so the values themselves stay in the columns and the instance holds
/// only counts and links.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsgInstance {
    /// `|I_N|`: the number of elements per node, indexed by `NodeId`.
    element_counts: Vec<usize>,
    /// `I_P`: links per relationship as (from-element-index,
    /// to-element-index) pairs, indexed by `RelId`.
    links: Vec<Vec<(u32, u32)>>,
    /// Lazily-derived CSR adjacency + expression memo (DESIGN.md §2i).
    #[serde(skip)]
    caches: EvalCaches,
}

impl CsgInstance {
    /// An empty instance shaped for `g`.
    pub fn empty(g: &Csg) -> Self {
        CsgInstance {
            element_counts: vec![0; g.nodes().len()],
            links: vec![Vec::new(); g.relationships().len()],
            caches: EvalCaches::default(),
        }
    }

    /// Give `node` the elements `0..count`.
    pub fn set_element_count(&mut self, node: NodeId, count: usize) {
        self.invalidate_eval_caches();
        self.element_counts[node.0] = count;
    }

    /// Replace the links of `rel`, as `(from, to)` element indices.
    pub fn set_links(&mut self, rel: RelId, links: Vec<(u32, u32)>) {
        self.invalidate_eval_caches();
        self.links[rel.0] = links;
    }

    /// Drop all derived evaluation state and start a new epoch. Called
    /// by every mutating method; cheap when the caches are cold (the
    /// common case during instance construction).
    fn invalidate_eval_caches(&mut self) {
        self.caches.epoch += 1;
        self.caches.csr.take();
        self.caches
            .memo
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// The instance's evaluation epoch: bumped by every mutation. Each
    /// distinct `(expression, domain)` pair is evaluated at most once
    /// per epoch — [`link_counts`](Self::link_counts) results are
    /// memoised until the next mutation invalidates them.
    pub fn eval_epoch(&self) -> u64 {
        self.caches.epoch
    }

    /// Number of elements of one node.
    pub fn element_count(&self, node: NodeId) -> usize {
        self.element_counts[node.0]
    }

    /// The raw links of one relationship.
    pub fn links_of(&self, rel: RelId) -> &[(u32, u32)] {
        &self.links[rel.0]
    }

    /// The links of a directed reading as a [`LinkSet`] of singleton keys.
    pub fn reading_links(&self, r: RelRef) -> LinkSet {
        self.links[r.rel.0]
            .iter()
            .map(|(f, t)| match r.dir {
                Direction::Forward => (vec![*f], vec![*t]),
                Direction::Backward => (vec![*t], vec![*f]),
            })
            .collect()
    }

    /// Evaluate a relationship expression to its link set, per the
    /// operator definitions of §4.1:
    ///
    /// * `I_P(ρ₁ ∘ ρ₂) = I_P(ρ₁) ∘ I_P(ρ₂)` (relation composition),
    /// * `I_P(ρ₁ ∪ ρ₂) = I_P(ρ₁) ∪ I_P(ρ₂)`,
    /// * `I_P(ρ₁ ⋈ ρ₂) = {((a,b),c) : (a,c) ∈ I_P(ρ₁) ∧ (b,c) ∈ I_P(ρ₂)}`,
    /// * `I_P(ρ₁ ∥ ρ₂) = {((a,c),(b,d)) : (a,b) ∈ I_P(ρ₁) ∧ (c,d) ∈
    ///   I_P(ρ₂)}`.
    pub fn eval(&self, expr: &RelExpr) -> LinkSet {
        let run = RunContext::unbounded();
        let ck = run.checkpoint();
        self.eval_ctx(expr, &ck)
            .expect("unbounded context never cancels")
    }

    /// Like [`eval`](Self::eval), but cancellable: link materialisation
    /// loops tick `ck` and abort with [`Cancelled`] when the owning run
    /// is cancelled. The evaluation is the dominant cost of conflict
    /// detection at scale, so this is where deadline expiry actually
    /// interrupts a running structure stage.
    pub fn eval_ctx(&self, expr: &RelExpr, ck: &Checkpoint<'_>) -> Result<LinkSet, Cancelled> {
        match expr {
            RelExpr::Atomic(r) => {
                let mut out = LinkSet::new();
                for (f, t) in &self.links[r.rel.0] {
                    ck.tick()?;
                    out.insert(match r.dir {
                        Direction::Forward => (vec![*f], vec![*t]),
                        Direction::Backward => (vec![*t], vec![*f]),
                    });
                }
                Ok(out)
            }
            RelExpr::Compose(a, b) => {
                let la = self.eval_ctx(a, ck)?;
                let lb = self.eval_ctx(b, ck)?;
                let mut by_domain: HashMap<&Key, Vec<&Key>> = HashMap::new();
                for (f, t) in &lb {
                    ck.tick()?;
                    by_domain.entry(f).or_default().push(t);
                }
                let mut out = LinkSet::new();
                for (f, mid) in &la {
                    ck.tick()?;
                    if let Some(tails) = by_domain.get(mid) {
                        for t in tails {
                            ck.tick()?;
                            out.insert((f.clone(), (*t).clone()));
                        }
                    }
                }
                Ok(out)
            }
            RelExpr::Union(a, b, _) => {
                let mut out = self.eval_ctx(a, ck)?;
                out.extend(self.eval_ctx(b, ck)?);
                Ok(out)
            }
            RelExpr::Join(a, b) => {
                let la = self.eval_ctx(a, ck)?;
                let lb = self.eval_ctx(b, ck)?;
                let mut by_codomain: HashMap<&Key, Vec<&Key>> = HashMap::new();
                for (f, t) in &lb {
                    ck.tick()?;
                    by_codomain.entry(t).or_default().push(f);
                }
                let mut out = LinkSet::new();
                for (a_key, c_key) in &la {
                    ck.tick()?;
                    if let Some(bs) = by_codomain.get(c_key) {
                        for b_key in bs {
                            ck.tick()?;
                            let mut compound = a_key.clone();
                            compound.extend_from_slice(b_key);
                            out.insert((compound, c_key.clone()));
                        }
                    }
                }
                Ok(out)
            }
            RelExpr::Collateral(a, b) => {
                let la = self.eval_ctx(a, ck)?;
                let lb = self.eval_ctx(b, ck)?;
                let mut out = LinkSet::new();
                for (a_key, b_key) in &la {
                    for (c_key, d_key) in &lb {
                        ck.tick()?;
                        let mut dom = a_key.clone();
                        dom.extend_from_slice(c_key);
                        let mut cod = b_key.clone();
                        cod.extend_from_slice(d_key);
                        out.insert((dom, cod));
                    }
                }
                Ok(out)
            }
        }
    }

    /// Per-domain-element link counts for an expression whose domain is
    /// the atomic node `domain`: returns, for **every** element of the
    /// domain node, how many links leave it (elements without links count
    /// 0 — these are exactly the "detached" elements).
    ///
    /// Only links with singleton domain keys are tallied — a
    /// [`Compound`](DomainWidth::Compound)-domain expression (headed by
    /// `⋈`/`∥`) therefore counts 0 for every element. Passing one is
    /// almost always a caller bug, so it trips a `debug_assert`; use
    /// [`try_link_counts_ctx`](Self::try_link_counts_ctx) for the
    /// explicit `None` path when the expression shape is not statically
    /// known.
    ///
    /// Results are memoised per `(expr, domain)` until the next
    /// mutation ([`eval_epoch`](Self::eval_epoch)); evaluation streams
    /// through [`count_eval`](Self::count_eval).
    pub fn link_counts(&self, expr: &RelExpr, domain: NodeId) -> Vec<u64> {
        let run = RunContext::unbounded();
        let ck = run.checkpoint();
        self.link_counts_ctx(expr, domain, &ck)
            .expect("unbounded context never cancels")
    }

    /// Like [`link_counts`](Self::link_counts), but cancellable.
    pub fn link_counts_ctx(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Vec<u64>, Cancelled> {
        self.link_counts_shared_ctx(expr, domain, ck)
            .map(|arc| (*arc).clone())
    }

    /// Like [`link_counts_ctx`](Self::link_counts_ctx), but shares the
    /// memoised result instead of copying it out — the conflict
    /// detector's entry point (a hit at 10⁷ rows would otherwise clone
    /// an 80 MB vector).
    pub fn link_counts_shared_ctx(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Arc<Vec<u64>>, Cancelled> {
        debug_assert!(
            expr.domain_width() != DomainWidth::Compound,
            "link_counts on a compound-key domain ({expr:?}): every link is \
             dropped by the singleton-key filter, so the result is all zeros; \
             use try_link_counts_ctx for the explicit None path"
        );
        self.counts_memoized(expr, domain, ck)
    }

    /// [`link_counts_ctx`](Self::link_counts_ctx) with the
    /// compound-domain contract made explicit: returns `Ok(None)` when
    /// `expr` has a [`Compound`](DomainWidth::Compound) domain (no link
    /// can ever be tallied per element), `Ok(Some(counts))` otherwise.
    pub fn try_link_counts_ctx(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Option<Arc<Vec<u64>>>, Cancelled> {
        if expr.domain_width() == DomainWidth::Compound {
            return Ok(None);
        }
        self.counts_memoized(expr, domain, ck).map(Some)
    }

    fn counts_memoized(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Arc<Vec<u64>>, Cancelled> {
        let key = (expr.clone(), domain);
        if let Some(hit) = self
            .caches
            .memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&key)
        {
            MEMO_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
        let arc = Arc::new(self.count_eval_ctx(expr, domain, ck)?);
        self.caches
            .memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, arc.clone());
        Ok(arc)
    }

    /// The pre-counting `link_counts` implementation — materialise the
    /// full link set with [`eval_ctx`](Self::eval_ctx), then tally
    /// singleton-key domains. Kept as the differential-test oracle
    /// (same pattern as `compute_multipass` and
    /// `similarity_flooding_reference`); no production path calls it.
    pub fn link_counts_reference_ctx(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Vec<u64>, Cancelled> {
        let links = self.eval_ctx(expr, ck)?;
        let mut counts = vec![0u64; self.element_count(domain)];
        for (f, _) in &links {
            ck.tick()?;
            if f.len() == 1 {
                if let Some(c) = counts.get_mut(f[0] as usize) {
                    *c += 1;
                }
            }
        }
        Ok(counts)
    }

    /// The counting evaluator: per-domain-element **distinct-link
    /// counts** without materialising a single key.
    ///
    /// For every element `f` of `domain` it computes
    /// `|{t : ([f], t) ∈ I_P(expr)}|` — exactly what
    /// [`link_counts`](Self::link_counts) derives from the `BTreeSet`
    /// oracle — by expanding a frontier of element indices through the
    /// cached CSR adjacency of each atomic reading:
    ///
    /// * `Atomic`: one CSR row lookup (rows are pre-deduplicated);
    /// * `Compose`: expand the left operand into an intermediate
    ///   frontier, then the right operand from it;
    /// * `Union`: expand both operands into the same stamped set
    ///   (cross-branch duplicates collapse, like the oracle's set
    ///   union);
    /// * `Join`/`Collateral`: contribute **nothing** — every link they
    ///   produce carries a compound domain key, which a singleton
    ///   frontier index can never match (composing onto one matches no
    ///   mid key, and the top-level tally drops compound keys). This is
    ///   the count algebra's exact answer, not an approximation, and
    ///   the differential proptests pin it against the oracle for all
    ///   five operators.
    ///
    /// Visited-element dedup stamps are keyed on **raw element
    /// indices**, untyped across nodes, mirroring the oracle's untyped
    /// `Vec<u32>` keys.
    pub fn count_eval(&self, expr: &RelExpr, domain: NodeId) -> Vec<u64> {
        let run = RunContext::unbounded();
        let ck = run.checkpoint();
        self.count_eval_ctx(expr, domain, &ck)
            .expect("unbounded context never cancels")
    }

    /// Like [`count_eval`](Self::count_eval), but cancellable: the CSR
    /// builds and every frontier-edge visit tick `ck`, so a deadline
    /// interrupts the sweep mid-flight just as it interrupts
    /// [`eval_ctx`](Self::eval_ctx).
    pub fn count_eval_ctx(
        &self,
        expr: &RelExpr,
        domain: NodeId,
        ck: &Checkpoint<'_>,
    ) -> Result<Vec<u64>, Cancelled> {
        let n = self.element_count(domain);
        if let RelExpr::Atomic(r) = expr {
            // A bare reading is its CSR degree sequence.
            let csr = self.csr(*r, ck)?;
            let mut counts = Vec::with_capacity(n);
            for f in 0..n as u32 {
                ck.tick()?;
                counts.push(csr.degree(f));
            }
            return Ok(counts);
        }
        let mut counts = vec![0u64; n];
        let mut sweep = Sweep::default();
        let mut out = Vec::new();
        for f in 0..n as u32 {
            out.clear();
            sweep.begin(0);
            self.expand(expr, std::slice::from_ref(&f), &mut out, 0, &mut sweep, ck)?;
            counts[f as usize] = out.len() as u64;
        }
        Ok(counts)
    }

    /// Append the distinct image of `input` under `expr`'s
    /// singleton-key link fraction to `out`, deduplicating against the
    /// stamp level at `depth` (one level per live set: `out` at
    /// `depth`, compose intermediates at `depth + 1`).
    fn expand(
        &self,
        expr: &RelExpr,
        input: &[u32],
        out: &mut Vec<u32>,
        depth: usize,
        sweep: &mut Sweep,
        ck: &Checkpoint<'_>,
    ) -> Result<(), Cancelled> {
        match expr {
            RelExpr::Atomic(r) => {
                let csr = self.csr(*r, ck)?;
                let level = &mut sweep.levels[depth];
                if level.stamps.len() < csr.to_bound {
                    level.stamps.resize(csr.to_bound, 0);
                }
                let generation = level.generation;
                for &f in input {
                    for &t in csr.row(f) {
                        ck.tick()?;
                        let stamp = &mut level.stamps[t as usize];
                        if *stamp != generation {
                            *stamp = generation;
                            out.push(t);
                        }
                    }
                }
                Ok(())
            }
            RelExpr::Compose(a, b) => {
                let mut mid = sweep.pool.pop().unwrap_or_default();
                mid.clear();
                sweep.begin(depth + 1);
                self.expand(a, input, &mut mid, depth + 1, sweep, ck)?;
                self.expand(b, &mid, out, depth, sweep, ck)?;
                sweep.pool.push(mid);
                Ok(())
            }
            RelExpr::Union(a, b, _) => {
                self.expand(a, input, out, depth, sweep, ck)?;
                self.expand(b, input, out, depth, sweep, ck)
            }
            // Every join/collateral link carries a compound domain key:
            // a singleton frontier index never matches one, and the
            // top-level tally drops them — so these branches are
            // exactly empty for counting purposes.
            RelExpr::Join(_, _) | RelExpr::Collateral(_, _) => Ok(()),
        }
    }

    /// The cached CSR adjacency of a directed reading, built (and
    /// deduplicated) on first use; cancellation aborts the build
    /// without publishing a partial cache.
    fn csr(&self, r: RelRef, ck: &Checkpoint<'_>) -> Result<&CsrReading, Cancelled> {
        let cells = self.caches.csr.get_or_init(|| {
            (0..self.links.len() * 2)
                .map(|_| CsrCell::default())
                .collect()
        });
        let cell = &cells[r.rel.0 * 2 + (r.dir == Direction::Backward) as usize];
        if let Some(csr) = cell.0.get() {
            return Ok(csr);
        }
        let built = build_csr(&self.links[r.rel.0], r.dir, ck)?;
        Ok(cell.0.get_or_init(|| built))
    }

    /// Distinct neighbour rows of a directed reading, for crate-local
    /// consumers (`nary`) that need adjacency rather than counts.
    pub(crate) fn csr_row(&self, r: RelRef, f: u32, ck: &Checkpoint<'_>) -> Result<&[u32], Cancelled> {
        Ok(self.csr(r, ck)?.row(f))
    }

    /// Verify the instance against the graph's prescribed cardinalities:
    /// returns, per directed reading, the number of elements whose link
    /// count falls outside the prescription. Used to test conversion
    /// soundness and by the conflict detector.
    pub fn violations_of(&self, g: &Csg, r: RelRef) -> u64 {
        let domain = g.start_of(r);
        let prescribed = g.card_of(r);
        self.link_counts(&RelExpr::Atomic(r), domain)
            .iter()
            .filter(|c| !prescribed.contains(**c))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::Cardinality;
    use crate::graph::{NodeKind, RelKind};

    /// tracks(idt) —record→ {1}; two tracks share record 1, one track has
    /// no record (violating κ=1).
    fn sample() -> (Csg, CsgInstance, RelId, NodeId, NodeId) {
        let mut g = Csg::new("t");
        let tracks = g.add_node("tracks", NodeKind::Table);
        let record = g.add_node("record", NodeKind::Attribute);
        let r = g.add_relationship(
            tracks,
            record,
            RelKind::Attribute,
            Cardinality::one(),
            Cardinality::one_or_more(),
        );
        let mut inst = CsgInstance::empty(&g);
        inst.set_element_count(tracks, 3);
        inst.set_element_count(record, 1);
        inst.set_links(r, vec![(0, 0), (1, 0)]);
        (g, inst, r, tracks, record)
    }

    #[test]
    fn paper_example_4_1_link_representation() {
        let (_, inst, r, tracks, record) = sample();
        // (id_t, 1) ∈ I_P(ρ_tracks→record)
        assert_eq!(inst.element_count(tracks), 3);
        assert_eq!(inst.element_count(record), 1);
        assert_eq!(inst.links_of(r).len(), 2);
    }

    #[test]
    fn reading_links_reverse() {
        let (_, inst, r, _, _) = sample();
        let fwd = inst.reading_links(RelRef::fwd(r));
        let bwd = inst.reading_links(RelRef::bwd(r));
        assert_eq!(fwd.len(), 2);
        assert!(bwd.contains(&(vec![0], vec![0])));
        assert!(bwd.contains(&(vec![0], vec![1])));
    }

    #[test]
    fn link_counts_include_detached_elements() {
        let (_, inst, r, tracks, _) = sample();
        let counts = inst.link_counts(&RelExpr::Atomic(RelRef::fwd(r)), tracks);
        assert_eq!(counts, vec![1, 1, 0]);
    }

    #[test]
    fn violations_counted_against_prescription() {
        let (g, inst, r, _, _) = sample();
        // tracks→record prescribed 1: tuple 2 has none → 1 violation.
        assert_eq!(inst.violations_of(&g, RelRef::fwd(r)), 1);
        // record→tracks prescribed 1..*: value 1 has two → fine.
        assert_eq!(inst.violations_of(&g, RelRef::bwd(r)), 0);
    }

    #[test]
    fn composition_evaluates_relationally() {
        // a —ρ1→ b —ρ2→ c with two hops.
        let mut g = Csg::new("c");
        let a = g.add_node("a", NodeKind::Table);
        let b = g.add_node("b", NodeKind::Attribute);
        let c = g.add_node("c", NodeKind::Attribute);
        let r1 = g.add_relationship(a, b, RelKind::Attribute, Cardinality::any(), Cardinality::any());
        let r2 = g.add_relationship(b, c, RelKind::Equality, Cardinality::any(), Cardinality::any());
        let mut inst = CsgInstance::empty(&g);
        inst.set_element_count(a, 1);
        inst.set_element_count(b, 1);
        inst.set_element_count(c, 2);
        inst.set_links(r1, vec![(0, 0)]);
        inst.set_links(r2, vec![(0, 0), (0, 1)]);
        let expr = RelExpr::path(&[RelRef::fwd(r1), RelRef::fwd(r2)]);
        let links = inst.eval(&expr);
        assert_eq!(links.len(), 2);
        assert!(links.contains(&(vec![0], vec![0])));
        assert!(links.contains(&(vec![0], vec![1])));
    }

    #[test]
    fn join_produces_compound_domains() {
        let (g, inst, r, _, record) = sample();
        let _ = g;
        // Join tracks→record with itself: pairs of tuples sharing a record.
        let expr = RelExpr::Join(
            Box::new(RelExpr::Atomic(RelRef::fwd(r))),
            Box::new(RelExpr::Atomic(RelRef::fwd(r))),
        );
        let links = inst.eval(&expr);
        // (t0,t0),(t0,t1),(t1,t0),(t1,t1) all share record value 0.
        assert_eq!(links.len(), 4);
        assert!(links.iter().all(|(d, c)| d.len() == 2 && c.len() == 1));
        let _ = record;
    }

    #[test]
    fn collateral_crosses_links() {
        let (_, inst, r, _, _) = sample();
        let expr = RelExpr::Collateral(
            Box::new(RelExpr::Atomic(RelRef::fwd(r))),
            Box::new(RelExpr::Atomic(RelRef::fwd(r))),
        );
        let links = inst.eval(&expr);
        assert_eq!(links.len(), 4); // 2 links × 2 links
    }
}
