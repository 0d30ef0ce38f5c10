//! Canonical labeling of conjunctive queries.
//!
//! [`canonical_form`] maps a [`Query`] to a [`CanonicalQuery`] such that two
//! queries have **equal** canonical forms exactly when they are
//! [`isomorphic`](crate::isomorphism::isomorphic) (same up to renaming of
//! variables, atom order, atom duplication, and the orientation of symmetric
//! atoms, with free variables corresponding). This upgrades the pairwise
//! isomorphism test into a hashable key: a decision cache can memoize
//! per-equivalence-class instead of per-syntactic-spelling, which is what
//! lets a containment service answer renamed copies of a query from cache.
//!
//! The algorithm refines the per-variable signatures of
//! [`crate::isomorphism`] by Weisfeiler–Leman-style color refinement (each
//! round folds the colors of a variable's co-occurring variables into its
//! own color) until the partition stabilizes, then backtracks over the
//! orderings *within* each color class, keeping the lexicographically least
//! normalized atom vector. Both the refinement and the class ordering are
//! functions of the atom structure alone, so the search space — and hence
//! its minimum — is identical for isomorphic queries; conversely, equal
//! canonical forms exhibit an explicit variable bijection, so the map is
//! exact, not heuristic. The free variable is seeded with a distinct color,
//! pinning it to canonical position 0.
//!
//! Worst-case cost is the product of the factorials of the color-class
//! sizes, reached only by highly automorphic queries (e.g. `k`
//! interchangeable spokes); the queries this workspace manipulates keep the
//! classes near-singleton after refinement.

use crate::atom::Atom;
use crate::isomorphism::{dedup_atoms_into, recycle, signature_keys, KeyArena, Signatures};
use crate::query::Query;
use crate::term::{Term, VarId};
use oocq_schema::{AttrId, ClassId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// An isomorphism-invariant canonical form of a [`Query`].
///
/// Variable names are erased; variables are renumbered so that the free
/// variable is `0` and the atom vector (sorted, deduplicated, symmetric
/// atoms orientation-normalized) is lexicographically least among all
/// labelings the canonical search admits. Two queries compare equal —
/// and hash equal — iff they are isomorphic.
///
/// The content hash is computed once, when the form is built, so hashing a
/// `CanonicalQuery` writes one `u64` instead of walking the atom vector.
/// Equality still compares the content; the stored hash, compared first,
/// only rejects unequal forms early.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanonicalQuery {
    /// [`key_hash`] of `(var_count, atoms)`.
    hash: u64,
    /// Number of variables (free + bound).
    var_count: usize,
    /// The canonical atom vector, sorted and deduplicated.
    atoms: Vec<Atom>,
}

/// The content hash the decision caches key on. Equal values hash equally
/// anywhere in one build; the value is never persisted. See [`KeyFold`].
pub fn key_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = KeyFold(0);
    value.hash(&mut h);
    h.finish()
}

/// The hasher behind [`key_hash`]. Each word is folded in with a rotate, an
/// xor and a multiply, and the state is mixed once at the end with
/// MurmurHash3's 64-bit finalizer, so every output bit depends on every
/// input word. An atom vector is dozens of small writes, which this takes
/// at about a nanosecond each. It is unkeyed, so it is no defence against
/// crafted collisions: a table that takes buckets from these hashes must
/// mix them under a key of its own (the decision cache does), and must
/// compare keys in full, so a collision costs a comparison, never a
/// wrong match.
struct KeyFold(u64);

impl KeyFold {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyFold {
    fn write(&mut self, bytes: &[u8]) {
        self.fold(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.fold(n as u64);
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

impl Hash for CanonicalQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl CanonicalQuery {
    fn new(var_count: usize, atoms: Vec<Atom>) -> CanonicalQuery {
        let hash = key_hash(&(var_count, &atoms));
        CanonicalQuery {
            hash,
            var_count,
            atoms,
        }
    }

    /// The content hash computed when this form was built ([`key_hash`] of
    /// its variable count and atoms).
    pub fn key_hash(&self) -> u64 {
        self.hash
    }

    /// Number of variables of the underlying query.
    pub fn var_count(&self) -> usize {
        self.var_count
    }

    /// The canonical atom vector (free variable is `0`).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Render this canonical form as a stable, self-contained wire string.
    ///
    /// The encoding is a pinned persistence format, not a display: ids are
    /// written as decimal indices, atoms in canonical vector order, so the
    /// output is byte-identical across processes for equal canonical forms.
    /// Persisted verdict logs key on it; changing the encoding requires an
    /// `ENGINE_CACHE_VERSION` bump in `oocq-service` so stale records are
    /// discarded rather than misread. [`CanonicalQuery::from_wire`] inverts
    /// it exactly.
    pub fn to_wire(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("v{}", self.var_count);
        let term = |t: &Term, out: &mut String| match t {
            Term::Var(v) => {
                let _ = write!(out, "{}", v.index());
            }
            Term::Attr(v, a) => {
                let _ = write!(out, "{}.{}", v.index(), a.index());
            }
        };
        let classes = |cs: &[ClassId], out: &mut String| {
            for (i, c) in cs.iter().enumerate() {
                let _ = write!(out, "{}{}", if i == 0 { "" } else { "," }, c.index());
            }
        };
        for a in &self.atoms {
            out.push(';');
            match a {
                Atom::Range(v, cs) => {
                    let _ = write!(out, "r{}:", v.index());
                    classes(cs, &mut out);
                }
                Atom::NonRange(v, cs) => {
                    let _ = write!(out, "R{}:", v.index());
                    classes(cs, &mut out);
                }
                Atom::Eq(s, t) => {
                    out.push('e');
                    term(s, &mut out);
                    out.push('~');
                    term(t, &mut out);
                }
                Atom::Neq(s, t) => {
                    out.push('n');
                    term(s, &mut out);
                    out.push('~');
                    term(t, &mut out);
                }
                Atom::Member(x, y, at) => {
                    let _ = write!(out, "m{},{}.{}", x.index(), y.index(), at.index());
                }
                Atom::NonMember(x, y, at) => {
                    let _ = write!(out, "M{},{}.{}", x.index(), y.index(), at.index());
                }
            }
        }
        out
    }

    /// Parse a [`CanonicalQuery::to_wire`] string. Returns `None` on any
    /// malformation (wrong tags, non-numeric ids, ids above `u32::MAX`,
    /// variable indices out of range, or a variable count that the atoms
    /// cannot support) — persisted-log readers treat that as a corrupt
    /// record, never an error worth surfacing, so no input panics here.
    pub fn from_wire(wire: &str) -> Option<CanonicalQuery> {
        let mut parts = wire.split(';');
        let head = parts.next()?;
        let var_count = head.strip_prefix('v')?.parse::<u32>().ok()? as usize;
        let id = |s: &str| s.parse::<u32>().ok().map(|ix| ix as usize);
        // Variable occurrences across the atoms; every variable but the
        // free one needs at least one.
        let mut uses = 0usize;
        let mut var = |s: &str| -> Option<VarId> {
            let ix = id(s)?;
            uses += 1;
            (ix < var_count).then(|| VarId::from_index(ix))
        };
        let mut atoms = Vec::new();
        for part in parts {
            let (tag, rest) = part.split_at(part.len().min(1));
            let mut term = |s: &str| -> Option<Term> {
                match s.split_once('.') {
                    Some((v, a)) => Some(Term::Attr(var(v)?, AttrId::from_index(id(a)?))),
                    None => Some(Term::Var(var(s)?)),
                }
            };
            atoms.push(match tag {
                "r" | "R" => {
                    let (v, cs) = rest.split_once(':')?;
                    let classes = cs
                        .split(',')
                        .map(|c| Some(ClassId::from_index(id(c)?)))
                        .collect::<Option<Vec<ClassId>>>()?;
                    let v = var(v)?;
                    if tag == "r" {
                        Atom::Range(v, classes)
                    } else {
                        Atom::NonRange(v, classes)
                    }
                }
                "e" | "n" => {
                    let (s, t) = rest.split_once('~')?;
                    let (s, t) = (term(s)?, term(t)?);
                    if tag == "e" {
                        Atom::Eq(s, t)
                    } else {
                        Atom::Neq(s, t)
                    }
                }
                "m" | "M" => {
                    // `x,y.A`: member var, owner var, attr.
                    let (x, rest) = rest.split_once(',')?;
                    let (y, a) = rest.split_once('.')?;
                    let (x, y, a) = (var(x)?, var(y)?, AttrId::from_index(id(a)?));
                    if tag == "m" {
                        Atom::Member(x, y, a)
                    } else {
                        Atom::NonMember(x, y, a)
                    }
                }
                _ => return None,
            });
        }
        (var_count <= uses + 1).then(|| CanonicalQuery::new(var_count, atoms))
    }
}

/// A borrowed view of an [`Atom`] with its variables relabeled: the same
/// variants in the same order as [`Atom`], with `&[ClassId]` in place of
/// `Vec<ClassId>`, so the derived order is [`Atom`]'s order and a search
/// leaf allocates nothing per atom.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LightAtom<'a> {
    Range(VarId, &'a [ClassId]),
    NonRange(VarId, &'a [ClassId]),
    Eq(Term, Term),
    Neq(Term, Term),
    Member(VarId, VarId, AttrId),
    NonMember(VarId, VarId, AttrId),
}

impl<'a> LightAtom<'a> {
    /// `a` under the old→new variable map, symmetric atoms oriented so
    /// `Eq(a, b)` and `Eq(b, a)` coincide.
    fn mapped(a: &'a Atom, map: &[VarId]) -> LightAtom<'a> {
        let v = |v: &VarId| map[v.index()];
        let t = |t: &Term| t.with_var(map[t.var().index()]);
        let ordered = |l: Term, r: Term| if r < l { (r, l) } else { (l, r) };
        match a {
            Atom::Range(x, cs) => LightAtom::Range(v(x), cs),
            Atom::NonRange(x, cs) => LightAtom::NonRange(v(x), cs),
            Atom::Eq(s, u) => {
                let (s, u) = ordered(t(s), t(u));
                LightAtom::Eq(s, u)
            }
            Atom::Neq(s, u) => {
                let (s, u) = ordered(t(s), t(u));
                LightAtom::Neq(s, u)
            }
            Atom::Member(x, y, at) => LightAtom::Member(v(x), v(y), *at),
            Atom::NonMember(x, y, at) => LightAtom::NonMember(v(x), v(y), *at),
        }
    }

    fn to_atom(self) -> Atom {
        match self {
            LightAtom::Range(x, cs) => Atom::Range(x, cs.to_vec()),
            LightAtom::NonRange(x, cs) => Atom::NonRange(x, cs.to_vec()),
            LightAtom::Eq(s, t) => Atom::Eq(s, t),
            LightAtom::Neq(s, t) => Atom::Neq(s, t),
            LightAtom::Member(x, y, at) => Atom::Member(x, y, at),
            LightAtom::NonMember(x, y, at) => Atom::NonMember(x, y, at),
        }
    }
}

/// Sort `0..n` by `cmp` and write each index's dense rank (equal indices
/// share one) into `out`; `by_key` is scratch. Returns the number of
/// distinct ranks.
fn rank_by(
    n: usize,
    by_key: &mut Vec<usize>,
    out: &mut Vec<usize>,
    cmp: impl Fn(usize, usize) -> Ordering,
) -> usize {
    by_key.clear();
    by_key.extend(0..n);
    by_key.sort_unstable_by(|&a, &b| cmp(a, b));
    out.clear();
    out.resize(n, 0);
    let mut rank = 0;
    for (pos, &v) in by_key.iter().enumerate() {
        if pos > 0 && cmp(by_key[pos - 1], v) != Ordering::Equal {
            rank += 1;
        }
        out[v] = rank;
    }
    if n == 0 {
        0
    } else {
        rank + 1
    }
}

/// No neighbor: the incidence key is fully static (range and non-range
/// atoms).
const NO_NEIGHBOR: u32 = u32::MAX;

/// The buffers of one labeling, kept per thread between labelings so a
/// labeling allocates little more than the form it returns. Items that
/// borrow the labeled query are stored under `'static` while idle and
/// [`recycle`]d to the query's lifetime for the duration of a labeling.
#[derive(Default)]
struct Scratch {
    /// The query's atoms, sorted and deduplicated.
    atoms: Vec<&'static Atom>,
    coloring: Coloring,
    /// Variables grouped by color class, classes in color order.
    members: Vec<VarId>,
    /// Class `i` is `members[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Next free slot of each class while `members` is filled.
    fill: Vec<usize>,
    order: Vec<VarId>,
    used: Vec<bool>,
    map: Vec<VarId>,
    cand: Vec<LightAtom<'static>>,
    best: Vec<LightAtom<'static>>,
}

/// Scratch buffers larger than this many bytes are dropped after a
/// labeling rather than kept, so one huge query does not pin its buffers
/// in every thread that labeled it.
const SCRATCH_KEEP_BYTES: usize = 64 * 1024;

impl Scratch {
    /// Drop every buffer above [`SCRATCH_KEEP_BYTES`].
    fn trim(&mut self) {
        fn keep<T>(v: &mut Vec<T>) {
            if v.capacity() * std::mem::size_of::<T>() > SCRATCH_KEEP_BYTES {
                *v = Vec::new();
            }
        }
        let c = &mut self.coloring;
        if c.keys.footprint() > SCRATCH_KEEP_BYTES {
            c.keys = KeyArena::default();
        }
        if c.sig.footprint() > SCRATCH_KEEP_BYTES {
            c.sig = Signatures::default();
        }
        keep(&mut c.key_sort);
        keep(&mut c.ranks);
        keep(&mut c.sig_inc);
        keep(&mut c.by_key);
        keep(&mut c.color);
        keep(&mut c.next);
        keep(&mut c.inc);
        keep(&mut c.start);
        keep(&mut c.round);
        keep(&mut self.atoms);
        keep(&mut self.members);
        keep(&mut self.bounds);
        keep(&mut self.fill);
        keep(&mut self.order);
        keep(&mut self.used);
        keep(&mut self.map);
        keep(&mut self.cand);
        keep(&mut self.best);
    }
}

/// The buffers of [`stable_coloring`]; the coloring it computes is left in
/// `color`.
#[derive(Default)]
struct Coloring {
    keys: KeyArena,
    key_sort: Vec<(&'static [u8], u32)>,
    ranks: Vec<u32>,
    sig_inc: Vec<(u32, u32)>,
    sig: Signatures,
    by_key: Vec<usize>,
    color: Vec<usize>,
    next: Vec<usize>,
    /// (variable, static key, neighbor variable) per refinement incidence.
    inc: Vec<(u32, u32, u32)>,
    start: Vec<usize>,
    round: Vec<(u32, u32)>,
}

/// The stable coloring, left in `c.color`: initial signatures (free
/// variable seeded with a distinct marker), refined until the number of
/// color classes stops growing.
///
/// A refinement round folds each variable's incidences — atom kind plus the
/// current color of the other variable in the atom — into its color. The
/// reference labeler's key of an incidence is its static prefix
/// (`"m:AttrId(3):"`, `"eq:None/Some(AttrId(1)):"`, or a whole range key
/// `"r:[ClassId(2)]"`) followed by the neighbor color in decimal. Those
/// static parts form a prefix-free set, so a key sorts exactly like the
/// pair (rank of its static part, rank of the neighbor color's decimal
/// string); both ranks come from one [`KeyArena`] written once per query.
/// A variable's new color is the rank of (old color, sorted incidence
/// keys).
///
/// A round never merges classes (the old color leads the new key), so a
/// coloring with one class per variable is already stable: a further round
/// could only confirm it. Both places where that happens return at once.
fn stable_coloring(atoms: &[&Atom], var_count: usize, free: VarId, c: &mut Coloring) {
    let Coloring {
        keys,
        key_sort,
        ranks,
        sig_inc,
        sig,
        by_key,
        color,
        next,
        inc,
        start,
        round,
    } = c;
    keys.clear();
    sig_inc.clear();
    signature_keys(atoms, keys, sig_inc);
    keys.ranks_into(key_sort, ranks);
    sig.fill(var_count, sig_inc, ranks);

    // Initial colors: rank of (is bound, signature).
    let free = free.index();
    let mut classes = rank_by(var_count, by_key, color, |a, b| {
        ((a != free), sig.of_var(a)).cmp(&((b != free), sig.of_var(b)))
    });
    if classes == var_count {
        return;
    }

    // (variable, static key, neighbor variable) per refinement incidence.
    keys.clear();
    inc.clear();
    let var = |v: VarId| v.index() as u32;
    for a in atoms {
        match a {
            Atom::Range(v, cs) => {
                inc.push((var(*v), keys.str("r:").classes(cs).end(), NO_NEIGHBOR))
            }
            Atom::NonRange(v, cs) => {
                inc.push((var(*v), keys.str("nr:").classes(cs).end(), NO_NEIGHBOR))
            }
            Atom::Eq(s, t) | Atom::Neq(s, t) => {
                let kind = if matches!(a, Atom::Eq(..)) {
                    "eq:"
                } else {
                    "ne:"
                };
                for (side, other) in [(s, t), (t, s)] {
                    keys.str(kind).opt_attr(side.attr()).str("/");
                    let key = keys.opt_attr(other.attr()).str(":").end();
                    inc.push((var(side.var()), key, var(other.var())));
                }
            }
            Atom::Member(x, y, at) => {
                inc.push((var(*x), keys.str("m:").attr(*at).str(":").end(), var(*y)));
                inc.push((var(*y), keys.str("mo:").attr(*at).str(":").end(), var(*x)));
            }
            Atom::NonMember(x, y, at) => {
                inc.push((var(*x), keys.str("n:").attr(*at).str(":").end(), var(*y)));
                inc.push((var(*y), keys.str("no:").attr(*at).str(":").end(), var(*x)));
            }
        }
    }
    // Colors are ranks below `var_count`; their decimal strings go into the
    // same arena so `"10"` sorts before `"2"`, as it did as text.
    let first_color_key = keys.next_key() as usize;
    for c in 0..var_count {
        keys.dec(c).end();
    }
    keys.ranks_into(key_sort, ranks);
    for (_, key, _) in inc.iter_mut() {
        *key = ranks[*key as usize];
    }
    let color_rank = |c: usize| ranks[first_color_key + c];

    // Group incidences by variable once; each round rewrites their keys.
    inc.sort_unstable_by_key(|&(v, _, _)| v);
    start.clear();
    start.resize(var_count + 1, 0);
    for &(v, _, _) in inc.iter() {
        start[v as usize + 1] += 1;
    }
    for v in 0..var_count {
        start[v + 1] += start[v];
    }
    round.clear();
    round.resize(inc.len(), (0, 0));
    loop {
        for (slot, &(_, key, other)) in round.iter_mut().zip(inc.iter()) {
            let suffix = if other == NO_NEIGHBOR {
                0
            } else {
                color_rank(color[other as usize]) + 1
            };
            *slot = (key, suffix);
        }
        for v in 0..var_count {
            round[start[v]..start[v + 1]].sort_unstable();
        }
        let of = |v: usize| (color[v], &round[start[v]..start[v + 1]]);
        let next_classes = rank_by(var_count, by_key, next, |a, b| of(a).cmp(&of(b)));
        if next_classes == classes {
            return;
        }
        std::mem::swap(color, next);
        if next_classes == var_count {
            return;
        }
        classes = next_classes;
    }
}

/// The reusable buffers of one canonical search.
struct Search<'a> {
    atoms: &'a [&'a Atom],
    /// Variables grouped by color class, classes in color order.
    members: &'a [VarId],
    /// Class `i` is `members[bounds[i]..bounds[i + 1]]`.
    bounds: &'a [usize],
    /// `order[pos]` = old variable at canonical position `pos`.
    order: Vec<VarId>,
    used: Vec<bool>,
    /// Old → new variable map of the current leaf.
    map: Vec<VarId>,
    /// The current leaf's normalized atoms.
    cand: Vec<LightAtom<'a>>,
    /// The least normalized atom vector so far (meaningful once `found`).
    best: Vec<LightAtom<'a>>,
    /// Has a leaf been visited?
    found: bool,
}

impl<'a> Search<'a> {
    /// Search all orderings within color classes for the lexicographically
    /// least normalized atom vector. Classes are visited in color order, so
    /// position blocks are fixed and only intra-class orderings branch. One
    /// unit of work is charged per search node, so a caller-supplied budget
    /// bounds the factorial regime.
    fn run<E>(
        &mut self,
        class_ix: usize,
        picked_in_class: usize,
        charge: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        charge(1)?;
        if class_ix + 1 == self.bounds.len() {
            self.leaf();
            return Ok(());
        }
        let class = &self.members[self.bounds[class_ix]..self.bounds[class_ix + 1]];
        if picked_in_class == class.len() {
            return self.run(class_ix + 1, 0, charge);
        }
        for &v in class {
            if self.used[v.index()] {
                continue;
            }
            self.used[v.index()] = true;
            self.order.push(v);
            let r = self.run(class_ix, picked_in_class + 1, charge);
            self.order.pop();
            self.used[v.index()] = false;
            r?;
        }
        Ok(())
    }

    /// `order` is complete: normalize the atoms under it and keep them if
    /// they are the least so far.
    fn leaf(&mut self) {
        for (new, old) in self.order.iter().enumerate() {
            self.map[old.index()] = VarId::from_index(new);
        }
        let map = &self.map;
        self.cand.clear();
        self.cand
            .extend(self.atoms.iter().map(|a| LightAtom::mapped(a, map)));
        self.cand.sort_unstable();
        self.cand.dedup();
        if !self.found {
            self.found = true;
            self.best.clear();
            self.best.extend_from_slice(&self.cand);
        } else if self.cand < self.best {
            std::mem::swap(&mut self.best, &mut self.cand);
        }
    }
}

/// The canonical form of a query. See the module docs for the guarantee:
/// `canonical_form(a) == canonical_form(b)` iff `isomorphic(a, b)`.
pub fn canonical_form(q: &Query) -> CanonicalQuery {
    match canonical_form_budgeted(q, &mut |_| Ok::<(), std::convert::Infallible>(())) {
        Ok(c) => c,
        Err(e) => match e {},
    }
}

/// [`canonical_form`] with a cooperative work charge: the in-class
/// backtracking calls `charge(1)` once per search node, and the first error
/// aborts the labeling. The worst case is the product of the factorials of
/// the color-class sizes (highly automorphic queries), so callers with a
/// latency target — decision caches keying by canonical form, prepared
/// engines — should route through this entry and map their budget's
/// timeout error into `E`. A charge that never fails makes this identical
/// to [`canonical_form`].
///
/// The labeling works in buffers kept per thread, so it allocates little
/// beyond the form it returns (a reentrant call, or one during thread
/// teardown, uses buffers of its own).
pub fn canonical_form_budgeted<E>(
    q: &Query,
    charge: &mut impl FnMut(u64) -> Result<(), E>,
) -> Result<CanonicalQuery, E> {
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    }
    SCRATCH
        .try_with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => label(q, charge, &mut scratch),
            Err(_) => label(q, charge, &mut Scratch::default()),
        })
        .unwrap_or_else(|_| label(q, charge, &mut Scratch::default()))
}

/// [`canonical_form_budgeted`] over the given buffers.
fn label<E>(
    q: &Query,
    charge: &mut impl FnMut(u64) -> Result<(), E>,
    s: &mut Scratch,
) -> Result<CanonicalQuery, E> {
    let mut atoms: Vec<&Atom> = recycle(std::mem::take(&mut s.atoms));
    dedup_atoms_into(q, &mut atoms);
    let n = q.var_count();
    stable_coloring(&atoms, n, q.free_var(), &mut s.coloring);
    let color = &s.coloring.color;
    // Group variables by color, classes sorted by color (ascending), each
    // class in variable order. Colors are dense ranks, so no class is
    // empty. The free variable's seed marker gives it the unique least
    // color, so it always lands at canonical position 0.
    let class_count = color.iter().copied().max().map_or(0, |c| c + 1);
    let bounds = &mut s.bounds;
    bounds.clear();
    bounds.resize(class_count + 1, 0);
    for &c in color {
        bounds[c + 1] += 1;
    }
    for c in 0..class_count {
        bounds[c + 1] += bounds[c];
    }
    s.fill.clear();
    s.fill.extend_from_slice(bounds);
    s.members.clear();
    s.members.resize(n, VarId::from_index(0));
    for v in q.vars() {
        let c = color[v.index()];
        s.members[s.fill[c]] = v;
        s.fill[c] += 1;
    }
    debug_assert_eq!(
        &s.members[..s.bounds[1]],
        [q.free_var()],
        "free var has least color"
    );

    let mut order = std::mem::take(&mut s.order);
    order.clear();
    let mut used = std::mem::take(&mut s.used);
    used.clear();
    used.resize(n, false);
    let mut map = std::mem::take(&mut s.map);
    map.clear();
    map.resize(n, VarId::from_index(0));
    let mut search = Search {
        atoms: &atoms,
        members: &s.members,
        bounds: &s.bounds,
        order,
        used,
        map,
        cand: recycle(std::mem::take(&mut s.cand)),
        best: recycle(std::mem::take(&mut s.best)),
        found: false,
    };
    let out = search.run(0, 0, charge).map(|()| {
        assert!(
            search.found,
            "canonical search visits at least one labeling"
        );
        CanonicalQuery::new(n, search.best.iter().map(|a| a.to_atom()).collect())
    });
    let Search {
        order,
        used,
        map,
        cand,
        best,
        ..
    } = search;
    (s.order, s.used, s.map) = (order, used, map);
    s.cand = recycle(cand);
    s.best = recycle(best);
    s.atoms = recycle(atoms);
    s.trim();
    out
}

/// The string-keyed labeler this module's byte-arena labeler replaced,
/// kept verbatim as the differential reference: every key is a `Debug`
/// string, colors are ranked through `BTreeMap`s, the query is cloned to
/// dedup its atoms, and every search leaf materializes its atom vector.
#[cfg(test)]
mod reference {
    use super::CanonicalQuery;
    use crate::atom::Atom;
    use crate::isomorphism::normalized_atoms;
    use crate::query::Query;
    use crate::term::VarId;
    use std::collections::BTreeMap;

    /// A cheap per-variable invariant: how the variable participates in each
    /// kind of atom. Distinct signatures can never map to one another.
    fn signatures(q: &Query) -> Vec<BTreeMap<String, usize>> {
        let mut sig: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); q.var_count()];
        let mut bump = |v: VarId, key: String| {
            *sig[v.index()].entry(key).or_insert(0) += 1;
        };
        for a in q.atoms() {
            match a {
                Atom::Range(v, cs) => bump(*v, format!("range:{cs:?}")),
                Atom::NonRange(v, cs) => bump(*v, format!("nonrange:{cs:?}")),
                Atom::Eq(s, t) | Atom::Neq(s, t) => {
                    let kind = if matches!(a, Atom::Eq(..)) {
                        "eq"
                    } else {
                        "neq"
                    };
                    for (side, other) in [(s, t), (t, s)] {
                        let shape = match (side, other) {
                            (crate::term::Term::Var(v), o) => {
                                (*v, format!("{kind}:var-vs-{:?}", o.attr()))
                            }
                            (crate::term::Term::Attr(v, at), o) => {
                                (*v, format!("{kind}:attr{:?}-vs-{:?}", at, o.attr()))
                            }
                        };
                        bump(shape.0, shape.1);
                    }
                }
                Atom::Member(x, y, at) => {
                    bump(*x, format!("member-of:{at:?}"));
                    bump(*y, format!("member-owner:{at:?}"));
                }
                Atom::NonMember(x, y, at) => {
                    bump(*x, format!("nonmember-of:{at:?}"));
                    bump(*y, format!("nonmember-owner:{at:?}"));
                }
            }
        }
        sig
    }

    /// One refinement round: fold each variable's co-occurrence structure
    /// (atom kind + current colors of the other variables in the atom) into a
    /// new color. Returns the new color vector; colors are ranks into the
    /// sorted key set, so they are invariant under variable renaming.
    fn refine_round(q: &Query, color: &[usize]) -> Vec<usize> {
        let n = q.var_count();
        // Per-variable multiset of incidence keys.
        let mut keys: Vec<Vec<String>> = vec![Vec::new(); n];
        for a in q.atoms() {
            match a {
                Atom::Range(v, cs) => keys[v.index()].push(format!("r:{cs:?}")),
                Atom::NonRange(v, cs) => keys[v.index()].push(format!("nr:{cs:?}")),
                Atom::Eq(s, t) | Atom::Neq(s, t) => {
                    let kind = if matches!(a, Atom::Eq(..)) {
                        "eq"
                    } else {
                        "ne"
                    };
                    for (side, other) in [(s, t), (t, s)] {
                        keys[side.var().index()].push(format!(
                            "{kind}:{:?}/{:?}:{}",
                            side.attr(),
                            other.attr(),
                            color[other.var().index()]
                        ));
                    }
                }
                Atom::Member(x, y, at) => {
                    keys[x.index()].push(format!("m:{at:?}:{}", color[y.index()]));
                    keys[y.index()].push(format!("mo:{at:?}:{}", color[x.index()]));
                }
                Atom::NonMember(x, y, at) => {
                    keys[x.index()].push(format!("n:{at:?}:{}", color[y.index()]));
                    keys[y.index()].push(format!("no:{at:?}:{}", color[x.index()]));
                }
            }
        }
        // New color = rank of (old color, sorted incidence keys).
        let mut sig: Vec<(usize, Vec<String>)> = Vec::with_capacity(n);
        for v in 0..n {
            keys[v].sort();
            sig.push((color[v], std::mem::take(&mut keys[v])));
        }
        let mut ranks: BTreeMap<&(usize, Vec<String>), usize> = BTreeMap::new();
        for s in &sig {
            let next = ranks.len();
            ranks.entry(s).or_insert(next);
        }
        // BTreeMap assigned insertion-order ids; re-rank by key order so the
        // result is independent of variable iteration order.
        let sorted: BTreeMap<&(usize, Vec<String>), usize> = ranks
            .keys()
            .enumerate()
            .map(|(rank, &k)| (k, rank))
            .collect();
        sig.iter().map(|s| sorted[s]).collect()
    }

    /// The stable coloring: initial signatures (free variable seeded with a
    /// distinct marker), refined until the number of color classes stops
    /// growing.
    fn stable_coloring(q: &Query) -> Vec<usize> {
        let base = signatures(q);
        let mut init: Vec<(bool, &BTreeMap<String, usize>)> = Vec::with_capacity(q.var_count());
        for v in q.vars() {
            init.push((v != q.free_var(), &base[v.index()]));
        }
        let mut ranks: BTreeMap<&(bool, &BTreeMap<String, usize>), usize> = BTreeMap::new();
        for s in &init {
            let next = ranks.len();
            ranks.entry(s).or_insert(next);
        }
        let sorted: BTreeMap<&(bool, &BTreeMap<String, usize>), usize> = ranks
            .keys()
            .enumerate()
            .map(|(rank, &k)| (k, rank))
            .collect();
        let mut color: Vec<usize> = init.iter().map(|s| sorted[s]).collect();
        let mut classes = color.iter().collect::<std::collections::HashSet<_>>().len();
        loop {
            let next = refine_round(q, &color);
            let next_classes = next.iter().collect::<std::collections::HashSet<_>>().len();
            if next_classes == classes {
                return color;
            }
            color = next;
            classes = next_classes;
        }
    }

    /// Search all orderings within color classes for the lexicographically
    /// least normalized atom vector. `order[pos]` = old variable at canonical
    /// position `pos`; classes are visited in color order, so position blocks
    /// are fixed and only intra-class orderings branch. One unit of work is
    /// charged per search node, so a caller-supplied budget bounds the
    /// factorial regime.
    #[allow(clippy::too_many_arguments)] // recursive search node: all state is hot path
    fn search<E>(
        q: &Query,
        classes: &[Vec<VarId>],
        class_ix: usize,
        picked_in_class: usize,
        order: &mut Vec<VarId>,
        used: &mut Vec<bool>,
        best: &mut Option<Vec<Atom>>,
        charge: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        charge(1)?;
        if class_ix == classes.len() {
            // order is complete: build old→new map and the candidate vector.
            let mut map = vec![VarId::from_index(0); q.var_count()];
            for (new, old) in order.iter().enumerate() {
                map[old.index()] = VarId::from_index(new);
            }
            let cand = normalized_atoms(q, &map);
            if best.as_ref().is_none_or(|b| cand < *b) {
                *best = Some(cand);
            }
            return Ok(());
        }
        let class = &classes[class_ix];
        if picked_in_class == class.len() {
            return search(q, classes, class_ix + 1, 0, order, used, best, charge);
        }
        for &v in class {
            if used[v.index()] {
                continue;
            }
            used[v.index()] = true;
            order.push(v);
            let r = search(
                q,
                classes,
                class_ix,
                picked_in_class + 1,
                order,
                used,
                best,
                charge,
            );
            order.pop();
            used[v.index()] = false;
            r?;
        }
        Ok(())
    }

    /// `canonical_form` with a cooperative work charge: the in-class
    /// backtracking calls `charge(1)` once per search node, and the first error
    /// aborts the labeling. The worst case is the product of the factorials of
    /// the color-class sizes (highly automorphic queries), so callers with a
    /// latency target — decision caches keying by canonical form, prepared
    /// engines — should route through this entry and map their budget's
    /// timeout error into `E`. A charge that never fails makes this identical
    /// to [`canonical_form`].
    pub(super) fn canonical_form_budgeted<E>(
        q: &Query,
        charge: &mut impl FnMut(u64) -> Result<(), E>,
    ) -> Result<CanonicalQuery, E> {
        let mut q = q.clone();
        q.dedup_atoms();
        let color = stable_coloring(&q);
        // Group variables by color, classes sorted by color (ascending). The
        // free variable's seed marker gives it the unique least color, so it
        // always lands at canonical position 0.
        let max_color = color.iter().copied().max().unwrap_or(0);
        let mut classes: Vec<Vec<VarId>> = vec![Vec::new(); max_color + 1];
        for v in q.vars() {
            classes[color[v.index()]].push(v);
        }
        classes.retain(|c| !c.is_empty());
        debug_assert_eq!(classes[0], vec![q.free_var()], "free var has least color");

        let mut best: Option<Vec<Atom>> = None;
        let mut order: Vec<VarId> = Vec::with_capacity(q.var_count());
        let mut used = vec![false; q.var_count()];
        search(&q, &classes, 0, 0, &mut order, &mut used, &mut best, charge)?;
        Ok(CanonicalQuery::new(
            q.var_count(),
            best.expect("canonical search visits at least one labeling"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::isomorphic;
    use crate::query::QueryBuilder;
    use oocq_schema::samples;

    #[test]
    fn renaming_and_atom_order_are_invisible() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let build = |names: [&str; 3], flip: bool| {
            let mut b = QueryBuilder::new(names[0]);
            let x = b.free();
            let y = b.var(names[1]);
            let z = b.var(names[2]);
            if flip {
                b.member(z, y, a).member(x, y, a);
                b.range(z, [t1]).range(y, [t2]).range(x, [t1]);
            } else {
                b.range(x, [t1]).range(y, [t2]).range(z, [t1]);
                b.member(x, y, a).member(z, y, a);
            }
            b.build()
        };
        let c1 = canonical_form(&build(["x", "y", "z"], false));
        let c2 = canonical_form(&build(["anna", "bert", "carl"], true));
        assert_eq!(c1, c2);
    }

    #[test]
    fn free_variable_role_distinguishes() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]).member(x, y, a);
        let member_free = b.build();
        let mut b = QueryBuilder::new("y");
        let yf = b.free();
        let x2 = b.var("x");
        b.range(x2, [t1]).range(yf, [t2]).member(x2, yf, a);
        let owner_free = b.build();
        assert_ne!(canonical_form(&member_free), canonical_form(&owner_free));
    }

    #[test]
    fn duplicate_atoms_are_invisible() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]).range(x, [c]);
        let dup = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]);
        assert_eq!(canonical_form(&dup), canonical_form(&b.build()));
    }

    #[test]
    fn eq_orientation_is_invisible() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let build = |swap: bool| {
            let mut b = QueryBuilder::new("x");
            let x = b.free();
            let y = b.var("y");
            b.range(x, [c]).range(y, [c]);
            if swap {
                b.eq_vars(y, x);
            } else {
                b.eq_vars(x, y);
            }
            b.build()
        };
        assert_eq!(canonical_form(&build(false)), canonical_form(&build(true)));
    }

    #[test]
    fn automorphic_spokes_canonicalize_identically() {
        // Interchangeable spokes leave a non-singleton color class; the
        // backtracking min must agree across declaration orders.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let build = |perm: [usize; 3]| {
            let mut b = QueryBuilder::new("o");
            let o = b.free();
            let names = ["m1", "m2", "m3"];
            let ms: Vec<_> = perm.iter().map(|&i| b.var(names[i])).collect();
            b.range(o, [t2]);
            for &m in &ms {
                b.range(m, [t1]);
                b.member(m, o, a);
            }
            b.build()
        };
        let c = canonical_form(&build([0, 1, 2]));
        assert_eq!(c, canonical_form(&build([2, 0, 1])));
        assert_eq!(c, canonical_form(&build([1, 2, 0])));
    }

    #[test]
    fn agrees_with_pairwise_isomorphism() {
        // Canonical equality must coincide with isomorphic() across a mixed
        // family: some isomorphic pairs, some near-misses.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut family: Vec<crate::query::Query> = Vec::new();
        for (member, extra_range) in [(true, false), (true, true), (false, false), (false, true)] {
            for name in ["x", "renamed"] {
                let mut b = QueryBuilder::new(name);
                let x = b.free();
                let y = b.var("y");
                b.range(x, [t1]).range(y, [t2]);
                if member {
                    b.member(x, y, a);
                } else {
                    b.non_member(x, y, a);
                }
                if extra_range {
                    let z = b.var("z");
                    b.range(z, [t1]);
                }
                family.push(b.build());
            }
        }
        for qa in &family {
            for qb in &family {
                assert_eq!(
                    canonical_form(qa) == canonical_form(qb),
                    isomorphic(qa, qb),
                    "canonical/isomorphism disagreement:\n  {qa:?}\n  {qb:?}"
                );
            }
        }
    }

    #[test]
    fn budgeted_search_stops_in_the_factorial_regime() {
        // 9 interchangeable spokes stay one color class after refinement:
        // the search space is 9! ≈ 3.6e5 labelings. A small work limit must
        // abort long before that, and a generous one must agree with the
        // unbudgeted form.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("o");
        let o = b.free();
        b.range(o, [t2]);
        for i in 0..9 {
            let m = b.var(&format!("m{i}"));
            b.range(m, [t1]);
            b.member(m, o, a);
        }
        let q = b.build();

        let mut spent = 0u64;
        let err = canonical_form_budgeted(&q, &mut |u| {
            spent += u;
            if spent > 1000 {
                Err("out of budget")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "out of budget");

        let full = canonical_form_budgeted(&q, &mut |_| Ok::<(), ()>(())).unwrap();
        assert_eq!(full, canonical_form(&q));
    }

    #[test]
    fn wire_codec_round_trips_every_atom_kind() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        let z = b.var("z");
        b.range(x, [t1]).non_range(y, [t1, t2]).range(z, [t2]);
        b.eq_attr(x, y, a).neq_vars(x, z);
        b.member(x, y, a).non_member(z, y, a);
        let cf = canonical_form(&b.build());
        let wire = cf.to_wire();
        assert!(wire.starts_with("v3;"), "{wire}");
        let back = CanonicalQuery::from_wire(&wire).expect("own encoding parses");
        assert_eq!(back, cf);
        // The encoding is injective enough to key a log: a different form
        // renders differently.
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [t1]);
        assert_ne!(canonical_form(&b.build()).to_wire(), wire);
    }

    #[test]
    fn wire_codec_rejects_malformed_input() {
        for bad in [
            "",
            "x3",
            "v",
            "vX;r0:0",
            "v2;z0:1",      // unknown tag
            "v2;r5:0",      // var index out of range
            "v2;m0,1",      // membership missing attr
            "v2;e0",        // eq missing second term
            "v2;r0:a,b",    // non-numeric class ids
            "v1;M0,9.0",    // owner out of range
            "v1;r0:0;junk", // trailing garbage atom
        ] {
            assert!(
                CanonicalQuery::from_wire(bad).is_none(),
                "accepted malformed wire {bad:?}"
            );
        }
        // A valid minimal form still parses.
        assert!(CanonicalQuery::from_wire("v1;r0:0").is_some());
        assert!(CanonicalQuery::from_wire("v1").is_some());
    }

    #[test]
    fn wire_ids_above_u32_are_rejected_not_panicked_on() {
        assert_eq!(CanonicalQuery::from_wire("v1;r0:99999999999"), None);
        assert_eq!(CanonicalQuery::from_wire("v1;e0.99999999999~0"), None);
        assert_eq!(CanonicalQuery::from_wire("v1;m0,0.99999999999"), None);
        // The largest id that fits still parses.
        assert!(CanonicalQuery::from_wire("v1;r0:4294967295").is_some());
    }

    #[test]
    fn a_wire_var_count_no_atom_supports_is_rejected() {
        assert_eq!(CanonicalQuery::from_wire("v99999999999"), None);
        assert_eq!(CanonicalQuery::from_wire("v4000000000"), None);
        // Each variable past the free one needs an occurrence.
        assert_eq!(CanonicalQuery::from_wire("v4;r0:0;r1:0"), None);
        assert!(CanonicalQuery::from_wire("v3;r0:0;r1:0;r2:0").is_some());
    }

    #[test]
    fn equal_forms_share_their_stored_hash() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let build = |free: &str, bound: &str| {
            let mut b = QueryBuilder::new(free);
            let x = b.free();
            let y = b.var(bound);
            b.range(x, [c]).range(y, [c]).neq_vars(x, y);
            canonical_form(&b.build())
        };
        let (a, b) = (build("x", "y"), build("p", "q"));
        assert_eq!(a, b);
        assert_eq!(a.key_hash(), b.key_hash());
        let back = CanonicalQuery::from_wire(&a.to_wire()).unwrap();
        assert_eq!(back.key_hash(), a.key_hash());
    }

    #[test]
    fn canonical_form_exposes_shape() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]);
        let cf = canonical_form(&b.build());
        assert_eq!(cf.var_count(), 2);
        assert_eq!(cf.atoms().len(), 2);
    }

    // --- Differential and golden checks against the string-keyed labeler.

    fn v(i: usize) -> VarId {
        VarId::from_index(i)
    }

    fn cls(i: usize) -> ClassId {
        ClassId::from_index(i)
    }

    fn at(i: usize) -> AttrId {
        AttrId::from_index(i)
    }

    /// A query over `n` variables (free variable `0`) with the given atoms.
    fn query(n: usize, atoms: impl IntoIterator<Item = Atom>) -> Query {
        let mut b = QueryBuilder::new("x0");
        for i in 1..n {
            b.var(&format!("x{i}"));
        }
        for a in atoms {
            b.atom(a);
        }
        b.build()
    }

    /// Hand-built fixtures covering every key shape the labeler writes.
    fn fixtures() -> Vec<(&'static str, Query)> {
        let mut out = Vec::new();
        // A 12-variable membership chain: colors reach 10 and above, where
        // decimal key order (`"10" < "2"`) differs from numeric order.
        let mut atoms: Vec<Atom> = (0..12)
            .map(|i| Atom::Range(v(i), vec![cls(i % 3)]))
            .collect();
        atoms.extend((1..12).map(|i| Atom::Member(v(i), v(i - 1), at(i % 2))));
        out.push(("chain12", query(12, atoms)));
        // A 10-variable tree with two branch kinds, so many classes refine
        // in the same round.
        let mut atoms: Vec<Atom> = (0..10).map(|i| Atom::Range(v(i), vec![cls(1)])).collect();
        atoms.extend((1..10).map(|i| {
            if i % 2 == 0 {
                Atom::Member(v(i), v(i / 2), at(1))
            } else {
                Atom::Eq(Term::Var(v(i)), Term::Attr(v(i / 2), at(2)))
            }
        }));
        out.push(("tree10", query(10, atoms)));
        // Class and attribute ids of two digits next to one-digit ids:
        // `ClassId(12)` sorts before `ClassId(3)` as text.
        out.push((
            "wide_ids",
            query(
                4,
                [
                    Atom::Range(v(0), vec![cls(12)]),
                    Atom::Range(v(1), vec![cls(3)]),
                    Atom::Range(v(2), vec![cls(10), cls(2)]),
                    Atom::Range(v(3), vec![cls(2)]),
                    Atom::Member(v(1), v(0), at(11)),
                    Atom::Member(v(2), v(0), at(3)),
                    Atom::Member(v(3), v(0), at(10)),
                ],
            ),
        ));
        // Range lists where one is a prefix of another, positive and
        // negative.
        out.push((
            "range_prefixes",
            query(
                4,
                [
                    Atom::Range(v(0), vec![cls(1)]),
                    Atom::Range(v(1), vec![cls(1), cls(2)]),
                    Atom::Range(v(2), vec![cls(1), cls(2), cls(3)]),
                    Atom::Range(v(3), vec![cls(1)]),
                    Atom::NonRange(v(1), vec![cls(4)]),
                    Atom::NonRange(v(3), vec![cls(4), cls(5)]),
                    Atom::Member(v(1), v(0), at(0)),
                    Atom::Member(v(3), v(2), at(0)),
                ],
            ),
        ));
        // Equalities and inequalities with attribute terms on both sides,
        // including a self-loop `x.A = x.B`.
        out.push((
            "attr_terms",
            query(
                4,
                [
                    Atom::Range(v(0), vec![cls(0)]),
                    Atom::Range(v(1), vec![cls(0)]),
                    Atom::Range(v(2), vec![cls(1)]),
                    Atom::Range(v(3), vec![cls(1)]),
                    Atom::Eq(Term::Attr(v(0), at(1)), Term::Attr(v(1), at(2))),
                    Atom::Neq(Term::Attr(v(2), at(1)), Term::Attr(v(3), at(1))),
                    Atom::Eq(Term::Attr(v(3), at(0)), Term::Attr(v(3), at(2))),
                    Atom::Neq(Term::Var(v(1)), Term::Attr(v(2), at(3))),
                ],
            ),
        ));
        // Every negative atom kind.
        out.push((
            "negatives",
            query(
                3,
                [
                    Atom::Range(v(0), vec![cls(0)]),
                    Atom::Range(v(1), vec![cls(0)]),
                    Atom::Range(v(2), vec![cls(0)]),
                    Atom::NonRange(v(0), vec![cls(1), cls(2)]),
                    Atom::NonMember(v(1), v(0), at(0)),
                    Atom::NonMember(v(2), v(1), at(0)),
                    Atom::Neq(Term::Var(v(0)), Term::Var(v(2))),
                    Atom::Member(v(2), v(0), at(1)),
                ],
            ),
        ));
        // Duplicate atoms and both orientations of one equality.
        out.push((
            "duplicates",
            query(
                3,
                [
                    Atom::Range(v(0), vec![cls(0)]),
                    Atom::Range(v(0), vec![cls(0)]),
                    Atom::Range(v(1), vec![cls(0)]),
                    Atom::Range(v(2), vec![cls(0)]),
                    Atom::Eq(Term::Var(v(0)), Term::Var(v(1))),
                    Atom::Eq(Term::Var(v(1)), Term::Var(v(0))),
                    Atom::Neq(Term::Var(v(2)), Term::Var(v(1))),
                    Atom::Neq(Term::Var(v(1)), Term::Var(v(2))),
                    Atom::Member(v(2), v(0), at(0)),
                    Atom::Member(v(2), v(0), at(0)),
                ],
            ),
        ));
        // Twelve owners of distinct classes, each with one member of a
        // shared class: refinement splits the members by their owner's
        // color, 2 to 13, and the string labeler ordered those colors as
        // text (`"10"` before `"2"`).
        let mut atoms = vec![Atom::Range(v(0), vec![cls(40)])];
        for i in 1..13 {
            atoms.push(Atom::Range(v(i), vec![cls(i)]));
            atoms.push(Atom::Range(v(12 + i), vec![cls(30)]));
            atoms.push(Atom::Member(v(12 + i), v(i), at(0)));
        }
        out.push(("decimal_colors", query(25, atoms)));
        // Six interchangeable spokes: one 6-variable class, 6! leaves.
        let mut atoms = vec![Atom::Range(v(0), vec![cls(1)])];
        for i in 1..7 {
            atoms.push(Atom::Range(v(i), vec![cls(0)]));
            atoms.push(Atom::Member(v(i), v(0), at(0)));
        }
        out.push(("spokes6", query(7, atoms)));
        out
    }

    /// The 9-spoke query of `budgeted_search_stops_in_the_factorial_regime`.
    fn nine_spokes() -> Query {
        let mut atoms = vec![Atom::Range(v(0), vec![cls(1)])];
        for i in 1..10 {
            atoms.push(Atom::Range(v(i), vec![cls(0)]));
            atoms.push(Atom::Member(v(i), v(0), at(0)));
        }
        query(10, atoms)
    }

    /// The labeling of `q` with the number of units it charged, or the
    /// unit at which a `limit` tripped.
    fn labeled(
        q: &Query,
        limit: u64,
        label: impl Fn(&Query, &mut dyn FnMut(u64) -> Result<(), u64>) -> Result<CanonicalQuery, u64>,
    ) -> Result<(String, u64), u64> {
        let mut spent = 0u64;
        let form = label(q, &mut |u| {
            spent += u;
            if spent > limit {
                Err(spent)
            } else {
                Ok(())
            }
        })?;
        let wire = form.to_wire();
        assert_eq!(
            CanonicalQuery::from_wire(&wire).as_ref(),
            Some(&form),
            "to_wire→from_wire is not a fixpoint for {wire}"
        );
        Ok((wire, spent))
    }

    /// Assert the byte-arena labeler matches the string-keyed reference on
    /// `q`: the same wire form, the same number of charges, and a budget
    /// that trips at the same unit.
    fn assert_matches_reference(name: &str, q: &Query) {
        let new = |q: &Query, c: &mut dyn FnMut(u64) -> Result<(), u64>| {
            canonical_form_budgeted(q, &mut |u| c(u))
        };
        let old = |q: &Query, c: &mut dyn FnMut(u64) -> Result<(), u64>| {
            reference::canonical_form_budgeted(q, &mut |u| c(u))
        };
        let full = labeled(q, u64::MAX, new).expect("unlimited");
        assert_eq!(
            Ok(&full),
            labeled(q, u64::MAX, old).as_ref(),
            "{name}: {q:?}"
        );
        let spent = full.1;
        for limit in [0, 1, spent / 2, spent.saturating_sub(1)] {
            if limit < spent {
                assert_eq!(
                    labeled(q, limit, new),
                    labeled(q, limit, old),
                    "{name} at limit {limit}"
                );
            }
        }
    }

    /// `q` with its variables renumbered by `perm` (the free variable moves
    /// too), every atom repeated once and every equality also flipped, so
    /// duplicates and orientation reach the labeler.
    fn perturbed(q: &Query, perm: &[VarId]) -> Query {
        let mapped = q.apply_mapping(perm);
        let extra: Vec<Atom> = mapped
            .atoms()
            .iter()
            .map(|a| match a {
                Atom::Eq(s, t) => Atom::Eq(*t, *s),
                Atom::Neq(s, t) => Atom::Neq(*t, *s),
                other => other.clone(),
            })
            .collect();
        mapped.with_extra_atoms(extra)
    }

    #[test]
    fn fixtures_match_the_string_keyed_reference() {
        for (name, q) in fixtures() {
            assert_matches_reference(name, &q);
            let n = q.var_count();
            let reversed: Vec<VarId> = (0..n).rev().map(v).collect();
            assert_matches_reference(name, &perturbed(&q, &reversed));
        }
    }

    #[test]
    fn nine_spokes_match_the_reference() {
        // One 9-variable class: 9! leaves, the whole factorial search on
        // both sides, then a trip part-way through it.
        let q = nine_spokes();
        let new = |q: &Query, c: &mut dyn FnMut(u64) -> Result<(), u64>| {
            canonical_form_budgeted(q, &mut |u| c(u))
        };
        let old = |q: &Query, c: &mut dyn FnMut(u64) -> Result<(), u64>| {
            reference::canonical_form_budgeted(q, &mut |u| c(u))
        };
        let full = labeled(&q, u64::MAX, new);
        assert_eq!(full, labeled(&q, u64::MAX, old));
        assert_eq!(labeled(&q, 5000, new), Err(5001));
        assert_eq!(labeled(&q, 5000, new), labeled(&q, 5000, old));
    }

    #[test]
    fn generated_queries_match_the_string_keyed_reference() {
        use oocq_gen::{random_positive, random_schema, Rng, SchemaParams, StdRng};
        // `oocq-gen` builds queries against its own copy of this crate, so
        // each atom crosses over by kind (read from its `Debug` tag) and
        // fields (read through the public accessors).
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let schema = random_schema(
                &mut rng,
                &SchemaParams {
                    roots: 4,
                    branching: 3,
                    ..SchemaParams::default()
                },
            );
            let classes = schema.class_count();
            let attrs = schema.attr_count().max(1);
            for round in 0..8 {
                let n = 1 + rng.gen_range(0..13usize);
                let params = oocq_gen::QueryParams {
                    vars: n,
                    atoms: rng.gen_range(0..2 * n + 2),
                };
                let generated = random_positive(&mut rng, &schema, &params);
                let n = generated.var_count();
                let mut atoms = Vec::new();
                for a in generated.atoms() {
                    let text = format!("{a:?}");
                    let terms: Vec<Term> = a
                        .terms()
                        .iter()
                        .map(|t| match t.attr() {
                            None => Term::Var(v(t.var().index())),
                            Some(at) => Term::Attr(v(t.var().index()), at),
                        })
                        .collect();
                    let class_list = || -> Vec<ClassId> {
                        text.split("ClassId(")
                            .skip(1)
                            .map(|s| cls(s[..s.find(')').unwrap()].parse().unwrap()))
                            .collect()
                    };
                    atoms.push(match &text[..text.find('(').unwrap()] {
                        "Range" => Atom::Range(terms[0].var(), class_list()),
                        "NonRange" => Atom::NonRange(terms[0].var(), class_list()),
                        "Eq" => Atom::Eq(terms[0], terms[1]),
                        "Neq" => Atom::Neq(terms[0], terms[1]),
                        "Member" => {
                            Atom::Member(terms[0].var(), terms[1].var(), terms[1].attr().unwrap())
                        }
                        "NonMember" => Atom::NonMember(
                            terms[0].var(),
                            terms[1].var(),
                            terms[1].attr().unwrap(),
                        ),
                        other => panic!("unknown atom kind {other}"),
                    });
                }
                // The generator only writes positive atoms; add negative
                // ones and attribute-term (in)equalities over the same
                // variables.
                let pick = |rng: &mut StdRng| v(rng.gen_range(0..n));
                let term = |rng: &mut StdRng| {
                    let x = v(rng.gen_range(0..n));
                    if rng.gen_bool(0.5) {
                        Term::Var(x)
                    } else {
                        Term::Attr(x, at(rng.gen_range(0..attrs)))
                    }
                };
                for _ in 0..rng.gen_range(0..4usize) {
                    atoms.push(match rng.gen_range(0..5usize) {
                        0 => {
                            let k = 1 + rng.gen_range(0..3usize);
                            let cs = (0..k).map(|_| cls(rng.gen_range(0..classes))).collect();
                            Atom::NonRange(pick(&mut rng), cs)
                        }
                        1 => Atom::NonMember(
                            pick(&mut rng),
                            pick(&mut rng),
                            at(rng.gen_range(0..attrs)),
                        ),
                        2 => Atom::Neq(term(&mut rng), term(&mut rng)),
                        3 => Atom::Eq(term(&mut rng), term(&mut rng)),
                        _ => Atom::Member(
                            pick(&mut rng),
                            pick(&mut rng),
                            at(rng.gen_range(0..attrs)),
                        ),
                    });
                }
                let q = query(n, atoms);
                let name = format!("seed {seed} round {round}");
                assert_matches_reference(&name, &q);
                // A random renumbering that moves the free variable.
                let mut perm: Vec<VarId> = (0..n).map(v).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..i + 1));
                }
                assert_matches_reference(&name, &perturbed(&q, &perm));
            }
        }
    }

    #[test]
    fn golden_wire_forms_are_pinned() {
        // Persisted verdict logs key on these strings: a labeler change
        // that moves any of them must bump `ENGINE_CACHE_VERSION` in
        // `oocq-service`.
        let golden: &[(&str, &str)] = &[
            ("chain12", "v12;r0:0;r1:0;r2:1;r3:1;r4:2;r5:2;r6:0;r7:0;r8:1;r9:1;r10:2;r11:2;m1,10.0;m2,6.0;m3,7.0;m4,8.0;m5,9.0;m6,4.1;m7,5.1;m8,0.1;m9,1.1;m10,2.1;m11,3.1"),
            ("tree10", "v10;r0:1;r1:1;r2:1;r3:1;r4:1;r5:1;r6:1;r7:1;r8:1;r9:1;e1~0.2;e2~1.2;e5~2.2;e6~3.2;e7~4.2;m3,1.1;m4,3.1;m8,2.1;m9,4.1"),
            ("wide_ids", "v4;r0:12;r1:2;r2:3;r3:10,2;m1,0.10;m2,0.11;m3,0.3"),
            ("range_prefixes", "v4;r0:1;r1:1;r2:1,2;r3:1,2,3;R1:4,5;R2:4;m1,3.0;m2,0.0"),
            ("attr_terms", "v4;r0:0;r1:1;r2:0;r3:1;e0.1~2.2;e1.0~1.2;n2~3.3;n1.1~3.1"),
            ("negatives", "v3;r0:0;r1:0;r2:0;R0:1,2;n0~1;m1,0.1;M1,2.0;M2,0.0"),
            ("duplicates", "v3;r0:0;r1:0;r2:0;e0~1;n1~2;m2,0.0"),
            ("decimal_colors", "v25;r0:40;r1:30;r2:30;r3:30;r4:30;r5:30;r6:30;r7:30;r8:30;r9:30;r10:30;r11:30;r12:30;r13:1;r14:10;r15:11;r16:12;r17:2;r18:3;r19:4;r20:5;r21:6;r22:7;r23:8;r24:9;m1,21.0;m2,22.0;m3,23.0;m4,24.0;m5,13.0;m6,14.0;m7,15.0;m8,16.0;m9,17.0;m10,18.0;m11,19.0;m12,20.0"),
            ("spokes6", "v7;r0:1;r1:0;r2:0;r3:0;r4:0;r5:0;r6:0;m1,0.0;m2,0.0;m3,0.0;m4,0.0;m5,0.0;m6,0.0"),
        ];
        let fixtures = fixtures();
        assert_eq!(fixtures.len(), golden.len());
        for ((name, q), (gname, wire)) in fixtures.iter().zip(golden) {
            assert_eq!(name, gname);
            assert_eq!(canonical_form(q).to_wire(), *wire, "{name}");
        }
    }
}
