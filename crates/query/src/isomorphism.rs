//! Structural isomorphism of conjunctive queries.
//!
//! Two queries are isomorphic when a bijection between their variables maps
//! the free variable to the free variable and the atom multiset of one onto
//! the atom multiset of the other. Theorem 4.5 of the paper implies that
//! equivalent *minimal* terminal positive conjunctive queries are related by
//! exactly such a bijection (every non-contradictory mapping between them is
//! bijective), so isomorphism is the right notion of syntactic uniqueness
//! for minimization results.

use crate::atom::Atom;
use crate::query::Query;
use crate::term::VarId;
use oocq_schema::{AttrId, ClassId};

/// Byte keys written once per query and interned to dense `u32` ranks in
/// byte order.
///
/// Each key is spelled exactly as the `Debug`-formatted string of the
/// string-keyed reference labeler (`"member-of:AttrId(3)"`,
/// `"r:[ClassId(12), ClassId(3)]"`), which fixes the canonical forms, but
/// by a hand-written writer into one byte buffer. Ranking the keys by byte
/// slice then reproduces the string order — including quirks such as
/// `ClassId(12)` sorting before `ClassId(3)` — without a `String` per key.
#[derive(Default)]
pub(crate) struct KeyArena {
    bytes: Vec<u8>,
    /// End offset of each closed key; key `i` starts where key `i - 1`
    /// ends.
    ends: Vec<u32>,
}

impl KeyArena {
    /// An arena sized for the keys of `atoms` atoms.
    pub(crate) fn for_atoms(atoms: usize) -> KeyArena {
        KeyArena {
            bytes: Vec::with_capacity(64 * atoms + 32),
            ends: Vec::with_capacity(4 * atoms + 8),
        }
    }

    /// Append `s` verbatim.
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.bytes.extend_from_slice(s.as_bytes());
        self
    }

    /// Decimal digits of `n`, as `{n}` would print them.
    pub(crate) fn dec(&mut self, mut n: usize) -> &mut Self {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.bytes.extend_from_slice(&buf[i..]);
        self
    }

    /// `{a:?}`: `AttrId(3)`.
    pub(crate) fn attr(&mut self, a: AttrId) -> &mut Self {
        self.str("AttrId(").dec(a.index()).str(")")
    }

    /// `{a:?}` of an `Option<AttrId>`: `None` or `Some(AttrId(3))`.
    pub(crate) fn opt_attr(&mut self, a: Option<AttrId>) -> &mut Self {
        match a {
            None => self.str("None"),
            Some(a) => self.str("Some(").attr(a).str(")"),
        }
    }

    /// `{cs:?}` of a class list: `[ClassId(1), ClassId(2)]`.
    pub(crate) fn classes(&mut self, cs: &[ClassId]) -> &mut Self {
        self.str("[");
        for (i, c) in cs.iter().enumerate() {
            if i > 0 {
                self.str(", ");
            }
            self.str("ClassId(").dec(c.index()).str(")");
        }
        self.str("]")
    }

    /// Close the key written since the previous `end` and return its index.
    pub(crate) fn end(&mut self) -> u32 {
        self.ends.push(self.bytes.len() as u32);
        (self.ends.len() - 1) as u32
    }

    /// Drop every key, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// The index the next closed key will get.
    pub(crate) fn next_key(&self) -> u32 {
        self.ends.len() as u32
    }

    /// The dense rank of every closed key in byte order; equal keys share a
    /// rank.
    pub(crate) fn ranks(&self) -> Vec<u32> {
        let mut ranks = Vec::new();
        self.ranks_into(&mut Vec::new(), &mut ranks);
        ranks
    }

    /// [`KeyArena::ranks`] into `ranks`, sorting in `sort`; both buffers
    /// are reused.
    pub(crate) fn ranks_into(&self, sort: &mut Vec<(&'static [u8], u32)>, ranks: &mut Vec<u32>) {
        let mut keys: Vec<(&[u8], u32)> = recycle(std::mem::take(sort));
        let mut start = 0;
        for (i, &end) in self.ends.iter().enumerate() {
            keys.push((&self.bytes[start..end as usize], i as u32));
            start = end as usize;
        }
        keys.sort_unstable_by(|a, b| a.0.cmp(b.0));
        ranks.clear();
        ranks.resize(keys.len(), 0);
        let mut rank = 0;
        for (pos, &(key, i)) in keys.iter().enumerate() {
            if pos > 0 && key != keys[pos - 1].0 {
                rank += 1;
            }
            ranks[i as usize] = rank;
        }
        *sort = recycle(keys);
    }

    /// The bytes of buffer this arena holds on to.
    pub(crate) fn footprint(&self) -> usize {
        self.bytes.capacity() + 4 * self.ends.capacity()
    }
}

/// An empty vector that reuses `v`'s buffer for another element type of
/// the same size and alignment — in practice the same type under another
/// lifetime, which is how per-thread scratch buffers hold borrowed items
/// between calls. No element is ever converted (the vector is emptied
/// first), and the standard library collects a mapped `IntoIter` in place.
pub(crate) fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was emptied"))
        .collect()
}

/// The atoms of `q` sorted and deduplicated, borrowed rather than cloned:
/// what [`Query::dedup_atoms`] would leave, without copying the query.
pub(crate) fn dedup_atoms(q: &Query) -> Vec<&Atom> {
    let mut atoms = Vec::new();
    dedup_atoms_into(q, &mut atoms);
    atoms
}

/// [`dedup_atoms`] into a reused buffer.
pub(crate) fn dedup_atoms_into<'q>(q: &'q Query, atoms: &mut Vec<&'q Atom>) {
    atoms.clear();
    atoms.extend(q.atoms());
    atoms.sort_unstable();
    atoms.dedup();
}

/// Write the signature key of every (atom, variable) incidence into `keys`
/// and record `(variable, key)` pairs in `out`. A signature is a cheap
/// per-variable invariant — how the variable participates in each kind of
/// atom — so distinct signatures can never map to one another. Shared with
/// [`crate::canonical`], which refines these into a canonical labeling.
pub(crate) fn signature_keys(atoms: &[&Atom], keys: &mut KeyArena, out: &mut Vec<(u32, u32)>) {
    let mut push = |v: VarId, key: u32| out.push((v.index() as u32, key));
    for a in atoms {
        match a {
            Atom::Range(v, cs) => push(*v, keys.str("range:").classes(cs).end()),
            Atom::NonRange(v, cs) => push(*v, keys.str("nonrange:").classes(cs).end()),
            Atom::Eq(s, t) | Atom::Neq(s, t) => {
                let kind = if matches!(a, Atom::Eq(..)) {
                    "eq:"
                } else {
                    "neq:"
                };
                for (side, other) in [(s, t), (t, s)] {
                    keys.str(kind);
                    match side.attr() {
                        None => keys.str("var"),
                        Some(at) => keys.str("attr").attr(at),
                    };
                    push(side.var(), keys.str("-vs-").opt_attr(other.attr()).end());
                }
            }
            Atom::Member(x, y, at) => {
                push(*x, keys.str("member-of:").attr(*at).end());
                push(*y, keys.str("member-owner:").attr(*at).end());
            }
            Atom::NonMember(x, y, at) => {
                push(*x, keys.str("nonmember-of:").attr(*at).end());
                push(*y, keys.str("nonmember-owner:").attr(*at).end());
            }
        }
    }
}

/// Per-variable signatures: the sorted `(key rank, count)` runs of each
/// variable's incidences. Runs compare exactly like the
/// `BTreeMap<key string, count>` they encode, because key ranks follow the
/// key strings' order.
#[derive(Default)]
pub(crate) struct Signatures {
    runs: Vec<(u32, u32)>,
    /// `runs[start[v]..start[v + 1]]` belong to variable `v`.
    start: Vec<u32>,
    /// Sorting buffer, kept for reuse.
    sorted: Vec<(u32, u32)>,
}

impl Signatures {
    /// Group `incidences` (from [`signature_keys`]) of a query with
    /// `var_count` variables, ranking keys through `ranks`.
    pub(crate) fn of(var_count: usize, incidences: &[(u32, u32)], ranks: &[u32]) -> Signatures {
        let mut sig = Signatures::default();
        sig.fill(var_count, incidences, ranks);
        sig
    }

    /// [`Signatures::of`] into this value's buffers.
    pub(crate) fn fill(&mut self, var_count: usize, incidences: &[(u32, u32)], ranks: &[u32]) {
        let Signatures {
            runs,
            start,
            sorted,
        } = self;
        sorted.clear();
        sorted.extend(incidences.iter().map(|&(v, key)| (v, ranks[key as usize])));
        sorted.sort_unstable();
        runs.clear();
        start.clear();
        start.resize(var_count + 1, 0);
        let mut prev: Option<(u32, u32)> = None;
        for &(v, rank) in sorted.iter() {
            if prev == Some((v, rank)) {
                runs.last_mut().expect("a run is open").1 += 1;
            } else {
                runs.push((rank, 1));
                start[v as usize + 1] = runs.len() as u32;
            }
            prev = Some((v, rank));
        }
        // Variables without incidences own an empty slice.
        for v in 0..var_count {
            start[v + 1] = start[v + 1].max(start[v]);
        }
    }

    /// The bytes of buffer this value holds on to.
    pub(crate) fn footprint(&self) -> usize {
        8 * (self.runs.capacity() + self.sorted.capacity()) + 4 * self.start.capacity()
    }

    pub(crate) fn of_var(&self, v: usize) -> &[(u32, u32)] {
        &self.runs[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

pub(crate) fn normalized_atoms(q: &Query, map: &[VarId]) -> Vec<Atom> {
    let mut atoms: Vec<Atom> = q
        .atoms()
        .iter()
        .map(|a| {
            // Normalize symmetric atoms so Eq(a,b) and Eq(b,a) compare equal.
            let m = a.map_vars(|v| map[v.index()]);
            match m {
                Atom::Eq(s, t) if t < s => Atom::Eq(t, s),
                Atom::Neq(s, t) if t < s => Atom::Neq(t, s),
                other => other,
            }
        })
        .collect();
    atoms.sort();
    atoms.dedup();
    atoms
}

/// Find a variable bijection witnessing `a ≅ b`, mapping free to free.
/// Returns the image of each variable of `a`.
pub fn find_isomorphism(a: &Query, b: &Query) -> Option<Vec<VarId>> {
    if a.var_count() != b.var_count() {
        return None;
    }
    // Duplicate atoms must not break the comparison: count distinct atoms.
    let (a_atoms, b_atoms) = (dedup_atoms(a), dedup_atoms(b));
    if a_atoms.len() != b_atoms.len() {
        return None;
    }
    // One arena for both sides, so equal keys share a rank across queries.
    let mut keys = KeyArena::for_atoms(a_atoms.len() + b_atoms.len());
    let (mut inc_a, mut inc_b) = (Vec::new(), Vec::new());
    signature_keys(&a_atoms, &mut keys, &mut inc_a);
    signature_keys(&b_atoms, &mut keys, &mut inc_b);
    let ranks = keys.ranks();
    let sig_a = Signatures::of(a.var_count(), &inc_a, &ranks);
    let sig_b = Signatures::of(b.var_count(), &inc_b, &ranks);
    let identity: Vec<VarId> = b.vars().collect();
    let b_atoms = normalized_atoms(b, &identity);

    let n = a.var_count();
    let mut map: Vec<Option<VarId>> = vec![None; n];
    let mut used = vec![false; n];
    map[a.free_var().index()] = Some(b.free_var());
    used[b.free_var().index()] = true;
    if sig_a.of_var(a.free_var().index()) != sig_b.of_var(b.free_var().index()) {
        return None;
    }

    // Assign remaining variables in order, pruning by signature; verify the
    // atom multisets at the end (atoms-by-atom checking during search is
    // possible but queries are small).
    fn recurse(
        a: &Query,
        b_atoms: &[Atom],
        sig_a: &Signatures,
        sig_b: &Signatures,
        map: &mut Vec<Option<VarId>>,
        used: &mut Vec<bool>,
        next: usize,
    ) -> bool {
        let n = map.len();
        let mut ix = next;
        while ix < n && map[ix].is_some() {
            ix += 1;
        }
        if ix == n {
            let full: Vec<VarId> = map.iter().map(|m| m.unwrap()).collect();
            return normalized_atoms(a, &full) == b_atoms;
        }
        for cand in 0..n {
            if used[cand] || sig_a.of_var(ix) != sig_b.of_var(cand) {
                continue;
            }
            map[ix] = Some(VarId::from_index(cand));
            used[cand] = true;
            if recurse(a, b_atoms, sig_a, sig_b, map, used, ix + 1) {
                return true;
            }
            map[ix] = None;
            used[cand] = false;
        }
        false
    }
    recurse(a, &b_atoms, &sig_a, &sig_b, &mut map, &mut used, 0)
        .then(|| map.into_iter().map(Option::unwrap).collect())
}

/// Are the two queries structurally isomorphic (same up to renaming of
/// variables, with free variables corresponding)?
pub fn isomorphic(a: &Query, b: &Query) -> bool {
    find_isomorphism(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryBuilder;
    use oocq_schema::samples;

    #[test]
    fn renamed_queries_are_isomorphic() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let build = |names: [&str; 3]| {
            let mut b = QueryBuilder::new(names[0]);
            let x = b.free();
            let y = b.var(names[1]);
            let z = b.var(names[2]);
            b.range(x, [t1]).range(y, [t2]).range(z, [t1]);
            b.member(x, y, a).member(z, y, a);
            b.build()
        };
        let q1 = build(["x", "y", "z"]);
        let q2 = build(["anna", "bert", "carl"]);
        assert!(isomorphic(&q1, &q2));
        let iso = find_isomorphism(&q1, &q2).unwrap();
        assert_eq!(iso[0].index(), 0); // free maps to free
    }

    #[test]
    fn atom_order_and_eq_orientation_do_not_matter() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]).eq_vars(x, y);
        let q1 = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.eq_vars(y, x).range(y, [c]).range(x, [c]);
        let q2 = b.build();
        assert!(isomorphic(&q1, &q2));
    }

    #[test]
    fn different_shapes_are_not_isomorphic() {
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]).member(x, y, a);
        let q1 = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]).non_member(x, y, a);
        let q2 = b.build();
        assert!(!isomorphic(&q1, &q2));
    }

    #[test]
    fn free_variable_must_correspond() {
        // Same atom structure, but the free variable plays a different role.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [t1]).range(y, [t2]).member(x, y, a);
        let q1 = b.build();
        // Here the free variable is the set OWNER, not the member.
        let mut b = QueryBuilder::new("y");
        let yf = b.free();
        let x2 = b.var("x");
        b.range(x2, [t1]).range(yf, [t2]).member(x2, yf, a);
        let q2 = b.build();
        assert!(!isomorphic(&q1, &q2));
    }

    #[test]
    fn var_count_mismatch_short_circuits() {
        let s = samples::single_class();
        let c = s.class_id("C").unwrap();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        b.range(x, [c]);
        let q1 = b.build();
        let mut b = QueryBuilder::new("x");
        let x = b.free();
        let y = b.var("y");
        b.range(x, [c]).range(y, [c]);
        let q2 = b.build();
        assert!(!isomorphic(&q1, &q2));
    }

    #[test]
    fn automorphic_spokes_found() {
        // Two interchangeable spokes: isomorphism must explore both orders.
        let s = samples::example_33();
        let t1 = s.class_id("T1").unwrap();
        let t2 = s.class_id("T2").unwrap();
        let a = s.attr_id("A").unwrap();
        let build = |swap: bool| {
            let mut b = QueryBuilder::new("o");
            let o = b.free();
            let m1 = b.var(if swap { "m2" } else { "m1" });
            let m2 = b.var(if swap { "m1" } else { "m2" });
            b.range(o, [t2]).range(m1, [t1]).range(m2, [t1]);
            b.member(m1, o, a).member(m2, o, a);
            // Distinguish spokes with an extra equality on one only.
            b.eq_vars(m1, m1);
            b.build()
        };
        assert!(isomorphic(&build(false), &build(true)));
    }
}
