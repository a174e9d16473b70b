//! Finite security lattices for the P4BID information-flow type system.
//!
//! P4BID (Grewal, D'Antoni, Hsu — PLDI 2022) types every P4 value with a
//! *security label* drawn from a lattice `(L, ⊑)` with distinguished bottom
//! (`⊥`, public/trusted) and top (`⊤`, secret/untrusted) elements. The type
//! system is parametric in the lattice: the paper's prototype ships the
//! two-point lattice `{low ⊑ high}` and the four-point diamond lattice
//! `{⊥ ⊑ A, B ⊑ ⊤}` of Figure 8b used for network isolation.
//!
//! This crate provides:
//!
//! * [`Lattice`] — an arbitrary finite lattice built from named elements and
//!   a covering/order relation, with precomputed `⊑`, `⊔` (join) and `⊓`
//!   (meet) tables so that queries are O(1);
//! * [`Label`] — a cheap copyable handle into a lattice;
//! * constructors for the lattices used in the paper and in the ablation
//!   benchmarks: [`Lattice::two_point`], [`Lattice::diamond`],
//!   [`Lattice::chain`], [`Lattice::powerset`], and the general
//!   [`Lattice::from_order`];
//! * [`laws`] — executable lattice laws used by the property-test suite.
//!
//! # Examples
//!
//! ```
//! use p4bid_lattice::Lattice;
//!
//! let lat = Lattice::diamond();
//! let a = lat.label("A").unwrap();
//! let b = lat.label("B").unwrap();
//! assert!(!lat.leq(a, b));
//! assert_eq!(lat.join(a, b), lat.top());
//! assert_eq!(lat.meet(a, b), lat.bottom());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod laws;

/// A security label: a handle into a specific [`Lattice`].
///
/// Labels are plain indices and only meaningful relative to the lattice that
/// produced them. Mixing labels across lattices is a logic error; the
/// lattice operations do bounds checking and will panic on foreign labels
/// whose index is out of range.
///
/// # Examples
///
/// ```
/// use p4bid_lattice::Lattice;
/// let lat = Lattice::two_point();
/// let low = lat.bottom();
/// let high = lat.top();
/// assert!(lat.leq(low, high));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u32);

impl Label {
    /// The raw index of this label inside its lattice.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Errors produced while constructing a [`Lattice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeError {
    /// The element list was empty.
    Empty,
    /// Two elements share the same name.
    DuplicateName(String),
    /// An order pair referenced a name that is not an element.
    UnknownName(String),
    /// The order relation is not antisymmetric: two distinct elements are
    /// mutually related.
    NotAntisymmetric(String, String),
    /// A pair of elements has no least upper bound.
    NoJoin(String, String),
    /// A pair of elements has no greatest lower bound.
    NoMeet(String, String),
    /// Too many elements (the implementation caps lattices at `u32::MAX`
    /// elements; practical lattices are tiny).
    TooLarge(usize),
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::Empty => write!(f, "lattice has no elements"),
            LatticeError::DuplicateName(n) => write!(f, "duplicate lattice element `{n}`"),
            LatticeError::UnknownName(n) => {
                write!(f, "order constraint mentions unknown element `{n}`")
            }
            LatticeError::NotAntisymmetric(a, b) => {
                write!(f, "order is not antisymmetric: `{a}` and `{b}` are mutually related")
            }
            LatticeError::NoJoin(a, b) => {
                write!(f, "elements `{a}` and `{b}` have no least upper bound")
            }
            LatticeError::NoMeet(a, b) => {
                write!(f, "elements `{a}` and `{b}` have no greatest lower bound")
            }
            LatticeError::TooLarge(n) => write!(f, "lattice with {n} elements is too large"),
        }
    }
}

impl Error for LatticeError {}

/// A finite security lattice with named elements.
///
/// Construction validates that the supplied order really is a lattice
/// (a partial order in which every pair of elements has a least upper bound
/// and a greatest lower bound, hence unique `⊥` and `⊤`). All queries are
/// table lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lattice {
    names: Vec<String>,
    /// `leq[a * n + b]` ⇔ `a ⊑ b`.
    leq: Vec<bool>,
    /// `join[a * n + b]` = `a ⊔ b`.
    join: Vec<Label>,
    /// `meet[a * n + b]` = `a ⊓ b`.
    meet: Vec<Label>,
    bottom: Label,
    top: Label,
}

impl Lattice {
    /// Builds a lattice from element names and order constraints
    /// `lo ⊑ hi`. The constraints may be any subset of the intended order
    /// (e.g. just the covering relation); the constructor takes the
    /// reflexive-transitive closure.
    ///
    /// # Errors
    ///
    /// Returns a [`LatticeError`] if names are empty or duplicated, a
    /// constraint names an unknown element, the closure is not
    /// antisymmetric, or some pair of elements lacks a join or meet.
    ///
    /// # Examples
    ///
    /// ```
    /// use p4bid_lattice::Lattice;
    /// let lat = Lattice::from_order(
    ///     &["bot", "A", "B", "top"],
    ///     &[("bot", "A"), ("bot", "B"), ("A", "top"), ("B", "top")],
    /// ).unwrap();
    /// assert_eq!(lat.name(lat.top()), "top");
    /// ```
    pub fn from_order<S1: AsRef<str>, S2: AsRef<str>>(
        names: &[S1],
        order: &[(S2, S2)],
    ) -> Result<Self, LatticeError> {
        if names.is_empty() {
            return Err(LatticeError::Empty);
        }
        if names.len() > u32::MAX as usize {
            return Err(LatticeError::TooLarge(names.len()));
        }
        let n = names.len();
        let names: Vec<String> = names.iter().map(|s| s.as_ref().to_owned()).collect();
        for (i, a) in names.iter().enumerate() {
            if names[..i].contains(a) {
                return Err(LatticeError::DuplicateName(a.clone()));
            }
        }
        let index_of = |name: &str| -> Result<usize, LatticeError> {
            names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| LatticeError::UnknownName(name.to_owned()))
        };

        // Reflexive closure.
        let mut leq = vec![false; n * n];
        for i in 0..n {
            leq[i * n + i] = true;
        }
        for (lo, hi) in order {
            let lo = index_of(lo.as_ref())?;
            let hi = index_of(hi.as_ref())?;
            leq[lo * n + hi] = true;
        }
        // Transitive closure (Floyd–Warshall on the boolean matrix).
        for k in 0..n {
            for i in 0..n {
                if leq[i * n + k] {
                    for j in 0..n {
                        if leq[k * n + j] {
                            leq[i * n + j] = true;
                        }
                    }
                }
            }
        }
        // Antisymmetry.
        for i in 0..n {
            for j in (i + 1)..n {
                if leq[i * n + j] && leq[j * n + i] {
                    return Err(LatticeError::NotAntisymmetric(names[i].clone(), names[j].clone()));
                }
            }
        }
        // Joins and meets: for each pair, the set of upper (lower) bounds
        // must contain a unique least (greatest) element.
        let mut join = vec![Label(0); n * n];
        let mut meet = vec![Label(0); n * n];
        for a in 0..n {
            for b in 0..n {
                let ubs: Vec<usize> =
                    (0..n).filter(|&u| leq[a * n + u] && leq[b * n + u]).collect();
                let least = ubs.iter().copied().find(|&u| ubs.iter().all(|&v| leq[u * n + v]));
                match least {
                    Some(u) => join[a * n + b] = Label(u as u32),
                    None => return Err(LatticeError::NoJoin(names[a].clone(), names[b].clone())),
                }
                let lbs: Vec<usize> =
                    (0..n).filter(|&l| leq[l * n + a] && leq[l * n + b]).collect();
                let greatest = lbs.iter().copied().find(|&l| lbs.iter().all(|&m| leq[m * n + l]));
                match greatest {
                    Some(l) => meet[a * n + b] = Label(l as u32),
                    None => return Err(LatticeError::NoMeet(names[a].clone(), names[b].clone())),
                }
            }
        }
        // Bottom is below everything; top above everything. Existence
        // follows from joins/meets over the whole (finite, non-empty) set.
        let mut bottom = Label(0);
        let mut top = Label(0);
        for i in 1..n {
            bottom = meet[bottom.index() * n + i];
            top = join[top.index() * n + i];
        }
        Ok(Lattice { names, leq, join, meet, bottom, top })
    }

    /// The paper's default two-point lattice `{low ⊑ high}`.
    ///
    /// `low` is `⊥` (public / trusted) and `high` is `⊤`
    /// (secret / untrusted).
    #[must_use]
    pub fn two_point() -> Self {
        Self::from_order(&["low", "high"], &[("low", "high")])
            .expect("two-point lattice is well-formed")
    }

    /// The four-point diamond lattice of Figure 8b:
    /// `bot ⊑ A ⊑ top`, `bot ⊑ B ⊑ top`, with `A` and `B` incomparable.
    ///
    /// Used in the paper's network-isolation case study (§5.4): Alice's
    /// fields are labeled `A`, Bob's `B`, shared routing data `bot`, and
    /// telemetry `top`.
    #[must_use]
    pub fn diamond() -> Self {
        Self::from_order(
            &["bot", "A", "B", "top"],
            &[("bot", "A"), ("bot", "B"), ("A", "top"), ("B", "top")],
        )
        .expect("diamond lattice is well-formed")
    }

    /// A total order `l0 ⊑ l1 ⊑ … ⊑ l{k-1}` with `k ≥ 1` levels.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn chain(k: usize) -> Self {
        assert!(k >= 1, "a chain needs at least one level");
        let names: Vec<String> = (0..k).map(|i| format!("l{i}")).collect();
        let order: Vec<(String, String)> =
            (1..k).map(|i| (format!("l{}", i - 1), format!("l{i}"))).collect();
        Self::from_order(&names, &order).expect("chains are well-formed lattices")
    }

    /// The powerset lattice over a set of atoms, ordered by inclusion.
    ///
    /// Element names are `{}`, `{a}`, `{a,b}`, … in subset-mask order. The
    /// generalization the paper sketches for per-tenant isolation ("adding
    /// additional labels at the level of A and B") embeds into powersets.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 16 atoms (2^16 elements) to keep table
    /// sizes sane.
    #[must_use]
    pub fn powerset(atoms: &[&str]) -> Self {
        assert!(atoms.len() <= 16, "powerset lattices are capped at 16 atoms");
        let n = 1usize << atoms.len();
        let name_of = |mask: usize| {
            let mut parts = Vec::new();
            for (i, a) in atoms.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    parts.push(*a);
                }
            }
            format!("{{{}}}", parts.join(","))
        };
        let names: Vec<String> = (0..n).map(name_of).collect();
        let mut order = Vec::new();
        for m in 0..n {
            for i in 0..atoms.len() {
                if m & (1 << i) == 0 {
                    order.push((name_of(m), name_of(m | (1 << i))));
                }
            }
        }
        Self::from_order(&names, &order).expect("powersets are well-formed lattices")
    }

    /// The product lattice `self × other`, ordered pointwise:
    /// `(a₁, b₁) ⊑ (a₂, b₂)` iff `a₁ ⊑ a₂` and `b₁ ⊑ b₂`.
    ///
    /// Element names are `left*right`. Products are the standard way to
    /// track several properties at once — e.g. confidentiality × integrity,
    /// so a field can be `secret*untrusted` while another is
    /// `public*trusted` (the §5.3 integrity reading combined with the
    /// default confidentiality reading).
    ///
    /// # Examples
    ///
    /// ```
    /// use p4bid_lattice::Lattice;
    /// let conf = Lattice::from_order(&["public", "secret"], &[("public", "secret")]).unwrap();
    /// let integ = Lattice::from_order(&["trusted", "untrusted"], &[("trusted", "untrusted")]).unwrap();
    /// let both = conf.product(&integ);
    /// assert_eq!(both.len(), 4);
    /// assert_eq!(both.name(both.bottom()), "public*trusted");
    /// assert_eq!(both.name(both.top()), "secret*untrusted");
    /// let pu = both.label("public*untrusted").unwrap();
    /// let st = both.label("secret*trusted").unwrap();
    /// assert!(!both.leq(pu, st) && !both.leq(st, pu));
    /// ```
    #[must_use]
    pub fn product(&self, other: &Lattice) -> Lattice {
        let mut names = Vec::with_capacity(self.len() * other.len());
        for a in self.labels() {
            for b in other.labels() {
                names.push(format!("{}*{}", self.name(a), other.name(b)));
            }
        }
        let mut order = Vec::new();
        for a1 in self.labels() {
            for b1 in other.labels() {
                for a2 in self.labels() {
                    for b2 in other.labels() {
                        if (a1, b1) != (a2, b2) && self.leq(a1, a2) && other.leq(b1, b2) {
                            order.push((
                                format!("{}*{}", self.name(a1), other.name(b1)),
                                format!("{}*{}", self.name(a2), other.name(b2)),
                            ));
                        }
                    }
                }
            }
        }
        Lattice::from_order(&names, &order).expect("the product of two lattices is a lattice")
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the lattice is empty. Always `false` for a constructed
    /// lattice; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Looks up a label by element name.
    #[must_use]
    pub fn label(&self, name: &str) -> Option<Label> {
        self.names.iter().position(|n| n == name).map(|i| Label(i as u32))
    }

    /// The name of a label.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range for this lattice.
    #[must_use]
    pub fn name(&self, l: Label) -> &str {
        &self.names[l.index()]
    }

    /// All labels, in declaration order.
    pub fn labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.names.len()).map(|i| Label(i as u32))
    }

    /// All element names, in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// The partial order `a ⊑ b`.
    #[must_use]
    pub fn leq(&self, a: Label, b: Label) -> bool {
        self.leq[a.index() * self.len() + b.index()]
    }

    /// Least upper bound `a ⊔ b`.
    #[must_use]
    pub fn join(&self, a: Label, b: Label) -> Label {
        self.join[a.index() * self.len() + b.index()]
    }

    /// Greatest lower bound `a ⊓ b`.
    #[must_use]
    pub fn meet(&self, a: Label, b: Label) -> Label {
        self.meet[a.index() * self.len() + b.index()]
    }

    /// Meet of an arbitrary collection of labels (`⊤` if empty).
    pub fn meet_all<I: IntoIterator<Item = Label>>(&self, labels: I) -> Label {
        labels.into_iter().fold(self.top, |acc, l| self.meet(acc, l))
    }

    /// The least element `⊥` (public / trusted data).
    #[must_use]
    pub fn bottom(&self) -> Label {
        self.bottom
    }

    /// The greatest element `⊤` (secret / untrusted data).
    #[must_use]
    pub fn top(&self) -> Label {
        self.top
    }

    /// Whether `l` is the bottom element.
    #[must_use]
    pub fn is_bottom(&self, l: Label) -> bool {
        l == self.bottom
    }
}

impl fmt::Display for Lattice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lattice {{ ")?;
        let mut first = true;
        for a in self.labels() {
            for b in self.labels() {
                if a != b && self.leq(a, b) {
                    // Only print covering edges to keep the output readable.
                    let covered =
                        self.labels().any(|c| c != a && c != b && self.leq(a, c) && self.leq(c, b));
                    if !covered {
                        if !first {
                            write!(f, "; ")?;
                        }
                        first = false;
                        write!(f, "{} < {}", self.name(a), self.name(b))?;
                    }
                }
            }
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_point_shape() {
        let lat = Lattice::two_point();
        assert_eq!(lat.len(), 2);
        let low = lat.label("low").unwrap();
        let high = lat.label("high").unwrap();
        assert_eq!(lat.bottom(), low);
        assert_eq!(lat.top(), high);
        assert!(lat.leq(low, high));
        assert!(!lat.leq(high, low));
        assert_eq!(lat.join(low, high), high);
        assert_eq!(lat.meet(low, high), low);
    }

    #[test]
    fn diamond_shape() {
        let lat = Lattice::diamond();
        let a = lat.label("A").unwrap();
        let b = lat.label("B").unwrap();
        assert!(!lat.leq(a, b));
        assert!(!lat.leq(b, a));
        assert_eq!(lat.join(a, b), lat.top());
        assert_eq!(lat.meet(a, b), lat.bottom());
        assert!(lat.leq(lat.bottom(), a));
        assert!(lat.leq(b, lat.top()));
    }

    #[test]
    fn chain_is_total() {
        let lat = Lattice::chain(5);
        assert_eq!(lat.len(), 5);
        let l0 = lat.label("l0").unwrap();
        let l4 = lat.label("l4").unwrap();
        assert_eq!(lat.bottom(), l0);
        assert_eq!(lat.top(), l4);
        for a in lat.labels() {
            for b in lat.labels() {
                assert!(lat.leq(a, b) || lat.leq(b, a), "chains are total orders");
            }
        }
    }

    #[test]
    fn chain_of_one_is_trivial() {
        let lat = Lattice::chain(1);
        assert_eq!(lat.bottom(), lat.top());
        assert!(lat.leq(lat.bottom(), lat.top()));
    }

    #[test]
    fn powerset_of_two() {
        let lat = Lattice::powerset(&["a", "b"]);
        assert_eq!(lat.len(), 4);
        let ab = lat.label("{a,b}").unwrap();
        let a = lat.label("{a}").unwrap();
        let b = lat.label("{b}").unwrap();
        assert_eq!(lat.top(), ab);
        assert_eq!(lat.join(a, b), ab);
        assert_eq!(lat.meet(a, b), lat.bottom());
        assert_eq!(lat.name(lat.bottom()), "{}");
    }

    #[test]
    fn transitive_closure_is_taken() {
        // Only covering edges given; closure must infer bot ⊑ top.
        let lat =
            Lattice::from_order(&["bot", "mid", "top"], &[("bot", "mid"), ("mid", "top")]).unwrap();
        assert!(lat.leq(lat.label("bot").unwrap(), lat.label("top").unwrap()));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Lattice::from_order(&["x", "x"], &[("x", "x")]).unwrap_err();
        assert_eq!(err, LatticeError::DuplicateName("x".into()));
    }

    #[test]
    fn rejects_unknown_names() {
        let err = Lattice::from_order(&["x"], &[("x", "y")]).unwrap_err();
        assert_eq!(err, LatticeError::UnknownName("y".into()));
    }

    #[test]
    fn rejects_cycles() {
        let err = Lattice::from_order(&["a", "b"], &[("a", "b"), ("b", "a")]).unwrap_err();
        assert!(matches!(err, LatticeError::NotAntisymmetric(_, _)));
    }

    #[test]
    fn rejects_non_lattices() {
        // Two incomparable maximal elements: {a, b} with no top. a ⊔ b
        // does not exist.
        let err =
            Lattice::from_order(&["bot", "a", "b"], &[("bot", "a"), ("bot", "b")]).unwrap_err();
        assert!(matches!(err, LatticeError::NoJoin(_, _)));
    }

    #[test]
    fn rejects_empty() {
        let err = Lattice::from_order::<&str, &str>(&[], &[]).unwrap_err();
        assert_eq!(err, LatticeError::Empty);
    }

    #[test]
    fn join_meet_all() {
        let lat = Lattice::diamond();
        let a = lat.label("A").unwrap();
        let b = lat.label("B").unwrap();
        assert_eq!(lat.join(a, b), lat.top());
        assert_eq!(lat.meet_all([a, b]), lat.bottom());
        assert_eq!(lat.meet_all([]), lat.top());
    }

    #[test]
    fn product_is_a_lattice_with_pointwise_order() {
        let conf = Lattice::two_point();
        let integ =
            Lattice::from_order(&["trusted", "untrusted"], &[("trusted", "untrusted")]).unwrap();
        let both = conf.product(&integ);
        crate::laws::assert_laws(&both);
        assert_eq!(both.len(), 4);
        let lt = both.label("low*trusted").unwrap();
        let lu = both.label("low*untrusted").unwrap();
        let ht = both.label("high*trusted").unwrap();
        let hu = both.label("high*untrusted").unwrap();
        assert_eq!(both.bottom(), lt);
        assert_eq!(both.top(), hu);
        assert!(both.leq(lt, lu) && both.leq(lt, ht));
        assert!(!both.leq(lu, ht) && !both.leq(ht, lu));
        assert_eq!(both.join(lu, ht), hu);
        assert_eq!(both.meet(lu, ht), lt);
    }

    #[test]
    fn product_with_diamond() {
        let d = Lattice::diamond();
        let c = Lattice::chain(3);
        let p = d.product(&c);
        assert_eq!(p.len(), 12);
        crate::laws::assert_laws(&p);
    }

    #[test]
    fn display_prints_covering_edges() {
        let lat = Lattice::two_point();
        assert_eq!(lat.to_string(), "lattice { low < high }");
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let err = LatticeError::NoJoin("A".into(), "B".into());
        let msg = err.to_string();
        assert!(msg.contains("A") && msg.contains("B"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }
}
