//! The control plane `C` of the Core P4 semantics (Figure 2):
//! per-table match entries installed by the controller.
//!
//! `C : Loc × Val × PartialActionRef → ActionRef` in the paper; here a
//! table is identified by name and an entry carries the key patterns, the
//! action to run, and the control-plane-supplied (directionless) arguments.
//! As in the paper's non-interference setup, the same control plane is used
//! for both runs and entries are assumed well-typed at the declared
//! security types.

use crate::value::Value;

/// A key-matching pattern, one per table key column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPattern {
    /// `exact`: the key must equal the value (after `int`/`bit` shape
    /// normalization).
    Exact(Value),
    /// `lpm`: the top `prefix_len` bits of the key must equal those of
    /// `value`. `prefix_len == 0` matches everything.
    Lpm {
        /// Prefix value.
        value: Value,
        /// Number of significant leading bits.
        prefix_len: u16,
    },
    /// `ternary`: `key & mask == value & mask`.
    Ternary {
        /// Comparison value.
        value: Value,
        /// Care-bit mask.
        mask: Value,
    },
    /// Wildcard: matches any key.
    Any,
}

impl KeyPattern {
    /// Whether `key` matches this pattern.
    #[must_use]
    pub fn matches(&self, key: &Value) -> bool {
        match self {
            KeyPattern::Exact(v) => {
                key.clone().coerce_to_shape(v) == *v || v.clone().coerce_to_shape(key) == *key
            }
            KeyPattern::Lpm { value, prefix_len } => {
                let (Some(k), Some(v)) = (key.as_u128(), value.as_u128()) else {
                    return false;
                };
                let width = match key {
                    Value::Bit { width, .. } => u32::from(*width),
                    _ => 128,
                };
                let plen = u32::from(*prefix_len).min(width);
                if plen == 0 {
                    return true;
                }
                let shift = width - plen;
                (k >> shift) == (v >> shift)
            }
            KeyPattern::Ternary { value, mask } => {
                let (Some(k), Some(v), Some(m)) = (key.as_u128(), value.as_u128(), mask.as_u128())
                else {
                    return false;
                };
                (k & m) == (v & m)
            }
            KeyPattern::Any => true,
        }
    }

    /// The prefix length used to rank `lpm` matches; non-lpm patterns rank
    /// neutrally.
    #[must_use]
    fn lpm_len(&self) -> u32 {
        match self {
            KeyPattern::Lpm { prefix_len, .. } => u32::from(*prefix_len),
            _ => 0,
        }
    }
}

/// One installed table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableEntry {
    /// One pattern per key column.
    pub patterns: Vec<KeyPattern>,
    /// Name of the action to invoke (must be in the table's action list).
    pub action: String,
    /// Control-plane arguments for the action's directionless parameters.
    pub args: Vec<Value>,
    /// Higher priorities win; ties break by longest lpm prefix, then
    /// installation order.
    pub priority: i32,
}

impl TableEntry {
    /// A priority-0 entry.
    #[must_use]
    pub fn new(patterns: Vec<KeyPattern>, action: impl Into<String>, args: Vec<Value>) -> Self {
        TableEntry { patterns, action: action.into(), args, priority: 0 }
    }

    /// Sets the priority, builder-style.
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

/// Configuration of a single table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableConfig {
    /// Installed entries, in installation order.
    pub entries: Vec<TableEntry>,
    /// Optional default action override `(name, control-plane args)` used
    /// on a lookup miss; falls back to the table's declared
    /// `default_action`.
    pub default_action: Option<(String, Vec<Value>)>,
}

/// The control plane: table name → configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlPlane {
    tables: std::collections::HashMap<String, TableConfig>,
}

impl ControlPlane {
    /// An empty control plane (every lookup misses; default actions run).
    #[must_use]
    pub fn new() -> Self {
        ControlPlane::default()
    }

    /// Installs an entry into a table, creating the table config on first
    /// use.
    pub fn add_entry(&mut self, table: &str, entry: TableEntry) -> &mut Self {
        self.tables.entry(table.to_string()).or_default().entries.push(entry);
        self
    }

    /// Overrides a table's default action.
    pub fn set_default_action(
        &mut self,
        table: &str,
        action: impl Into<String>,
        args: Vec<Value>,
    ) -> &mut Self {
        self.tables.entry(table.to_string()).or_default().default_action =
            Some((action.into(), args));
        self
    }

    /// The configuration for a table, if any entries/defaults were
    /// installed.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableConfig> {
        self.tables.get(name)
    }

    /// Performs the `⇓match` judgement: given the evaluated key values,
    /// returns the matched `(action, control-plane args)`, or the
    /// configured/declared default on a miss (`None` if the table has no
    /// default at all — the caller then runs nothing, like `NoAction`).
    #[must_use]
    pub fn lookup(&self, table: &str, keys: &[Value]) -> Option<(&str, &[Value])> {
        let config = self.tables.get(table)?;
        match config.best_entry(keys) {
            Some(ix) => Some((&config.entries[ix].action, &config.entries[ix].args)),
            None => config.default_action.as_ref().map(|(name, args)| (name.as_str(), &args[..])),
        }
    }
}

impl TableConfig {
    /// The index of the entry that matches `keys` best: the highest
    /// priority, then the longest total `lpm` prefix, then the earliest
    /// installed. `None` on a miss.
    #[must_use]
    pub fn best_entry(&self, keys: &[Value]) -> Option<usize> {
        let mut best: Option<(usize, &TableEntry)> = None;
        for (ix, entry) in self.entries.iter().enumerate() {
            if entry.patterns.len() != keys.len() {
                continue;
            }
            if !entry.patterns.iter().zip(keys).all(|(p, k)| p.matches(k)) {
                continue;
            }
            let better = match best {
                None => true,
                Some((bix, b)) => {
                    let cand = (entry.priority, total_lpm(entry), std::cmp::Reverse(ix));
                    let cur = (b.priority, total_lpm(b), std::cmp::Reverse(bix));
                    cand > cur
                }
            };
            if better {
                best = Some((ix, entry));
            }
        }
        best.map(|(ix, _)| ix)
    }
}

fn total_lpm(e: &TableEntry) -> u32 {
    e.patterns.iter().map(KeyPattern::lpm_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b32(v: u128) -> Value {
        Value::bit(32, v)
    }

    #[test]
    fn exact_matching() {
        let p = KeyPattern::Exact(b32(10));
        assert!(p.matches(&b32(10)));
        assert!(!p.matches(&b32(11)));
        // Shape-normalized: an int key matches a bit pattern.
        assert!(p.matches(&Value::Int(10)));
    }

    #[test]
    fn lpm_matching() {
        // 10.0.0.0/8 — top 8 bits = 10.
        let p = KeyPattern::Lpm { value: b32(10 << 24), prefix_len: 8 };
        assert!(p.matches(&b32((10 << 24) | 12345)));
        assert!(!p.matches(&b32(11 << 24)));
        let p0 = KeyPattern::Lpm { value: b32(0), prefix_len: 0 };
        assert!(p0.matches(&b32(0xFFFF_FFFF)));
    }

    #[test]
    fn ternary_matching() {
        let p = KeyPattern::Ternary { value: b32(0b1010), mask: b32(0b1110) };
        assert!(p.matches(&b32(0b1011)));
        assert!(!p.matches(&b32(0b0011)));
    }

    #[test]
    fn wildcard() {
        assert!(KeyPattern::Any.matches(&Value::Bool(true)));
    }

    #[test]
    fn lookup_longest_prefix_wins() {
        let mut cp = ControlPlane::new();
        cp.add_entry(
            "t",
            TableEntry::new(
                vec![KeyPattern::Lpm { value: b32(10 << 24), prefix_len: 8 }],
                "short",
                vec![],
            ),
        );
        cp.add_entry(
            "t",
            TableEntry::new(
                vec![KeyPattern::Lpm { value: b32((10 << 24) | (1 << 16)), prefix_len: 16 }],
                "long",
                vec![],
            ),
        );
        let (action, _) = cp.lookup("t", &[b32((10 << 24) | (1 << 16) | 7)]).unwrap();
        assert_eq!(action, "long");
        let (action, _) = cp.lookup("t", &[b32((10 << 24) | (9 << 16))]).unwrap();
        assert_eq!(action, "short");
    }

    #[test]
    fn lookup_priority_wins_over_order() {
        let mut cp = ControlPlane::new();
        cp.add_entry("t", TableEntry::new(vec![KeyPattern::Any], "first", vec![]));
        cp.add_entry(
            "t",
            TableEntry::new(vec![KeyPattern::Any], "second", vec![]).with_priority(5),
        );
        assert_eq!(cp.lookup("t", &[b32(0)]).unwrap().0, "second");
    }

    #[test]
    fn first_installed_wins_ties() {
        let mut cp = ControlPlane::new();
        cp.add_entry("t", TableEntry::new(vec![KeyPattern::Any], "a", vec![]));
        cp.add_entry("t", TableEntry::new(vec![KeyPattern::Any], "b", vec![]));
        assert_eq!(cp.lookup("t", &[b32(0)]).unwrap().0, "a");
    }

    #[test]
    fn miss_falls_back_to_default() {
        let mut cp = ControlPlane::new();
        cp.add_entry("t", TableEntry::new(vec![KeyPattern::Exact(b32(1))], "hit", vec![b32(99)]));
        cp.set_default_action("t", "miss", vec![]);
        assert_eq!(cp.lookup("t", &[b32(1)]).unwrap().0, "hit");
        assert_eq!(cp.lookup("t", &[b32(2)]).unwrap().0, "miss");
        // Unknown table: nothing at all.
        assert_eq!(cp.lookup("ghost", &[b32(2)]), None);
    }

    #[test]
    fn arity_mismatched_entries_are_skipped() {
        let mut cp = ControlPlane::new();
        cp.add_entry("t", TableEntry::new(vec![KeyPattern::Any, KeyPattern::Any], "two", vec![]));
        assert_eq!(cp.lookup("t", &[b32(0)]), None);
    }
}
