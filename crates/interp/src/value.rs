//! Runtime values for the Core P4 interpreter.
//!
//! Values mirror the resolved data types of [`p4bid_ast::sectype`]:
//! booleans, arbitrary-precision integers, fixed-width bit-vectors (stored
//! masked), records, always-valid headers, stacks and match kinds.
//! Functions, actions and tables are not values: Core P4 only calls and
//! applies them, and a prepared control resolves every call and
//! application to its code (see [`crate::eval`]). Value equality is
//! structural, which is exactly what the non-interference definitions
//! compare.
//!
//! Record and header fields are keyed by interned [`Symbol`]s (the same
//! interner the typechecker used), so field reads and writes on the
//! evaluation hot path are integer comparisons instead of string compares.
//! Rendering a value with human-readable field names is a diagnostics
//! boundary: use [`Value::display_with`].

use p4bid_ast::intern::{Interner, Symbol};
use p4bid_ast::pool::TyPool;
use p4bid_ast::sectype::{SecTy, Ty};
use p4bid_ast::surface::{BinOp, UnOp};
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An arbitrary-precision integer (bounded to `i128` here; the case
    /// studies stay far below that).
    Int(i128),
    /// An unsigned bit-vector; `value` is always masked to `width` bits.
    Bit {
        /// Width in bits, 1..=128.
        width: u16,
        /// The masked payload.
        value: u128,
    },
    /// The unit value.
    Unit,
    /// A record (struct) value, fields keyed by interned symbol.
    Record(Vec<(Symbol, Value)>),
    /// A header value. The fragment of the paper only manipulates valid
    /// headers (§4.2/App. I), so `valid` starts `true` and stays `true`.
    Header {
        /// Validity bit.
        valid: bool,
        /// Field values, keyed by interned symbol.
        fields: Vec<(Symbol, Value)>,
    },
    /// A header stack.
    Stack(Vec<Value>),
    /// A match-kind constant (interned kind name).
    MatchKind(Symbol),
}

impl Value {
    /// Builds a masked bit-vector.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=128`.
    #[must_use]
    pub fn bit(width: u16, value: u128) -> Self {
        assert!((1..=128).contains(&width), "bit width out of range");
        Value::Bit { width, value: mask(width, value) }
    }

    /// The zero/default value of a resolved type (`init_Δ τ`): `false`,
    /// `0`, zeroed fields, and stacks of zeroed elements. Headers start
    /// valid (the paper's fragment only considers valid headers).
    #[must_use]
    pub fn init(pool: &TyPool, ty: SecTy) -> Self {
        match pool.kind(ty.ty) {
            Ty::Bool => Value::Bool(false),
            Ty::Int => Value::Int(0),
            Ty::Bit(w) => Value::bit(*w, 0),
            Ty::Unit => Value::Unit,
            Ty::Record(fields) => {
                Value::Record(fields.iter().map(|&(n, t)| (n, Value::init(pool, t))).collect())
            }
            Ty::Header(fields) => Value::Header {
                valid: true,
                fields: fields.iter().map(|&(n, t)| (n, Value::init(pool, t))).collect(),
            },
            Ty::Stack(elem, n) => {
                let elem = *elem;
                Value::Stack((0..*n).map(|_| Value::init(pool, elem)).collect())
            }
            // A match-kind *value* carries its kind symbol; a zero value of
            // the type is unreachable on typechecked programs (match kinds
            // never type variables). Symbol 0 is the `TyCtx` interner's
            // reserved empty-string sentinel.
            Ty::MatchKind => Value::MatchKind(Symbol::from_raw(0)),
            // Function and table types have no values; these cases are
            // unreachable on typechecked programs (no variable has such a
            // type).
            Ty::Table(_) | Ty::Function(_) => Value::Unit,
        }
    }

    /// Reads a record/header field by interned name.
    #[must_use]
    pub fn field(&self, name: Symbol) -> Option<&Value> {
        match self {
            Value::Record(fs) | Value::Header { fields: fs, .. } => {
                fs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Mutable access to a record/header field.
    pub fn field_mut(&mut self, name: Symbol) -> Option<&mut Value> {
        match self {
            Value::Record(fs) | Value::Header { fields: fs, .. } => {
                fs.iter_mut().find(|(n, _)| *n == name).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Coerces `self` to the shape of `shape`: the only real conversion is
    /// P4's implicit `int` → `bit<n>` (masking) and `bit<n>` → `int`;
    /// everything else must already match and is returned unchanged.
    #[must_use]
    pub fn coerce_to_shape(self, shape: &Value) -> Value {
        match (&self, shape) {
            (Value::Int(i), Value::Bit { width, .. }) => Value::bit(*width, *i as u128),
            (Value::Bit { value, .. }, Value::Int(_)) => Value::Int(*value as i128),
            _ => self,
        }
    }

    /// The numeric payload, for match-key comparison: bit-vectors as
    /// unsigned, ints sign-extended.
    #[must_use]
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Value::Bit { value, .. } => Some(*value),
            Value::Int(i) => Some(*i as u128),
            Value::Bool(b) => Some(u128::from(*b)),
            _ => None,
        }
    }

    /// Renders the value with field names resolved through `syms`
    /// (diagnostics boundary; the plain [`Display`](fmt::Display) impl
    /// prints raw symbols).
    #[must_use]
    pub fn display_with(&self, syms: &Interner) -> String {
        let mut out = String::new();
        render(self, Some(syms), &mut out);
        out
    }
}

/// The single value renderer behind both [`Display`](fmt::Display)
/// (`syms: None`, raw symbols) and [`Value::display_with`] (resolved
/// field/kind names).
fn render(v: &Value, syms: Option<&Interner>, out: &mut String) {
    use std::fmt::Write as _;
    let name = |sym: Symbol, out: &mut String| match syms {
        Some(syms) => out.push_str(syms.resolve(sym)),
        None => {
            let _ = write!(out, "{sym}");
        }
    };
    match v {
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Bit { width, value } => {
            let _ = write!(out, "{width}w{value}");
        }
        Value::Unit => out.push_str("()"),
        Value::Record(fields) => {
            out.push('{');
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                name(*n, out);
                out.push_str(" = ");
                render(v, syms, out);
            }
            out.push('}');
        }
        Value::Header { valid, fields } => {
            let _ = write!(out, "header({})", if *valid { "valid" } else { "invalid" });
            out.push('{');
            for (i, (n, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                name(*n, out);
                out.push_str(" = ");
                render(v, syms, out);
            }
            out.push('}');
        }
        Value::Stack(vs) => {
            out.push('[');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(v, syms, out);
            }
            out.push(']');
        }
        Value::MatchKind(k) => {
            out.push_str("match_kind(");
            name(*k, out);
            out.push(')');
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        render(self, None, &mut out);
        f.write_str(&out)
    }
}

/// Masks `value` to `width` bits.
#[must_use]
pub fn mask(width: u16, value: u128) -> u128 {
    if width >= 128 {
        value
    } else {
        value & ((1u128 << width) - 1)
    }
}

/// Errors from the value-level operator evaluator. On typechecked programs
/// these indicate interpreter bugs or control-plane misconfiguration, never
/// user errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpError(pub String);

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for OpError {}

/// The evaluation oracle `E(⊕, v₁, v₂)` for binary operations. Deterministic
/// and total on the operand shapes the typing oracle admits (the key
/// property the non-interference proof assumes in Appendix I, Eq. 8).
///
/// # Errors
///
/// Returns [`OpError`] on shape mismatches the typechecker would have
/// rejected.
pub fn eval_binop(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, OpError> {
    use BinOp::*;
    // Normalize int-vs-bit operand pairs to a common shape.
    let (lhs, rhs) = match (&lhs, &rhs) {
        (Value::Int(_), Value::Bit { .. }) => {
            let l = lhs.coerce_to_shape(&rhs);
            (l, rhs)
        }
        (Value::Bit { .. }, Value::Int(_)) if !matches!(op, Shl | Shr) => {
            let r = rhs.coerce_to_shape(&lhs);
            (lhs, r)
        }
        _ => (lhs, rhs),
    };
    match (op, &lhs, &rhs) {
        (Add, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a.wrapping_add(*b)))
        }
        (Sub, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a.wrapping_sub(*b)))
        }
        (Mul, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a.wrapping_mul(*b)))
        }
        (BitAnd, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a & b))
        }
        (BitOr, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a | b))
        }
        (BitXor, Value::Bit { width, value: a }, Value::Bit { value: b, .. }) => {
            Ok(Value::bit(*width, a ^ b))
        }
        (Add, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
        (Sub, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
        (Mul, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
        (BitAnd, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a & b)),
        (BitOr, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a | b)),
        (BitXor, Value::Int(a), Value::Int(b)) => Ok(Value::Int(a ^ b)),
        (Shl, Value::Bit { width, value: a }, rhs) => {
            let sh = shift_amount(rhs)?;
            Ok(if sh >= u32::from(*width) {
                Value::bit(*width, 0)
            } else {
                Value::bit(*width, a << sh)
            })
        }
        (Shr, Value::Bit { width, value: a }, rhs) => {
            let sh = shift_amount(rhs)?;
            Ok(if sh >= u32::from(*width) {
                Value::bit(*width, 0)
            } else {
                Value::bit(*width, a >> sh)
            })
        }
        (Shl, Value::Int(a), rhs) => {
            let sh = shift_amount(rhs)?.min(127);
            Ok(Value::Int(a.wrapping_shl(sh)))
        }
        (Shr, Value::Int(a), rhs) => {
            let sh = shift_amount(rhs)?.min(127);
            Ok(Value::Int(a.wrapping_shr(sh)))
        }
        (Eq, a, b) => Ok(Value::Bool(a == b)),
        (Ne, a, b) => Ok(Value::Bool(a != b)),
        (Lt, a, b) => compare(a, b).map(|o| Value::Bool(o == std::cmp::Ordering::Less)),
        (Le, a, b) => compare(a, b).map(|o| Value::Bool(o != std::cmp::Ordering::Greater)),
        (Gt, a, b) => compare(a, b).map(|o| Value::Bool(o == std::cmp::Ordering::Greater)),
        (Ge, a, b) => compare(a, b).map(|o| Value::Bool(o != std::cmp::Ordering::Less)),
        (And, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a && *b)),
        (Or, Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(*a || *b)),
        (op, a, b) => Err(OpError(format!("cannot evaluate `{a} {op} {b}`"))),
    }
}

/// The evaluation oracle for unary operations.
///
/// # Errors
///
/// Returns [`OpError`] on shapes the typechecker would have rejected.
pub fn eval_unop(op: UnOp, operand: Value) -> Result<Value, OpError> {
    match (op, &operand) {
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        (UnOp::Neg, Value::Bit { width, value }) => Ok(Value::bit(*width, value.wrapping_neg())),
        (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(i.wrapping_neg())),
        (UnOp::BitNot, Value::Bit { width, value }) => Ok(Value::bit(*width, !value)),
        (op, v) => Err(OpError(format!("cannot evaluate `{op}{v}`"))),
    }
}

fn shift_amount(v: &Value) -> Result<u32, OpError> {
    match v {
        Value::Bit { value, .. } => Ok(u32::try_from(*value).unwrap_or(u32::MAX)),
        Value::Int(i) if *i >= 0 => Ok(u32::try_from(*i).unwrap_or(u32::MAX)),
        other => Err(OpError(format!("invalid shift amount `{other}`"))),
    }
}

fn compare(a: &Value, b: &Value) -> Result<std::cmp::Ordering, OpError> {
    match (a, b) {
        (Value::Bit { value: x, .. }, Value::Bit { value: y, .. }) => Ok(x.cmp(y)),
        (Value::Int(x), Value::Int(y)) => Ok(x.cmp(y)),
        _ => Err(OpError(format!("cannot compare `{a}` and `{b}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4bid_ast::intern::Interner;
    use p4bid_ast::sectype::FieldList;
    use p4bid_lattice::Lattice;

    #[test]
    fn bit_construction_masks() {
        assert_eq!(Value::bit(4, 255), Value::Bit { width: 4, value: 15 });
        assert_eq!(Value::bit(128, 7), Value::Bit { width: 128, value: 7 });
    }

    #[test]
    fn init_values() {
        let lat = Lattice::two_point();
        let mut pool = TyPool::new();
        let bit8 = pool.bit(8);
        let bit9 = pool.bit(9);
        assert_eq!(
            Value::init(&pool, SecTy::bottom(p4bid_ast::TyId::BOOL, &lat)),
            Value::Bool(false)
        );
        assert_eq!(Value::init(&pool, SecTy::bottom(bit9, &lat)), Value::bit(9, 0));
        let stack = pool.stack(SecTy::bottom(bit8, &lat), 3);
        assert_eq!(
            Value::init(&pool, SecTy::bottom(stack, &lat)),
            Value::Stack(vec![Value::bit(8, 0); 3])
        );
    }

    #[test]
    fn header_init_is_valid_and_zeroed() {
        let lat = Lattice::two_point();
        let mut syms = Interner::new();
        let mut pool = TyPool::new();
        let ttl = syms.intern("ttl");
        let bit8 = pool.bit(8);
        let hdr = pool.header(FieldList::new(vec![(ttl, SecTy::bottom(bit8, &lat))]));
        let v = Value::init(&pool, SecTy::bottom(hdr, &lat));
        let Value::Header { valid, fields } = &v else { panic!() };
        assert!(*valid);
        assert_eq!(fields[0], (ttl, Value::bit(8, 0)));
    }

    #[test]
    fn wrapping_bit_arithmetic() {
        let a = Value::bit(8, 250);
        let b = Value::bit(8, 10);
        assert_eq!(eval_binop(BinOp::Add, a.clone(), b.clone()).unwrap(), Value::bit(8, 4));
        assert_eq!(eval_binop(BinOp::Sub, b.clone(), a.clone()).unwrap(), Value::bit(8, 16));
        assert_eq!(eval_binop(BinOp::Mul, a, b).unwrap(), Value::bit(8, 196)); // 2500 % 256
    }

    #[test]
    fn int_coerces_to_bit_operand() {
        let x = Value::bit(8, 7);
        assert_eq!(eval_binop(BinOp::Add, x.clone(), Value::Int(1)).unwrap(), Value::bit(8, 8));
        assert_eq!(eval_binop(BinOp::Eq, Value::Int(7), x).unwrap(), Value::Bool(true));
    }

    #[test]
    fn shifts() {
        let x = Value::bit(8, 0b1010_1010);
        assert_eq!(
            eval_binop(BinOp::Shr, x.clone(), Value::Int(1)).unwrap(),
            Value::bit(8, 0b0101_0101)
        );
        assert_eq!(
            eval_binop(BinOp::Shl, x.clone(), Value::Int(1)).unwrap(),
            Value::bit(8, 0b0101_0100)
        );
        // Over-shifting yields zero, deterministically.
        assert_eq!(eval_binop(BinOp::Shr, x, Value::Int(64)).unwrap(), Value::bit(8, 0));
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            eval_binop(BinOp::Lt, Value::bit(8, 3), Value::bit(8, 5)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(BinOp::Ge, Value::Int(-1), Value::Int(-1)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_binop(BinOp::And, Value::Bool(true), Value::Bool(false)).unwrap(),
            Value::Bool(false)
        );
        assert!(eval_binop(BinOp::Lt, Value::Bool(true), Value::Bool(false)).is_err());
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_unop(UnOp::Not, Value::Bool(false)).unwrap(), Value::Bool(true));
        assert_eq!(eval_unop(UnOp::Neg, Value::bit(8, 1)).unwrap(), Value::bit(8, 255));
        assert_eq!(eval_unop(UnOp::BitNot, Value::bit(4, 0b0101)).unwrap(), Value::bit(4, 0b1010));
        assert_eq!(eval_unop(UnOp::Neg, Value::Int(5)).unwrap(), Value::Int(-5));
        assert!(eval_unop(UnOp::BitNot, Value::Int(5)).is_err());
    }

    #[test]
    fn field_access() {
        let mut syms = Interner::new();
        let a = syms.intern("a");
        let b = syms.intern("b");
        let mut v = Value::Record(vec![(a, Value::Int(1))]);
        assert_eq!(v.field(a), Some(&Value::Int(1)));
        assert_eq!(v.field(b), None);
        *v.field_mut(a).unwrap() = Value::Int(2);
        assert_eq!(v.field(a), Some(&Value::Int(2)));
    }

    #[test]
    fn display_with_resolves_names() {
        let mut syms = Interner::new();
        let a = syms.intern("a");
        let v = Value::Record(vec![(a, Value::bit(8, 7))]);
        assert_eq!(v.display_with(&syms), "{a = 8w7}");
    }

    #[test]
    fn coercions() {
        let shape = Value::bit(8, 0);
        assert_eq!(Value::Int(300).coerce_to_shape(&shape), Value::bit(8, 44));
        assert_eq!(Value::bit(8, 9).coerce_to_shape(&Value::Int(0)), Value::Int(9));
        // No-op on matching shapes.
        assert_eq!(Value::Bool(true).coerce_to_shape(&Value::Bool(false)), Value::Bool(true));
    }

    #[test]
    fn determinism_of_oracle() {
        // E(⊕, x, y) is a function: same inputs, same outputs.
        for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::BitXor, BinOp::Lt] {
            let a = Value::bit(16, 0xABCD);
            let b = Value::bit(16, 0x1234);
            assert_eq!(
                eval_binop(op, a.clone(), b.clone()).unwrap(),
                eval_binop(op, a.clone(), b.clone()).unwrap()
            );
        }
    }
}
