//! Scalar operator semantics.
//!
//! The loop language (paper Fig. 1) allows "any binary operation ⋆" in
//! expressions and any *commutative* operation `⊕` in incremental updates
//! `d ⊕= e` (§3.5). This module defines those operators over [`Value`]s:
//!
//! * [`BinOp`] — binary operators, with [`BinOp::is_commutative`] encoding
//!   which ones may appear in incremental updates;
//! * [`UnOp`] — unary negation / logical not;
//! * [`Func`] — builtin functions (`sqrt`, `pow`, `inRange`, …). `inRange`
//!   is the range predicate introduced by loop-iteration elimination (§3.6);
//! * [`AggOp`] — the reductions `⊕/v` applied to lifted bags after a
//!   `group by`.
//!
//! Numeric promotion follows the usual convention: `long ⋆ long = long`,
//! anything involving a `double` is a `double`. Addition on tuples is
//! element-wise, which is how the K-Means running-average state
//! `(sum_x, sum_y, count)` is merged; `argmin` on pairs `(index, distance)`
//! picks the pair with the smaller distance, which is the `^` monoid of the
//! paper's K-Means program (Appendix B).

use crate::value::Value;
use crate::{Result, RuntimeError};

/// Binary operators of the loop language and comprehension calculus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` — numeric addition; element-wise on tuples.
    Add,
    /// `-` — numeric subtraction.
    Sub,
    /// `*` — numeric multiplication.
    Mul,
    /// `/` — numeric division (long division on two longs).
    Div,
    /// `%` — remainder.
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
    /// `||`
    Or,
    /// `min` — numeric minimum.
    Min,
    /// `max` — numeric maximum.
    Max,
    /// `^` on pairs `(index, distance)`: the operand with smaller distance.
    ArgMin,
}

impl BinOp {
    /// True for operations that are commutative (and associative), i.e. the
    /// monoids `⊕` the paper admits in incremental updates `d ⊕= e` (§1.1:
    /// "for some commutative operation ⊕").
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::Min
                | BinOp::Max
                | BinOp::And
                | BinOp::Or
                | BinOp::ArgMin
        )
    }

    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Min => "min",
            BinOp::Max => "max",
            BinOp::ArgMin => "^",
        }
    }

    /// Applies the operator to two values.
    pub fn apply(self, a: &Value, b: &Value) -> Result<Value> {
        use BinOp::*;
        match self {
            Add => numeric_or_structural_add(a, b),
            Sub => arith(a, b, "-", |x, y| x - y, |x, y| x.wrapping_sub(y)),
            Mul => arith(a, b, "*", |x, y| x * y, |x, y| x.wrapping_mul(y)),
            Div => match (a, b) {
                (Value::Long(x), Value::Long(y)) => {
                    if *y == 0 {
                        Err(RuntimeError::new("division by zero"))
                    } else {
                        Ok(Value::Long(x.wrapping_div(*y)))
                    }
                }
                _ => {
                    let (x, y) = both_doubles(a, b, "/")?;
                    Ok(Value::Double(x / y))
                }
            },
            Mod => match (a, b) {
                (Value::Long(x), Value::Long(y)) => {
                    if *y == 0 {
                        Err(RuntimeError::new("modulo by zero"))
                    } else {
                        Ok(Value::Long(x.wrapping_rem(*y)))
                    }
                }
                _ => {
                    let (x, y) = both_doubles(a, b, "%")?;
                    Ok(Value::Double(x % y))
                }
            },
            Eq => Ok(Value::Bool(a == b)),
            Ne => Ok(Value::Bool(a != b)),
            Lt => Ok(Value::Bool(a < b)),
            Le => Ok(Value::Bool(a <= b)),
            Gt => Ok(Value::Bool(a > b)),
            Ge => Ok(Value::Bool(a >= b)),
            And => {
                let (x, y) = both_bools(a, b, "&&")?;
                Ok(Value::Bool(x && y))
            }
            Or => {
                let (x, y) = both_bools(a, b, "||")?;
                Ok(Value::Bool(x || y))
            }
            Min => Ok(if a <= b { a.clone() } else { b.clone() }),
            Max => Ok(if a >= b { a.clone() } else { b.clone() }),
            ArgMin => argmin(a, b),
        }
    }
}

/// `+` over numbers, and element-wise over equal-length tuples (used by the
/// K-Means average-accumulator monoid).
fn numeric_or_structural_add(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Long(x), Value::Long(y)) => Ok(Value::Long(x.wrapping_add(*y))),
        (Value::Tuple(xs), Value::Tuple(ys)) => {
            if xs.len() != ys.len() {
                return Err(RuntimeError::new(format!(
                    "cannot add tuples of lengths {} and {}",
                    xs.len(),
                    ys.len()
                )));
            }
            let fields = xs
                .iter()
                .zip(ys.iter())
                .map(|(x, y)| numeric_or_structural_add(x, y))
                .collect::<Result<Vec<_>>>()?;
            Ok(Value::tuple(fields))
        }
        _ => {
            let (x, y) = both_doubles(a, b, "+")?;
            Ok(Value::Double(x + y))
        }
    }
}

/// `argmin` over pairs `(payload, distance)`: keeps the operand with the
/// smaller second component. Commutative and associative (ties keep the
/// left operand; with a total order on doubles this is still a monoid up to
/// the tie-breaking choice, which the paper also accepts for `^`).
fn argmin(a: &Value, b: &Value) -> Result<Value> {
    let da = a
        .field("_2")
        .and_then(Value::as_double)
        .ok_or_else(|| RuntimeError::new("argmin expects pairs (x, distance)"))?;
    let db = b
        .field("_2")
        .and_then(Value::as_double)
        .ok_or_else(|| RuntimeError::new("argmin expects pairs (x, distance)"))?;
    Ok(if da <= db { a.clone() } else { b.clone() })
}

fn arith(
    a: &Value,
    b: &Value,
    sym: &str,
    fd: impl Fn(f64, f64) -> f64,
    fl: impl Fn(i64, i64) -> i64,
) -> Result<Value> {
    match (a, b) {
        (Value::Long(x), Value::Long(y)) => Ok(Value::Long(fl(*x, *y))),
        _ => {
            let (x, y) = both_doubles(a, b, sym)?;
            Ok(Value::Double(fd(x, y)))
        }
    }
}

fn both_doubles(a: &Value, b: &Value, sym: &str) -> Result<(f64, f64)> {
    match (a.as_double(), b.as_double()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(RuntimeError::new(format!(
            "operator `{sym}` expects numbers, got {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn both_bools(a: &Value, b: &Value, sym: &str) -> Result<(bool, bool)> {
    match (a.as_bool(), b.as_bool()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(RuntimeError::new(format!(
            "operator `{sym}` expects booleans, got {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation `-e`.
    Neg,
    /// Logical negation `!e`.
    Not,
}

impl UnOp {
    /// Applies the operator.
    pub fn apply(self, v: &Value) -> Result<Value> {
        match self {
            UnOp::Neg => match v {
                Value::Long(n) => Ok(Value::Long(n.wrapping_neg())),
                Value::Double(x) => Ok(Value::Double(-x)),
                _ => Err(RuntimeError::new(format!(
                    "cannot negate {}",
                    v.type_name()
                ))),
            },
            UnOp::Not => match v {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(RuntimeError::new(format!(
                    "cannot apply ! to {}",
                    v.type_name()
                ))),
            },
        }
    }
}

/// Builtin scalar functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Func {
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// `pow(x, y)`.
    Pow,
    /// `inRange(x, lo, hi)` — the §3.6 range predicate: `lo ≤ x ≤ hi`.
    InRange,
    /// Truncating conversion to long.
    ToLong,
    /// Conversion to double.
    ToDouble,
}

impl Func {
    /// Resolves a surface-syntax function name.
    pub fn by_name(name: &str) -> Option<Func> {
        Some(match name {
            "sqrt" => Func::Sqrt,
            "abs" => Func::Abs,
            "exp" => Func::Exp,
            "log" => Func::Log,
            "pow" => Func::Pow,
            "inRange" => Func::InRange,
            "toLong" => Func::ToLong,
            "toDouble" => Func::ToDouble,
            _ => return None,
        })
    }

    /// The surface name of the function.
    pub fn name(self) -> &'static str {
        match self {
            Func::Sqrt => "sqrt",
            Func::Abs => "abs",
            Func::Exp => "exp",
            Func::Log => "log",
            Func::Pow => "pow",
            Func::InRange => "inRange",
            Func::ToLong => "toLong",
            Func::ToDouble => "toDouble",
        }
    }

    /// Number of arguments the function takes.
    pub fn arity(self) -> usize {
        match self {
            Func::Pow => 2,
            Func::InRange => 3,
            _ => 1,
        }
    }

    /// Applies the function to its arguments.
    pub fn apply(self, args: &[Value]) -> Result<Value> {
        if args.len() != self.arity() {
            return Err(RuntimeError::new(format!(
                "{} expects {} argument(s), got {}",
                self.name(),
                self.arity(),
                args.len()
            )));
        }
        let num = |v: &Value| {
            v.as_double().ok_or_else(|| {
                RuntimeError::new(format!(
                    "{} expects a number, got {}",
                    self.name(),
                    v.type_name()
                ))
            })
        };
        match self {
            Func::Sqrt => Ok(Value::Double(num(&args[0])?.sqrt())),
            Func::Abs => match &args[0] {
                Value::Long(n) => Ok(Value::Long(n.wrapping_abs())),
                v => Ok(Value::Double(num(v)?.abs())),
            },
            Func::Exp => Ok(Value::Double(num(&args[0])?.exp())),
            Func::Log => Ok(Value::Double(num(&args[0])?.ln())),
            Func::Pow => Ok(Value::Double(num(&args[0])?.powf(num(&args[1])?))),
            Func::InRange => {
                let x = num(&args[0])?;
                let lo = num(&args[1])?;
                let hi = num(&args[2])?;
                Ok(Value::Bool(lo <= x && x <= hi))
            }
            Func::ToLong => Ok(Value::Long(num(&args[0])? as i64)),
            Func::ToDouble => Ok(Value::Double(num(&args[0])?)),
        }
    }
}

/// A reduction `⊕/v` over a bag, for a commutative monoid `⊕`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AggOp {
    /// The underlying commutative binary operation.
    pub op: BinOp,
}

impl AggOp {
    /// Creates an aggregation for a commutative operator.
    ///
    /// Returns `None` if `op` is not commutative — such operators may not be
    /// used in incremental updates (§3.5).
    pub fn new(op: BinOp) -> Option<AggOp> {
        op.is_commutative().then_some(AggOp { op })
    }

    /// The identity element of the monoid, when one exists for dynamic
    /// values. `Add`'s identity is `Long(0)` (numeric promotion makes it an
    /// identity for doubles too); tuple addition and `argmin` have no
    /// value-independent identity, so they return `None` and reductions over
    /// empty bags of those monoids are errors.
    pub fn identity(self) -> Option<Value> {
        match self.op {
            BinOp::Add => Some(Value::Long(0)),
            BinOp::Mul => Some(Value::Long(1)),
            BinOp::And => Some(Value::Bool(true)),
            BinOp::Or => Some(Value::Bool(false)),
            _ => None,
        }
    }

    /// Reduces a bag with the monoid. Empty bags reduce to the identity when
    /// one exists.
    pub fn reduce<'a>(self, items: impl IntoIterator<Item = &'a Value>) -> Result<Value> {
        let mut acc: Option<Value> = None;
        for v in items {
            acc = Some(match acc {
                None => v.clone(),
                Some(a) => self.op.apply(&a, v)?,
            });
        }
        match acc {
            Some(v) => Ok(v),
            None => self.identity().ok_or_else(|| {
                RuntimeError::new(format!(
                    "reduction {}/ over an empty bag has no identity",
                    self.op.symbol()
                ))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_promotion() {
        assert_eq!(
            BinOp::Add.apply(&Value::Long(2), &Value::Long(3)).unwrap(),
            Value::Long(5)
        );
        assert_eq!(
            BinOp::Add
                .apply(&Value::Long(2), &Value::Double(0.5))
                .unwrap(),
            Value::Double(2.5)
        );
        assert_eq!(
            BinOp::Div.apply(&Value::Long(7), &Value::Long(2)).unwrap(),
            Value::Long(3)
        );
        assert_eq!(
            BinOp::Div
                .apply(&Value::Double(7.0), &Value::Long(2))
                .unwrap(),
            Value::Double(3.5)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(BinOp::Div.apply(&Value::Long(1), &Value::Long(0)).is_err());
        assert!(BinOp::Mod.apply(&Value::Long(1), &Value::Long(0)).is_err());
    }

    #[test]
    fn long_arithmetic_wraps_at_the_edges_of_long() {
        let (min, minus_one) = (Value::Long(i64::MIN), Value::Long(-1));
        assert_eq!(BinOp::Div.apply(&min, &minus_one).unwrap(), min);
        assert_eq!(BinOp::Mod.apply(&min, &minus_one).unwrap(), Value::Long(0));
        assert_eq!(UnOp::Neg.apply(&min).unwrap(), min);
        assert_eq!(Func::Abs.apply(std::slice::from_ref(&min)).unwrap(), min);
        let max = Value::Long(i64::MAX);
        assert_eq!(BinOp::Add.apply(&max, &Value::Long(1)).unwrap(), min);
        assert_eq!(BinOp::Sub.apply(&min, &Value::Long(1)).unwrap(), max);
        assert_eq!(BinOp::Mul.apply(&min, &minus_one).unwrap(), min);
        // Division by zero stays an error at the edges too.
        assert!(BinOp::Div.apply(&min, &Value::Long(0)).is_err());
        assert!(BinOp::Mod.apply(&min, &Value::Long(0)).is_err());
    }

    #[test]
    fn tuple_addition_is_elementwise() {
        let a = Value::tuple(vec![Value::Double(1.0), Value::Double(2.0), Value::Long(1)]);
        let b = Value::tuple(vec![Value::Double(0.5), Value::Double(1.5), Value::Long(1)]);
        let sum = BinOp::Add.apply(&a, &b).unwrap();
        assert_eq!(
            sum,
            Value::tuple(vec![Value::Double(1.5), Value::Double(3.5), Value::Long(2)])
        );
    }

    #[test]
    fn argmin_picks_smaller_distance() {
        let a = Value::pair(Value::Long(3), Value::Double(0.5));
        let b = Value::pair(Value::Long(7), Value::Double(0.2));
        assert_eq!(BinOp::ArgMin.apply(&a, &b).unwrap(), b);
        assert_eq!(BinOp::ArgMin.apply(&b, &a).unwrap(), b);
        // Ties keep the left operand.
        let c = Value::pair(Value::Long(9), Value::Double(0.2));
        assert_eq!(BinOp::ArgMin.apply(&b, &c).unwrap(), b);
    }

    #[test]
    fn commutativity_flags() {
        for op in [
            BinOp::Add,
            BinOp::Mul,
            BinOp::Min,
            BinOp::Max,
            BinOp::And,
            BinOp::Or,
            BinOp::ArgMin,
        ] {
            assert!(op.is_commutative(), "{op:?}");
        }
        for op in [BinOp::Sub, BinOp::Div, BinOp::Mod, BinOp::Lt, BinOp::Eq] {
            assert!(!op.is_commutative(), "{op:?}");
        }
    }

    #[test]
    fn aggregation_reduces_bags() {
        let agg = AggOp::new(BinOp::Add).unwrap();
        let items = [Value::Long(1), Value::Long(2), Value::Long(3)];
        assert_eq!(agg.reduce(items.iter()).unwrap(), Value::Long(6));
        assert_eq!(agg.reduce([].iter()).unwrap(), Value::Long(0));

        let agg = AggOp::new(BinOp::Min).unwrap();
        assert!(
            agg.reduce([].iter()).is_err(),
            "min over empty bag has no identity"
        );
        assert_eq!(AggOp::new(BinOp::Sub), None, "subtraction is not a monoid");
    }

    #[test]
    fn in_range_matches_paper_semantics() {
        // inRange(i, 0, d-1) is the predicate 0 <= i <= d-1 (§1.1).
        let f = Func::InRange;
        assert_eq!(
            f.apply(&[Value::Long(0), Value::Long(0), Value::Long(9)])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            f.apply(&[Value::Long(9), Value::Long(0), Value::Long(9)])
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            f.apply(&[Value::Long(10), Value::Long(0), Value::Long(9)])
                .unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(
            Func::Sqrt.apply(&[Value::Double(9.0)]).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(Func::Abs.apply(&[Value::Long(-4)]).unwrap(), Value::Long(4));
        assert_eq!(
            Func::Pow
                .apply(&[Value::Double(2.0), Value::Double(10.0)])
                .unwrap(),
            Value::Double(1024.0)
        );
        assert_eq!(
            Func::ToLong.apply(&[Value::Double(3.7)]).unwrap(),
            Value::Long(3)
        );
        assert!(Func::by_name("sqrt").is_some());
        assert!(Func::by_name("nope").is_none());
    }
}
