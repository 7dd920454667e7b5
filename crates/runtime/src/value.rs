//! The dynamic [`Value`] model.
//!
//! Every datum in the system — a scalar read out of a loop variable, an
//! element of a sparse matrix, a whole group produced by a `group by`, a row
//! flowing through the dataflow engine — is a `Value`.
//!
//! `Value` implements a *total* order and hashing (doubles are compared with
//! `f64::total_cmp` and hashed by bit pattern) so that any value can be used
//! as a group-by or join key in the engine's shuffles.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed runtime value.
///
/// Collections (`Tuple`, `Record`, `Bag`) are reference counted so that rows
/// can be cloned cheaply when they fan out through joins and group-bys.
#[derive(Clone, Debug, Default)]
pub enum Value {
    /// The unit value `()`; used as the group-by key of total aggregations.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer (`int`/`long` in the loop language).
    Long(i64),
    /// A 64-bit float (`float`/`double` in the loop language).
    Double(f64),
    /// An immutable string.
    Str(Arc<str>),
    /// A tuple `(v1, ..., vn)`.
    Tuple(Arc<[Value]>),
    /// A record `⟨A1 = v1, ..., An = vn⟩` with named fields.
    Record(Arc<Record>),
    /// A bag of values. Produced by lifting variables in a `group by` and by
    /// nested comprehensions.
    Bag(Arc<Vec<Value>>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds a tuple value from a vector of fields.
    pub fn tuple(fields: Vec<Value>) -> Value {
        Value::Tuple(Arc::from(fields))
    }

    /// Builds a pair `(a, b)` — the shape of every sparse-array element —
    /// in one allocation (a `Vec` would be copied into a second one).
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(Arc::from([a, b]))
    }

    /// Builds a record value from named fields. Its names are those of a
    /// record recently built on this thread with the same names, when
    /// there is one ([`Record`]).
    pub fn record(fields: Vec<(String, Value)>) -> Value {
        Value::Record(Arc::new(fields.into_iter().collect()))
    }

    /// Builds a bag value.
    pub fn bag(items: Vec<Value>) -> Value {
        Value::Bag(Arc::new(items))
    }

    /// The empty bag.
    pub fn empty_bag() -> Value {
        Value::Bag(Arc::new(Vec::new()))
    }

    /// Returns the long payload, coercing booleans (`true = 1`).
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Value::Long(n) => Some(*n),
            Value::Bool(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Returns the numeric payload as a double, promoting longs and
    /// coercing booleans (`true = 1.0`). The surface type checker forbids
    /// boolean arithmetic, so the coercion is only reachable from
    /// dynamically built expressions (e.g. synthesized candidates that
    /// encode a guard as `(p) * e`).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(x) => Some(*x),
            Value::Long(n) => Some(*n as f64),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Returns the boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the string payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the tuple fields.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(fs) => Some(fs),
            _ => None,
        }
    }

    /// Returns the bag contents.
    pub fn as_bag(&self) -> Option<&[Value]> {
        match self {
            Value::Bag(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a record field by name, or a tuple position `_1`, `_2`, ….
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(r) => r.get(name),
            Value::Tuple(fs) => {
                let idx: usize = name.strip_prefix('_')?.parse().ok()?;
                fs.get(idx.checked_sub(1)?)
            }
            _ => None,
        }
    }

    /// True if the value is numeric (long or double).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Long(_) | Value::Double(_))
    }

    /// A short name for the value's runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Long(_) => "long",
            Value::Double(_) => "double",
            Value::Str(_) => "string",
            Value::Tuple(_) => "tuple",
            Value::Record(_) => "record",
            Value::Bag(_) => "bag",
        }
    }
}

/// A record's values, in field order, under a list of field names that
/// records built with the same names share. A record is two allocations,
/// itself and its values, and holds no name of its own.
///
/// [`Value::record`] and `FromIterator` take the names list of a record
/// recently built on the same thread, when its names are the same. Each
/// thread keeps its 8 most recently used lists, and only lists of at most
/// 512 bytes of names and pointers: no input can make what a thread keeps
/// grow. So rows generated, decoded or evaluated one after another share
/// one list. Sharing is never observable: order, equality, hash and text
/// read the names, not where they lie.
#[derive(Clone)]
pub struct Record {
    names: FieldNames,
    values: Box<[Value]>,
}

/// A record's field names, in order: one list, shared by every record
/// built with the same names.
pub type FieldNames = Arc<[Box<str>]>;

/// How many names lists a thread keeps for the records it builds next.
const RECENT_NAMES: usize = 8;

/// The largest names list a thread keeps, counting each name's bytes and
/// its pointer.
const MAX_SHARED_NAMES_BYTES: usize = 512;

thread_local! {
    static RECENT: RefCell<Vec<FieldNames>> = const { RefCell::new(Vec::new()) };
}

/// The names of `fields` as a names list: a recently built list with the
/// same names, or a new one, which is kept for the next record when it is
/// small enough.
fn shared_names<S: AsRef<str>>(fields: &[(S, Value)]) -> FieldNames {
    let same = |list: &FieldNames| {
        list.len() == fields.len()
            && list
                .iter()
                .zip(fields)
                .all(|(a, (b, _))| **a == *b.as_ref())
    };
    let fresh = || -> FieldNames { fields.iter().map(|(n, _)| Box::from(n.as_ref())).collect() };
    let bytes = fields
        .iter()
        .map(|(n, _)| n.as_ref().len() + std::mem::size_of::<Box<str>>())
        .sum::<usize>();
    if bytes > MAX_SHARED_NAMES_BYTES {
        return fresh();
    }
    // A thread being torn down has no list left: its records get their own.
    RECENT
        .try_with(|recent| {
            let mut recent = recent.borrow_mut();
            if let Some(i) = recent.iter().position(same) {
                // Most recent first: the next lookup finds it at once.
                recent[..=i].rotate_right(1);
                return recent[0].clone();
            }
            let list = fresh();
            recent.truncate(RECENT_NAMES - 1);
            recent.insert(0, list.clone());
            list
        })
        .unwrap_or_else(|_| fresh())
}

impl Record {
    /// The record with `values` under `names`, one value per name.
    ///
    /// # Panics
    ///
    /// When there are not as many values as names.
    pub fn new(names: FieldNames, values: Vec<Value>) -> Record {
        assert_eq!(
            names.len(),
            values.len(),
            "a record holds one value per name"
        );
        Record {
            names,
            values: values.into_boxed_slice(),
        }
    }

    /// The field names, in order.
    pub fn names(&self) -> &FieldNames {
        &self.names
    }

    /// The field values, in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the record with no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The fields as `(name, value)` pairs, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Box<str>, &Value)> {
        self.names.iter().zip(self.values.iter())
    }

    /// The position of the first field called `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| **n == *name)
    }

    /// The value of the first field called `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).map(|i| &self.values[i])
    }
}

/// Fields in order, under shared names when a recent record had them.
impl<S: AsRef<str>> FromIterator<(S, Value)> for Record {
    fn from_iter<I: IntoIterator<Item = (S, Value)>>(fields: I) -> Record {
        let fields: Vec<(S, Value)> = fields.into_iter().collect();
        let names = shared_names(&fields);
        // Exactly as many slots as values: a shrinking `into_boxed_slice`
        // would leave the allocator a sliver per record.
        let mut values = Vec::with_capacity(fields.len());
        values.extend(fields.into_iter().map(|(_, v)| v));
        Record {
            names,
            values: values.into_boxed_slice(),
        }
    }
}

/// Field by field, name then value, a shorter prefix first: two records
/// under one names list compare their values alone.
impl Ord for Record {
    fn cmp(&self, other: &Record) -> Ordering {
        if Arc::ptr_eq(&self.names, &other.names) {
            self.values.iter().cmp(other.values.iter())
        } else {
            self.iter().cmp(other.iter())
        }
    }
}

impl PartialOrd for Record {
    fn partial_cmp(&self, other: &Record) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Record) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Record {}

/// The `(name, value)` list a record prints as wherever it is debugged.
impl std::fmt::Debug for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

/// Rank used to order values of different runtime types, so that the order
/// is total even across heterogeneous bags.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::Long(_) => 2,
        Value::Double(_) => 2, // longs and doubles compare numerically
        Value::Str(_) => 3,
        Value::Tuple(_) => 4,
        Value::Record(_) => 5,
        Value::Bag(_) => 6,
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Long(a), Long(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            (Long(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Long(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Tuple(a), Tuple(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Record(a), Record(b)) => a.cmp(b),
            (Bag(a), Bag(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Unit => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Longs and doubles that compare equal must hash equally, so a
            // long hashes as the bit pattern of its double image. Every i64
            // key used in practice (array indexes) is far below 2^53, where
            // the long → double mapping is injective.
            Value::Long(n) => {
                2u8.hash(state);
                (*n as f64).to_bits().hash(state);
            }
            Value::Double(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Tuple(fs) => {
                4u8.hash(state);
                for f in fs.iter() {
                    f.hash(state);
                }
            }
            Value::Record(r) => {
                5u8.hash(state);
                for (n, v) in r.iter() {
                    n.hash(state);
                    v.hash(state);
                }
            }
            Value::Bag(items) => {
                6u8.hash(state);
                for v in items.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Long(n) => write!(f, "{n}"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(fs) => {
                write!(f, "(")?;
                for (i, v) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Record(r) => {
                write!(f, "<|")?;
                for (i, (n, v)) in r.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} = {v}")?;
                }
                write!(f, "|>")
            }
            Value::Bag(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Long(n)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Double(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn long_double_numeric_equality() {
        assert_eq!(Value::Long(3), Value::Double(3.0));
        assert_ne!(Value::Long(3), Value::Double(3.5));
        assert_eq!(hash_of(&Value::Long(3)), hash_of(&Value::Double(3.0)));
    }

    #[test]
    fn tuple_ordering_is_lexicographic() {
        let a = Value::tuple(vec![Value::Long(1), Value::Long(2)]);
        let b = Value::tuple(vec![Value::Long(1), Value::Long(3)]);
        assert!(a < b);
        let c = Value::tuple(vec![Value::Long(1)]);
        assert!(c < a, "shorter tuple with equal prefix sorts first");
    }

    #[test]
    fn field_lookup_on_records_and_tuples() {
        let r = Value::record(vec![
            ("x".into(), Value::Double(1.5)),
            ("y".into(), Value::Double(2.5)),
        ]);
        assert_eq!(r.field("y"), Some(&Value::Double(2.5)));
        assert_eq!(r.field("z"), None);

        let t = Value::tuple(vec![Value::Long(10), Value::Long(20)]);
        assert_eq!(t.field("_1"), Some(&Value::Long(10)));
        assert_eq!(t.field("_2"), Some(&Value::Long(20)));
        assert_eq!(t.field("_3"), None);
        assert_eq!(t.field("_0"), None, "tuple positions are 1-based");
    }

    #[test]
    fn nan_has_a_total_order() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Double(1.0) < nan);
    }

    #[test]
    fn display_round_trips_simple_shapes() {
        let v = Value::pair(
            Value::tuple(vec![Value::Long(1), Value::Long(2)]),
            Value::Double(3.5),
        );
        assert_eq!(v.to_string(), "((1, 2), 3.5)");
    }

    #[test]
    fn cross_type_comparison_is_stable() {
        assert!(Value::Unit < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Long(0));
        assert!(Value::Long(9) < Value::str("a"));
        assert!(Value::str("z") < Value::tuple(vec![]));
    }
}
