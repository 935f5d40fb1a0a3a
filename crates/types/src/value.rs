use std::fmt;
use std::sync::Arc;

use qarith_numeric::{NumericError, Rational};

/// Identifier of a base-type marked null `⊥ᵢ`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BaseNullId(pub u32);

/// Identifier of a numerical-type marked null `⊤ᵢ`.
///
/// The grounding translation maps `⊤ᵢ` to the real variable `zᵢ`, so these
/// ids are kept dense per database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NumNullId(pub u32);

impl fmt::Display for BaseNullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

impl fmt::Debug for BaseNullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for NumNullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊤{}", self.0)
    }
}

impl fmt::Debug for NumNullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A constant of the base sort.
///
/// The base domain is an abstract countable set; integers and interned
/// strings cover everything the engine needs (ids, names, categories).
/// The two variants never compare equal, mirroring a disjoint union.
/// Strings use `Arc<str>` so tuples clone cheaply during joins.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BaseValue {
    /// An integer constant (e.g. a surrogate key).
    Int(i64),
    /// A string constant (e.g. a market segment name).
    Str(Arc<str>),
}

impl BaseValue {
    /// Convenience constructor for string constants.
    pub fn str(s: &str) -> BaseValue {
        BaseValue::Str(Arc::from(s))
    }
}

impl From<i64> for BaseValue {
    fn from(n: i64) -> Self {
        BaseValue::Int(n)
    }
}

impl From<&str> for BaseValue {
    fn from(s: &str) -> Self {
        BaseValue::str(s)
    }
}

impl fmt::Display for BaseValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseValue::Int(n) => write!(f, "{n}"),
            BaseValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl fmt::Debug for BaseValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A cell value: a constant or a marked null, of either sort.
///
/// The four variants are pairwise distinct under `Eq`; in particular a
/// null never equals a constant and two differently-marked nulls never
/// equal each other — the marked-nulls model of §2.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A base-sort constant.
    Base(BaseValue),
    /// A base-sort marked null `⊥ᵢ`.
    BaseNull(BaseNullId),
    /// A numerical constant (exact rational ⊂ ℝ).
    Num(Rational),
    /// A numerical marked null `⊤ᵢ`.
    NumNull(NumNullId),
}

impl Value {
    /// Integer base constant.
    pub fn int(n: i64) -> Value {
        Value::Base(BaseValue::Int(n))
    }

    /// String base constant.
    pub fn str(s: &str) -> Value {
        Value::Base(BaseValue::str(s))
    }

    /// Numerical constant from an integer.
    pub fn num(n: i64) -> Value {
        Value::Num(Rational::from_int(n))
    }

    /// Numerical constant from a decimal literal.
    ///
    /// # Errors
    ///
    /// The [`Rational::parse_decimal`] error of a malformed literal.
    pub fn decimal(s: &str) -> Result<Value, NumericError> {
        Rational::parse_decimal(s).map(Value::Num)
    }

    /// The sort of this value.
    pub fn sort(&self) -> crate::schema::Sort {
        match self {
            Value::Base(_) | Value::BaseNull(_) => crate::schema::Sort::Base,
            Value::Num(_) | Value::NumNull(_) => crate::schema::Sort::Num,
        }
    }

    /// `true` iff the value is a (base or numerical) null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::BaseNull(_) | Value::NumNull(_))
    }

    /// The base constant, if this is one.
    pub fn as_base(&self) -> Option<&BaseValue> {
        match self {
            Value::Base(b) => Some(b),
            _ => None,
        }
    }

    /// The numerical constant, if this is one.
    pub fn as_num(&self) -> Option<Rational> {
        match self {
            Value::Num(r) => Some(*r),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Base(b) => write!(f, "{b}"),
            Value::BaseNull(id) => write!(f, "{id}"),
            Value::Num(r) => write!(f, "{r}"),
            Value::NumNull(id) => write!(f, "{id}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Sort;

    #[test]
    fn sorts() {
        assert_eq!(Value::int(1).sort(), Sort::Base);
        assert_eq!(Value::str("x").sort(), Sort::Base);
        assert_eq!(Value::BaseNull(BaseNullId(0)).sort(), Sort::Base);
        assert_eq!(Value::num(3).sort(), Sort::Num);
        assert_eq!(Value::NumNull(NumNullId(0)).sort(), Sort::Num);
    }

    #[test]
    fn nulls_are_distinct_from_constants_and_each_other() {
        assert_ne!(Value::BaseNull(BaseNullId(0)), Value::BaseNull(BaseNullId(1)));
        assert_eq!(Value::BaseNull(BaseNullId(2)), Value::BaseNull(BaseNullId(2)));
        assert_ne!(Value::BaseNull(BaseNullId(0)), Value::int(0));
        assert_ne!(Value::NumNull(NumNullId(0)), Value::num(0));
        assert!(Value::NumNull(NumNullId(0)).is_null());
        assert!(!Value::num(0).is_null());
    }

    #[test]
    fn base_variants_disjoint() {
        assert_ne!(BaseValue::Int(1), BaseValue::str("1"));
        assert_eq!(BaseValue::str("abc"), BaseValue::str("abc"));
    }

    #[test]
    fn decimal_constructor() {
        assert_eq!(Value::decimal("0.7").unwrap().as_num().unwrap(), Rational::new(7, 10));
        assert!(Value::decimal("0.7x").is_err());
        assert_eq!(Value::num(3).as_num().unwrap(), Rational::from_int(3));
        assert_eq!(Value::int(3).as_num(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::str("gadgets").to_string(), "\"gadgets\"");
        assert_eq!(Value::decimal("0.5").unwrap().to_string(), "1/2");
        assert_eq!(Value::BaseNull(BaseNullId(3)).to_string(), "⊥3");
        assert_eq!(Value::NumNull(NumNullId(1)).to_string(), "⊤1");
    }
}
