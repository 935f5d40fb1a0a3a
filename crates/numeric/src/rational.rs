use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::error::NumericError;
use crate::gcd::gcd_i128;

/// An exact rational number backed by `i128`.
///
/// Invariants (maintained by every constructor and operation):
///
/// * the denominator is strictly positive;
/// * numerator and denominator are coprime;
/// * zero is represented as `0/1`;
/// * neither component is ever `i128::MIN` (so negation and `abs` are total).
///
/// Arithmetic reduces by gcd *before* multiplying (the classic
/// Henrici/Knuth cross-reduction), which keeps intermediate values small and
/// makes overflow rare for database-scale coefficients. All operations have
/// `checked_*` forms returning [`NumericError::Overflow`] on failure; the
/// `std::ops` operator impls panic on overflow and are intended for tests,
/// examples, and code paths that have already bounded their inputs.
///
/// ```
/// use qarith_numeric::Rational;
///
/// let a = Rational::new(7, 10); // 0.7
/// let b = Rational::new(10, 1);
/// assert_eq!((a * b).to_string(), "7");
/// assert_eq!(Rational::parse_decimal("0.70").unwrap(), a);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

impl Rational {
    /// Zero (`0/1`).
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One (`1/1`).
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den`, normalizing sign and reducing by gcd.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or either argument is `i128::MIN`. Use
    /// [`Rational::checked_new`] for a fallible constructor.
    pub fn new(num: i128, den: i128) -> Rational {
        // analyze: allow(panic-expect, reason = "documented panicking constructor for literals in tests and examples; no request-path code calls it, and request paths use checked_new")
        Rational::checked_new(num, den).expect("invalid rational")
    }

    /// Fallible constructor: returns an error for a zero denominator and
    /// rejects `i128::MIN` components (not representable after negation).
    pub fn checked_new(num: i128, den: i128) -> Result<Rational, NumericError> {
        if den == 0 {
            return Err(NumericError::DivisionByZero);
        }
        if num == i128::MIN || den == i128::MIN {
            return Err(NumericError::Overflow { op: "new" });
        }
        if num == 0 {
            return Ok(Rational::ZERO);
        }
        let g = gcd_i128(num, den);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Ok(Rational { num, den })
    }

    /// Creates a rational from an integer.
    pub fn from_int(n: i64) -> Rational {
        Rational { num: n as i128, den: 1 }
    }

    /// The numerator (sign-carrying, coprime with the denominator).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always strictly positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// `true` iff the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Sign as `-1`, `0`, or `1`.
    pub fn signum(&self) -> i32 {
        match self.num.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational { num: self.num.abs(), den: self.den }
    }

    /// Checked addition.
    pub fn checked_add(&self, rhs: &Rational) -> Result<Rational, NumericError> {
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b/g * d), g = gcd(b, d).
        let g = gcd_i128(self.den, rhs.den);
        let db = self.den / g;
        let dd = rhs.den / g;
        let lhs = self.num.checked_mul(dd).ok_or(NumericError::Overflow { op: "add" })?;
        let rhs_t = rhs.num.checked_mul(db).ok_or(NumericError::Overflow { op: "add" })?;
        let num = lhs.checked_add(rhs_t).ok_or(NumericError::Overflow { op: "add" })?;
        let den = db.checked_mul(rhs.den).ok_or(NumericError::Overflow { op: "add" })?;
        Rational::checked_new(num, den)
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, rhs: &Rational) -> Result<Rational, NumericError> {
        self.checked_add(&rhs.checked_neg()?)
    }

    /// Checked negation (total for valid rationals, fallible only for
    /// defensive symmetry).
    pub fn checked_neg(&self) -> Result<Rational, NumericError> {
        Ok(Rational { num: -self.num, den: self.den })
    }

    /// Checked multiplication with cross-reduction.
    pub fn checked_mul(&self, rhs: &Rational) -> Result<Rational, NumericError> {
        // Reduce across: (a/b)*(c/d) with g1 = gcd(a,d), g2 = gcd(c,b).
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let (a, d) = if g1 == 0 { (self.num, rhs.den) } else { (self.num / g1, rhs.den / g1) };
        let (c, b) = if g2 == 0 { (rhs.num, self.den) } else { (rhs.num / g2, self.den / g2) };
        let num = a.checked_mul(c).ok_or(NumericError::Overflow { op: "mul" })?;
        let den = b.checked_mul(d).ok_or(NumericError::Overflow { op: "mul" })?;
        Rational::checked_new(num, den)
    }

    /// Checked division.
    pub fn checked_div(&self, rhs: &Rational) -> Result<Rational, NumericError> {
        if rhs.is_zero() {
            return Err(NumericError::DivisionByZero);
        }
        self.checked_mul(&Rational { num: rhs.den, den: rhs.num }.normalized())
    }

    /// Checked exponentiation by a small non-negative integer.
    pub fn checked_pow(&self, mut exp: u32) -> Result<Rational, NumericError> {
        let mut base = *self;
        let mut acc = Rational::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc.checked_mul(&base)?;
            }
            exp >>= 1;
            if exp > 0 {
                base = base.checked_mul(&base)?;
            }
        }
        Ok(acc)
    }

    /// Reciprocal (`1/self`).
    pub fn checked_recip(&self) -> Result<Rational, NumericError> {
        Rational::ONE.checked_div(self)
    }

    /// Converts to `f64` (rounding). Exact for database-scale values.
    pub fn to_f64(&self) -> f64 {
        // Splitting avoids precision loss when both components are large
        // but their ratio is moderate.
        if self.num.abs() < (1i128 << 52) && self.den < (1i128 << 52) {
            self.num as f64 / self.den as f64
        } else {
            let q = self.num / self.den;
            let r = self.num % self.den;
            q as f64 + (r as f64 / self.den as f64)
        }
    }

    /// Parses an optionally-signed decimal literal (`"42"`, `"-0.75"`,
    /// `".5"`, `"10."`) into an exact rational.
    ///
    /// Scientific notation is accepted with a small integer exponent
    /// (`"1.5e3"`, `"2E-2"`). This covers SQL numeric literals.
    pub fn parse_decimal(input: &str) -> Result<Rational, NumericError> {
        let err = |reason: &'static str| NumericError::Parse { input: input.to_string(), reason };
        let s = input.trim();
        if s.is_empty() {
            return Err(err("empty input"));
        }
        let (sign, s) = match (s.strip_prefix('+'), s.strip_prefix('-')) {
            (Some(rest), _) => (1i128, rest),
            (_, Some(rest)) => (-1i128, rest),
            _ => (1i128, s),
        };
        if s.is_empty() {
            return Err(err("sign without digits"));
        }
        // Split off exponent.
        let (mantissa, exp) = match s.split_once(['e', 'E']) {
            Some((mantissa, exp_str)) => {
                let exp: i32 = exp_str.parse().map_err(|_| err("malformed exponent"))?;
                if exp.unsigned_abs() > 30 {
                    return Err(err("exponent out of supported range"));
                }
                (mantissa, exp)
            }
            None => (s, 0),
        };
        let mut int_part: i128 = 0;
        let mut frac_digits: u32 = 0;
        let mut seen_point = false;
        let mut seen_digit = false;
        for b in mantissa.bytes() {
            match b {
                b'0'..=b'9' => {
                    seen_digit = true;
                    int_part = int_part
                        .checked_mul(10)
                        .and_then(|v| v.checked_add((b - b'0') as i128))
                        .ok_or(NumericError::Overflow { op: "parse" })?;
                    if seen_point {
                        frac_digits += 1;
                    }
                }
                b'.' if !seen_point => seen_point = true,
                b'.' => return Err(err("multiple decimal points")),
                b'_' => {} // digit grouping, as in Rust literals
                _ => return Err(err("unexpected character")),
            }
        }
        if !seen_digit {
            return Err(err("no digits"));
        }
        let mut num = sign * int_part;
        let mut den: i128 = 1;
        for _ in 0..frac_digits {
            den = den.checked_mul(10).ok_or(NumericError::Overflow { op: "parse" })?;
        }
        // Apply the exponent.
        if exp >= 0 {
            for _ in 0..exp {
                num = num.checked_mul(10).ok_or(NumericError::Overflow { op: "parse" })?;
            }
        } else {
            for _ in 0..(-exp) {
                den = den.checked_mul(10).ok_or(NumericError::Overflow { op: "parse" })?;
            }
        }
        Rational::checked_new(num, den)
    }

    /// Round toward negative infinity to an integer.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 || self.num % self.den == 0 {
            self.num / self.den
        } else {
            self.num / self.den - 1
        }
    }

    /// Re-normalizes a possibly sign-denormal raw value (internal).
    fn normalized(self) -> Rational {
        if self.den < 0 {
            Rational { num: -self.num, den: -self.den }
        } else {
            self
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from_int(n)
    }
}

impl From<i32> for Rational {
    fn from(n: i32) -> Self {
        Rational::from_int(n as i64)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d is a·d vs c·b, since b, d > 0. Where a cross
        // product overflows i128, the signs decide, and otherwise the
        // magnitudes |a|·d and |c|·b as exact 256-bit products.
        match (self.num.checked_mul(other.den), other.num.checked_mul(self.den)) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => match self.num.signum().cmp(&other.num.signum()) {
                Ordering::Equal => {
                    // Both denominators are positive, so `unsigned_abs`
                    // is their value.
                    let l = wide_mul(self.num.unsigned_abs(), other.den.unsigned_abs());
                    let r = wide_mul(other.num.unsigned_abs(), self.den.unsigned_abs());
                    if self.num < 0 {
                        r.cmp(&l)
                    } else {
                        l.cmp(&r)
                    }
                }
                by_sign => by_sign,
            },
        }
    }
}

/// The exact product `x·y` as `(high, low)` 128-bit halves, from four
/// 64×64-bit partial products; tuples of halves order as the products.
fn wide_mul(x: u128, y: u128) -> (u128, u128) {
    const LOW: u128 = u64::MAX as u128;
    let (x1, x0) = (x >> 64, x & LOW);
    let (y1, y0) = (y >> 64, y & LOW);
    let low = x0 * y0;
    let (cross1, cross2) = (x0 * y1, x1 * y0);
    // Each term is below 2^64, so the sum is below 2^66.
    let middle = (low >> 64) + (cross1 & LOW) + (cross2 & LOW);
    let high = x1 * y1 + (cross1 >> 64) + (cross2 >> 64) + (middle >> 64);
    (high, (middle << 64) | (low & LOW))
}

macro_rules! panicking_binop {
    ($trait:ident, $method:ident, $checked:ident, $opname:literal) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                // analyze: allow(panic-macro, reason = "the std::ops impls are documented to panic on overflow; no request-path code uses them, and request paths call the checked_* forms")
                self.$checked(&rhs).unwrap_or_else(|e| panic!("rational {} failed: {e}", $opname))
            }
        }
        impl $trait<&Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &Rational) -> Rational {
                // analyze: allow(panic-macro, reason = "the std::ops impls are documented to panic on overflow; no request-path code uses them, and request paths call the checked_* forms")
                self.$checked(rhs).unwrap_or_else(|e| panic!("rational {} failed: {e}", $opname))
            }
        }
    };
}

panicking_binop!(Add, add, checked_add, "addition");
panicking_binop!(Sub, sub, checked_sub, "subtraction");
panicking_binop!(Mul, mul, checked_mul, "multiplication");
panicking_binop!(Div, div, checked_div, "division");

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational { num: -self.num, den: self.den }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// `Debug` delegates to `Display`: rationals appear inside large polynomial
/// debug dumps where `Rational { num: 7, den: 10 }` would be unreadable.
impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(0, 7).denom(), 1);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(Rational::checked_new(1, 0), Err(NumericError::DivisionByZero));
    }

    #[test]
    fn arithmetic_basics() {
        let half = Rational::new(1, 2);
        let third = Rational::new(1, 3);
        assert_eq!(half + third, Rational::new(5, 6));
        assert_eq!(half - third, Rational::new(1, 6));
        assert_eq!(half * third, Rational::new(1, 6));
        assert_eq!(half / third, Rational::new(3, 2));
        assert_eq!(-half, Rational::new(-1, 2));
    }

    #[test]
    fn pow_and_recip() {
        let x = Rational::new(2, 3);
        assert_eq!(x.checked_pow(0).unwrap(), Rational::ONE);
        assert_eq!(x.checked_pow(3).unwrap(), Rational::new(8, 27));
        assert_eq!(x.checked_recip().unwrap(), Rational::new(3, 2));
        assert!(Rational::ZERO.checked_recip().is_err());
    }

    #[test]
    fn ordering_is_total_and_correct() {
        let vals = [
            Rational::new(-3, 2),
            Rational::new(-1, 1),
            Rational::ZERO,
            Rational::new(1, 3),
            Rational::new(1, 2),
            Rational::new(2, 3),
            Rational::ONE,
            Rational::new(7, 2),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
        assert_eq!(Rational::new(2, 4).cmp(&Rational::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn ordering_is_exact_where_cross_products_overflow() {
        // Both cross products overflow i128, and the two values are
        // the same f64: 1 + 1/(M−2) against 1 + 1/(M−1).
        let m = i128::MAX;
        let (a, b) = (Rational::new(m - 1, m - 2), Rational::new(m, m - 1));
        assert_ne!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!((-a).cmp(&-b), Ordering::Less);
        let set: BTreeSet<Rational> = [a, b, a].into_iter().collect();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), [b, a]);
        assert_eq!(wide_mul(u128::MAX, u128::MAX), (u128::MAX - 1, 1));
    }

    /// `a/b` against `c/d` (`b, d > 0`) without products: compare the
    /// floors, then the fractional parts through their reciprocals,
    /// which reverses the order.
    fn cmp_by_floors(mut a: i128, mut b: i128, mut c: i128, mut d: i128) -> Ordering {
        let mut reversed = false;
        loop {
            let order = match (a.div_euclid(b).cmp(&c.div_euclid(d)), a % b == 0, c % d == 0) {
                (Ordering::Equal, true, true) => Ordering::Equal,
                (Ordering::Equal, true, false) => Ordering::Less,
                (Ordering::Equal, false, true) => Ordering::Greater,
                (Ordering::Equal, false, false) => {
                    (a, b, c, d) = (b, a.rem_euclid(b), d, c.rem_euclid(d));
                    reversed = !reversed;
                    continue;
                }
                (by_floor, _, _) => by_floor,
            };
            return if reversed { order.reverse() } else { order };
        }
    }

    /// Components near the `i128` edge, at powers of ten, and small.
    fn edge_rational() -> impl Strategy<Value = Rational> {
        let magnitude = || {
            prop_oneof![
                1i128..=1_000,
                (0u32..=38).prop_map(|k| 10i128.pow(k)),
                (0i128..=3).prop_map(|j| i128::MAX - j),
                (0i128..=3).prop_map(|j| i128::MAX / 2 - j),
            ]
        };
        (magnitude(), 0u8..3, magnitude()).prop_map(|(num, sign, den)| {
            let num = match sign {
                0 => -num,
                1 => 0,
                _ => num,
            };
            Rational::new(num, den)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn ordering_is_exact_at_the_i128_edge(
            a in edge_rational(),
            b in edge_rational(),
            same in 0u8..4,
        ) {
            let b = if same == 0 { a } else { b };
            let order = a.cmp(&b);
            prop_assert_eq!(order, b.cmp(&a).reverse(), "{} vs {}", a, b);
            prop_assert_eq!(order == Ordering::Equal, a == b, "{} vs {}", a, b);
            prop_assert_eq!(order, cmp_by_floors(a.num, a.den, b.num, b.den), "{} vs {}", a, b);
            if let Ok(difference) = a.checked_sub(&b) {
                prop_assert_eq!(order, difference.signum().cmp(&0), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Rational::new(7, 10).to_string(), "7/10");
        assert_eq!(Rational::new(-7, 10).to_string(), "-7/10");
        assert_eq!(Rational::from_int(42).to_string(), "42");
        assert_eq!(format!("{:?}", Rational::new(7, 10)), "7/10");
    }

    #[test]
    fn parse_decimal_cases() {
        assert_eq!(Rational::parse_decimal("42").unwrap(), Rational::from_int(42));
        assert_eq!(Rational::parse_decimal("-42").unwrap(), Rational::from_int(-42));
        assert_eq!(Rational::parse_decimal("0.7").unwrap(), Rational::new(7, 10));
        assert_eq!(Rational::parse_decimal("0.70").unwrap(), Rational::new(7, 10));
        assert_eq!(Rational::parse_decimal(".5").unwrap(), Rational::new(1, 2));
        assert_eq!(Rational::parse_decimal("10.").unwrap(), Rational::from_int(10));
        assert_eq!(Rational::parse_decimal("+3.25").unwrap(), Rational::new(13, 4));
        assert_eq!(Rational::parse_decimal("1.5e3").unwrap(), Rational::from_int(1500));
        assert_eq!(Rational::parse_decimal("2E-2").unwrap(), Rational::new(1, 50));
        assert_eq!(Rational::parse_decimal("1_000").unwrap(), Rational::from_int(1000));
        assert_eq!(Rational::parse_decimal(" 0.5 ").unwrap(), Rational::new(1, 2));
    }

    #[test]
    fn parse_decimal_rejects_garbage() {
        for bad in ["", "-", ".", "1.2.3", "abc", "1e", "--1", "1e99", "1e-2147483648"] {
            assert!(Rational::parse_decimal(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn to_f64_accuracy() {
        assert_eq!(Rational::new(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::new(-7, 10).to_f64(), -0.7);
        let big = Rational::new(i128::MAX / 2, i128::MAX / 3);
        assert!((big.to_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn floor_behaviour() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::from_int(4).floor(), 4);
        assert_eq!(Rational::from_int(-4).floor(), -4);
        assert_eq!(Rational::ZERO.floor(), 0);
    }

    #[test]
    fn overflow_is_reported_not_wrapped() {
        let huge = Rational::new(i128::MAX, 1);
        assert!(matches!(huge.checked_add(&Rational::ONE), Err(NumericError::Overflow { .. })));
        assert!(matches!(huge.checked_mul(&huge), Err(NumericError::Overflow { .. })));
    }

    #[test]
    fn cross_reduction_avoids_spurious_overflow() {
        // (MAX/3) * (3/MAX) = 1 must succeed despite huge components.
        let a = Rational::new(i128::MAX / 3 * 3, 3);
        let b = Rational::new(3, i128::MAX / 3 * 3);
        assert_eq!(a.checked_mul(&b).unwrap(), Rational::ONE);
    }
}
