use std::fmt;

use qarith_numeric::Rational;

/// Which algorithm produced a certainty value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Method {
    /// Closed-form/exhaustive exact computation (dimensions 0–1, 2-D
    /// linear arcs, order-fragment cell counting).
    Exact,
    /// The additive-error scheme of Theorem 8.1.
    Afpras,
    /// The multiplicative-error scheme of Theorem 7.1.
    Fpras,
    /// The zero-one law for generic queries (§2): naive evaluation.
    ZeroOne,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Method::Exact => write!(f, "exact"),
            Method::Afpras => write!(f, "AFPRAS"),
            Method::Fpras => write!(f, "FPRAS"),
            Method::ZeroOne => write!(f, "zero-one law"),
        }
    }
}

/// A computed measure of certainty `μ(q, D, (a,s)) ∈ [0,1]`, with
/// provenance.
#[derive(Clone, Debug)]
pub struct CertaintyEstimate {
    /// The estimated (or exact) value.
    pub value: f64,
    /// Exact rational value, when the method produces one.
    pub exact: Option<Rational>,
    /// The algorithm used.
    pub method: Method,
    /// Error tolerance ε (additive for AFPRAS, relative for FPRAS);
    /// `None` for exact methods.
    pub epsilon: Option<f64>,
    /// Failure probability δ; `None` for exact methods.
    pub delta: Option<f64>,
    /// Monte-Carlo samples drawn (0 for exact methods).
    pub samples: usize,
    /// Dimension of the sampled direction space (number of numerical
    /// nulls that actually occur in the ground formula).
    pub dimension: usize,
    /// `true` iff the value was served by the ν-cache (or by batch
    /// deduplication) instead of a fresh computation. Cached values are
    /// bit-identical to fresh ones; this flag is provenance only and is
    /// ignored when comparing estimates for identity.
    pub cached: bool,
    /// `true` iff the rewrite pipeline (`qarith-rewrite` simplification
    /// and independence decomposition, the `Auto` and `ExactOnly`
    /// routes) produced this estimate. Rewritten estimates keep the ε/δ
    /// guarantee but are **not** bit-identical to the forced arms'
    /// unrewritten ones — the sampled formula, its dimension, and the
    /// sample budget all change — so the flag (and the method folded
    /// into `MeasureOptions::fingerprint`) says which pipeline a value
    /// came from.
    pub rewritten: bool,
}

impl CertaintyEstimate {
    /// An exact rational result.
    pub fn exact_rational(v: Rational, dimension: usize) -> CertaintyEstimate {
        CertaintyEstimate {
            value: v.to_f64(),
            exact: Some(v),
            method: Method::Exact,
            epsilon: None,
            delta: None,
            samples: 0,
            dimension,
            cached: false,
            rewritten: false,
        }
    }

    /// An exact real result (closed form involving arctangents — exact up
    /// to `f64` rounding, e.g. the 2-D arc evaluator).
    pub fn exact_real(v: f64, dimension: usize) -> CertaintyEstimate {
        CertaintyEstimate {
            value: v,
            exact: None,
            method: Method::Exact,
            epsilon: None,
            delta: None,
            samples: 0,
            dimension,
            cached: false,
            rewritten: false,
        }
    }

    /// `true` iff the answer is (almost surely) certain.
    pub fn is_certain(&self) -> bool {
        match &self.exact {
            Some(r) => *r == Rational::ONE,
            None => self.value >= 1.0,
        }
    }
}

impl fmt::Display for CertaintyEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rw = if self.rewritten { ", rewritten" } else { "" };
        match &self.exact {
            Some(r) => write!(f, "μ = {r} ({}{rw})", self.method),
            None => match self.epsilon {
                Some(eps) => write!(f, "μ ≈ {:.4} (±{eps}, {}{rw})", self.value, self.method),
                None => write!(f, "μ = {:.6} ({}{rw})", self.value, self.method),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_certainty() {
        let e = CertaintyEstimate::exact_rational(Rational::ONE, 3);
        assert!(e.is_certain());
        assert_eq!(e.value, 1.0);
        assert_eq!(e.method, Method::Exact);

        let h = CertaintyEstimate::exact_rational(Rational::new(1, 2), 1);
        assert!(!h.is_certain());
        assert_eq!(h.value, 0.5);

        let r = CertaintyEstimate::exact_real(0.097, 2);
        assert!(!r.is_certain());
        assert!(r.exact.is_none());
    }

    #[test]
    fn display_forms() {
        let e = CertaintyEstimate::exact_rational(Rational::new(3, 8), 4);
        assert_eq!(e.to_string(), "μ = 3/8 (exact)");
        let a = CertaintyEstimate {
            value: 0.3891,
            exact: None,
            method: Method::Afpras,
            epsilon: Some(0.01),
            delta: Some(0.25),
            samples: 10_000,
            dimension: 2,
            cached: false,
            rewritten: false,
        };
        assert!(a.to_string().contains("AFPRAS"));
        assert!(a.to_string().contains("0.3891"));
    }
}
