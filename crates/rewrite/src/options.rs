//! The rewrite pipeline's switch.

/// Whether `qarith-core` runs the rewrite pipeline ([`crate::rewrite`])
/// ahead of measurement. Folded into `MeasureOptions::fingerprint` by
/// `qarith-core`: rewriting changes the bits of an estimate, so the two
/// settings never share ν-cache entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RewriteOptions {
    /// Master switch. When `false` the engine runs the historical
    /// pipeline (the frozen `ae_simplified` behavior on the `Auto` and
    /// `ExactOnly` routes, formulas measured whole) and produces
    /// bit-identical estimates to releases without this crate.
    pub enabled: bool,
}

impl RewriteOptions {
    /// Rewriting on — the configuration benchmarks and the smoke suites
    /// run.
    pub fn full() -> RewriteOptions {
        RewriteOptions { enabled: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_but_fully_configured() {
        assert!(!RewriteOptions::default().enabled);
        assert!(RewriteOptions::full().enabled);
    }
}
