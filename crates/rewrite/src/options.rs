//! The retired rewrite switch.

/// A switch that nothing reads: `qarith-core` rewrites on every `Auto`
/// and `ExactOnly` measurement and never on the forced `Afpras` and
/// `Fpras` arms, whatever this says, and leaves it out of the options
/// fingerprint. The type stays only because the repository benchmark
/// (`perfbench/src/check.rs`) names it in a struct literal; it goes
/// once that benchmark stops naming it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RewriteOptions {
    /// Unread.
    pub enabled: bool,
}
