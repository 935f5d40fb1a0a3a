//! FNV-1a, the workspace's one content-digest primitive.
//!
//! Three subsystems need a small, dependency-free, host-independent
//! 64-bit digest: the datagen database digest (pinning generated data
//! across runs and threads), the serving ν-cache's shard placement,
//! and the serving bench's certainty digest. They must all use *the
//! same* function from one place — a constant tweaked in a private
//! copy would silently diverge the others.

/// Streaming 64-bit FNV-1a.
///
/// ```
/// use qarith_numeric::Fnv1a64;
/// let mut h = Fnv1a64::new();
/// h.update(b"hello");
/// assert_eq!(h.finish(), Fnv1a64::digest(b"hello"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64 {
    state: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64::new()
    }
}

impl Fnv1a64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// A digest at the standard offset basis.
    pub fn new() -> Fnv1a64 {
        Fnv1a64 { state: Fnv1a64::OFFSET }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(Fnv1a64::PRIME);
        }
    }

    /// The current digest value (the state; FNV has no finalizer).
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// One-shot digest of a byte string.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a64::new();
        h.update(bytes);
        h.finish()
    }
}

/// Absorbs formatted text, so a `Display` value streams its bytes
/// straight into the digest (`write!(h, "{x}")`) with no intermediate
/// `String`.
impl std::fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        // Reference values of the standard 64-bit FNV-1a parameters.
        assert_eq!(Fnv1a64::digest(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv1a64::digest(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv1a64::digest(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), Fnv1a64::digest(b"foobar"));
    }

    #[test]
    fn formatted_text_equals_its_bytes() {
        use std::fmt::Write;
        let mut h = Fnv1a64::new();
        write!(h, "{}-{:?}", 42, "x").unwrap();
        assert_eq!(h.finish(), Fnv1a64::digest(b"42-\"x\""));
    }
}
