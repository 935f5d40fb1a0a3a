//! Fixture crate root: declares `helpers.rs` as test code only, so its
//! `unwrap` is not shipped. Expected with `helpers.rs`: no finding.

pub fn total(values: &[u64]) -> u64 {
    values.iter().sum()
}

#[cfg(test)]
mod helpers;
