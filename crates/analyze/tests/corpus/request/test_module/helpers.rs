//! Fixture module file: an `unwrap`, test code or shipped depending on
//! the declaration that names this file.

pub fn first(values: &[u64]) -> u64 {
    *values.first().unwrap()
}
