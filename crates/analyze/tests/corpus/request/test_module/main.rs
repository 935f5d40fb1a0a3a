//! Fixture binary root: declares the same `helpers.rs` without the
//! attribute, so its `unwrap` ships. Expected with `helpers.rs`:
//! exactly one `panic-unwrap` finding, in `helpers.rs`.

mod helpers;

fn main() {
    println!("{}", helpers::first(&[1, 2]));
}
