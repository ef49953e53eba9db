//! The case the deleted `panic-propagation` rule needed a call graph for:
//! a panic-capable helper in a *second* module, reached from `entry`.

pub(crate) fn deeper(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}
