//! One seeded violation per invariant; see `Cargo.toml`.

// Verbatim the attribute at the top of `crates/mapreduce/src/lib.rs`
// (`tests/lint_gate.rs` compares the two).
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::allow_attributes_without_reason
    )
)]

mod helper;

use std::collections::HashMap;
use std::time::Instant;

/// The engine-side entry point: bans, panics, and a call into `helper`.
pub fn entry(xs: &[u64], o: Option<u64>, r: Result<u64, String>) -> u64 {
    let mut seen: HashMap<u64, u64> = HashMap::new();
    let started = Instant::now();
    seen.insert(started.elapsed().as_secs(), 0);
    let worker = format!("{:?}", std::thread::current().id());
    if worker.is_empty() {
        panic!("seeded panic");
    }
    o.unwrap() + r.expect("seeded expect") + xs[0] + helper::deeper(xs)
}

/// A guard bound to a name outlives its statement: the lock is held
/// across whatever follows. Only `Locked`'s closures may take a lock.
pub fn guard_outlives_statement(m: &parking_lot::Mutex<u64>, l: &parking_lot::RwLock<u64>) -> u64 {
    let held = m.lock();
    *l.write() += *held;
    *held
}

/// Threads spawned outside `ij_mapreduce::engine::fan_out`: each call
/// site joins and re-raises (or drops) its threads' panics its own way.
pub fn own_spawn_loops() -> u64 {
    let scoped = crossbeam::scope(|s| s.spawn(|_| 1u64).join().unwrap_or(0)).unwrap_or(0);
    let spawned = std::thread::spawn(|| 2u64).join().unwrap_or(0);
    let std_scoped = std::thread::scope(|s| s.spawn(|| 3u64).join().unwrap_or(0));
    scoped + spawned + std_scoped
}

/// An exception without a justification is itself a diagnostic.
#[allow(clippy::unwrap_used)]
pub fn unjustified(o: Option<u64>) -> u64 {
    o.unwrap()
}
