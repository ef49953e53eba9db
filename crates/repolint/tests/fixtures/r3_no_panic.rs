//! Seeded violation fixture for rule `no-panic` (linted as if it lived
//! at `crates/mapreduce/src/engine/mod.rs`). Not compiled — read as text by
//! the self-test.

pub fn hot_path(bucket: Option<Vec<u64>>) -> Vec<u64> {
    // Panicking mid-reduce tears down workers at a schedule-dependent
    // point — exactly what the typed EngineError contract forbids.
    let vals = bucket.unwrap();
    if vals.is_empty() {
        panic!("empty bucket");
    }
    vals
}

pub fn also_hot(slot: Option<u64>) -> u64 {
    slot.expect("reducer left no result")
}

#[cfg(test)]
mod tests {
    // Test code is exempt: this unwrap must NOT be reported.
    #[test]
    fn fine_here() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}
