//! The [`Record`] trait: what can flow through the engine.
//!
//! Records must be cheap to clone and sendable across the engine's worker
//! threads. `approx_bytes` feeds the shuffle-volume accounting — the paper
//! reasons about communication cost in key-value pairs and bytes copied over
//! the network; we report both.

/// A value that can be carried through map, shuffle and reduce.
pub trait Record: Clone + Send + Sync + 'static {
    /// Approximate serialized size in bytes, used for shuffle-volume
    /// accounting. The default is the in-memory size, which is a good proxy
    /// for the fixed-width records the join algorithms use.
    fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }

    /// Logical rows the record stands for when a reducer emits it — what
    /// [`ReducerLoad::output`](crate::ReducerLoad::output) and the cost
    /// model's output term count. One, unless the record is a block of
    /// rows.
    fn rows(&self) -> u64 {
        1
    }
}

impl Record for u8 {}
impl Record for u16 {}
impl Record for u32 {}
impl Record for u64 {}
impl Record for i8 {}
impl Record for i16 {}
impl Record for i32 {}
impl Record for i64 {}
impl Record for usize {}
impl Record for bool {}
impl Record for char {}
impl Record for () {}

impl Record for String {
    fn approx_bytes(&self) -> u64 {
        // Payload bytes plus the 8-byte length header a serialized string
        // record carries on the wire (matches the Vec<T> accounting above).
        self.len() as u64 + 8
    }
}

impl<A: Record, B: Record> Record for (A, B) {
    fn approx_bytes(&self) -> u64 {
        self.0.approx_bytes() + self.1.approx_bytes()
    }
}

impl<A: Record, B: Record, C: Record> Record for (A, B, C) {
    fn approx_bytes(&self) -> u64 {
        self.0.approx_bytes() + self.1.approx_bytes() + self.2.approx_bytes()
    }
}

impl<T: Record> Record for Vec<T> {
    fn approx_bytes(&self) -> u64 {
        self.iter().map(Record::approx_bytes).sum::<u64>() + 8
    }
}

impl<T: Record> Record for Option<T> {
    fn approx_bytes(&self) -> u64 {
        match self {
            Some(v) => 1 + v.approx_bytes(),
            None => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_sizes() {
        assert_eq!(3u32.approx_bytes(), 4);
        assert_eq!(3u64.approx_bytes(), 8);
        assert_eq!(true.approx_bytes(), 1);
    }

    #[test]
    fn composite_sizes() {
        assert_eq!((1u32, 2u64).approx_bytes(), 12);
        assert_eq!(vec![1u32, 2, 3].approx_bytes(), 12 + 8);
        assert_eq!(Some(7u64).approx_bytes(), 9);
        assert_eq!(None::<u64>.approx_bytes(), 1);
        assert_eq!("abcd".to_string().approx_bytes(), 12);
        assert_eq!(String::new().approx_bytes(), 8);
    }
}
