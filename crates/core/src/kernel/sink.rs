//! Per-chunk output sinks: where the kernel driver's accepted bindings go
//! (see the parallelism section of the [module docs](super)).

use crate::output::Tuples;
use ij_interval::{Interval, TupleId};

/// Consumer of accepted bindings (one `(interval, tuple)` slot per
/// relation, in query order) — all a worker ever does with its chunk.
pub trait BindingSink {
    /// Consumes one accepted binding.
    fn push(&mut self, binding: &[(Interval, TupleId)]);
}

/// A reducer's output accumulator. The serial path `push`es straight into
/// it; the parallel path `fork`s one empty chunk per outer range, each
/// worker `push`es into its own, and the caller `absorb`s the finished
/// chunks in outer order.
///
/// Determinism contract: a sink whose `absorb` is associative over
/// consecutive chunks (addition, append, set union) ends in the same
/// state as one serial run of `push`, for every thread count.
///
/// Implemented for `u64` (counts bindings — all a `Count`-mode reducer
/// reports) and [`Tuples`] (appends the binding's ids to the reducer's flat
/// output table where the binding is produced; a chunk is one more table,
/// absorbed by appending its buffer).
pub trait OutputSink: BindingSink {
    /// The worker-side accumulator of one chunk; crosses threads.
    type Chunk: BindingSink + Send;
    /// An empty accumulator for one chunk.
    fn fork(&self) -> Self::Chunk;
    /// Folds in the next chunk's accumulator (caller's thread, chunk
    /// order).
    fn absorb(&mut self, chunk: Self::Chunk);
}

impl BindingSink for u64 {
    fn push(&mut self, _: &[(Interval, TupleId)]) {
        *self += 1;
    }
}

impl OutputSink for u64 {
    type Chunk = u64;
    fn fork(&self) -> u64 {
        0
    }
    fn absorb(&mut self, chunk: u64) {
        *self += chunk;
    }
}

impl BindingSink for Tuples {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        self.push_row(binding.iter().map(|&(_, t)| t));
    }
}

impl OutputSink for Tuples {
    type Chunk = Tuples;
    fn fork(&self) -> Tuples {
        Tuples::new(self.arity())
    }
    fn absorb(&mut self, chunk: Tuples) {
        self.append(chunk);
    }
}

/// The closure form of the driver: bindings reach `on_output` directly on
/// the serial path, and through per-chunk [`Rows`] replayed in chunk order
/// on the parallel path (the closure never leaves the caller's thread).
pub(super) struct Replay<F> {
    /// Relations per binding: the stride of a chunk's row buffer.
    pub(super) arity: usize,
    pub(super) on_output: F,
}

/// [`Replay`]'s chunk: flat, arity-strided rows buffered for the replay.
pub(super) struct Rows(Vec<(Interval, TupleId)>);

impl BindingSink for Rows {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        self.0.extend_from_slice(binding);
    }
}

impl<F: FnMut(&[(Interval, TupleId)])> BindingSink for Replay<F> {
    fn push(&mut self, binding: &[(Interval, TupleId)]) {
        (self.on_output)(binding);
    }
}

impl<F: FnMut(&[(Interval, TupleId)])> OutputSink for Replay<F> {
    type Chunk = Rows;
    fn fork(&self) -> Rows {
        Rows(Vec::new())
    }
    fn absorb(&mut self, chunk: Rows) {
        chunk
            .0
            .chunks_exact(self.arity)
            .for_each(&mut self.on_output);
    }
}
