//! Per-block output sinks: where the kernel driver's owned bindings go
//! (see the parallelism section of the [module docs](super)).
//!
//! A kernel hands its last level's bindings over as *runs*: the partial
//! binding, the slot the last level binds and the rows of that level's
//! window that pass its filters, in scan order ([`BindingSink::push_run`]).
//! A run is lazy — its filter runs as the sink pulls it — so a sink
//! consumes every row of a run, in order, exactly once. The default
//! body binds each row and [`push`](BindingSink::push)es the binding; the
//! count sink adds the run's length and the row sink writes the run's rows
//! into its last block, found once per run, so the scan loop and the
//! sink's loop are one tight loop.

use crate::output::Tuples;
use ij_interval::{Interval, TupleId};

/// Consumer of owned bindings (one row per side, in side order: for a
/// single-attribute bucket one `(interval, tuple)` slot per relation, in
/// query order) — all a worker ever does with its chunk.
pub trait BindingSink<R = (Interval, TupleId)> {
    /// Consumes one owned binding.
    fn push(&mut self, binding: &[R]);

    /// Consumes one binding per row of `run`, in order: `binding` with the
    /// row in `slot` (the other slots are the bound sides). Must consume
    /// every row of `run`; `binding[slot]` is the sink's to overwrite.
    fn push_run(&mut self, binding: &mut [R], slot: usize, run: impl Iterator<Item = R>) {
        for row in run {
            binding[slot] = row;
            self.push(binding);
        }
    }
}

/// A reducer's output accumulator. The serial path `push`es straight into
/// it; on the parallel path every worker `fork`s one empty chunk per outer
/// block it pulls and `push`es that block's bindings into it, and the
/// caller `absorb`s the finished chunks in block order.
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
    /// The worker-side accumulator of one chunk; crosses threads. A
    /// worker forks its blocks' chunks from one chunk of its own.
    type Chunk: OutputSink<Chunk = Self::Chunk> + Send;
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

    fn push_run(
        &mut self,
        _: &mut [(Interval, TupleId)],
        _: usize,
        run: impl Iterator<Item = (Interval, TupleId)>,
    ) {
        *self += run.count() as u64;
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

    /// The run's rows go to the last block, found once per run. The block
    /// grows as rows arrive: reserving the window's length up front would
    /// hold room for the rows the filter drops, which on sparse windows
    /// is most of them.
    fn push_run(
        &mut self,
        binding: &mut [(Interval, TupleId)],
        slot: usize,
        mut run: impl Iterator<Item = (Interval, TupleId)>,
    ) {
        // An empty run opens no block.
        let Some(first) = run.next() else { return };
        assert_eq!(binding.len(), self.arity(), "row length");
        let block = self.tail();
        let mut write = |(_, id): (Interval, TupleId)| {
            binding[slot].1 = id;
            block.extend(binding.iter().map(|&(_, t)| t));
        };
        write(first);
        run.for_each(write);
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

impl OutputSink for Rows {
    type Chunk = Rows;
    fn fork(&self) -> Rows {
        Rows(Vec::new())
    }
    fn absorb(&mut self, chunk: Rows) {
        self.0.extend(chunk.0);
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
