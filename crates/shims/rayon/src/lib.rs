//! Offline API-subset shim of the [`rayon`](https://crates.io/crates/rayon)
//! crate.
//!
//! Implements the `into_par_iter().map(..).collect()` pipeline the workspace
//! uses, executing on `std::thread::scope` with one chunk per available core.
//! Results are **order-preserving** — element `i` of the output corresponds
//! to element `i` of the input regardless of which thread ran it — which is
//! the property `bdclique-bench` relies on for bit-identical serial/parallel
//! aggregation. There is no work stealing; chunks are statically balanced,
//! which is fine for the embarrassingly parallel trial loops here.
//!
//! # Pool scopes
//!
//! Inside [`ThreadPool::install`] every `collect` reached from `op` — nested
//! ones on worker threads included — uses at most the pool's thread count,
//! and on a one-thread pool runs on the calling thread and spawns nothing:
//! the serial side of the workspace's parallel-vs-serial identity tests. A
//! shim pool owns no threads; it is a count, kept in a thread-local while
//! `install` runs and handed to every scoped worker, so (unlike upstream)
//! `op` itself runs on the caller's thread.

use std::cell::Cell;
use std::num::NonZeroUsize;

pub mod prelude {
    //! Glob-import surface matching upstream `rayon::prelude::*`.

    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
}

thread_local! {
    /// Thread count of the innermost [`ThreadPool::install`] this thread runs
    /// under; `0` on the ambient pool (one worker per core).
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads to use for a job of `len` items.
fn workers(len: usize) -> usize {
    let threads = match POOL_THREADS.get() {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        threads => threads,
    };
    threads.min(len).max(1)
}

/// Upstream's pool builder, cut down to the thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool with one thread per available core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the thread count; `0`, the default, is one per available core.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool; the `Result` is upstream's, nothing here can fail.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool(self.num_threads))
    }
}

/// Upstream's opaque reason a pool could not be built.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

/// A bound on the fan-out of every `collect` run under
/// [`ThreadPool::install`]: the thread count, `0` for one per core.
pub struct ThreadPool(usize);

impl ThreadPool {
    /// Runs `op` with every `collect` it reaches limited to this pool's
    /// thread count; the enclosing scope is back in force when `install`
    /// returns or `op` panics.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.set(self.0);
            }
        }
        let _restore = Restore(POOL_THREADS.replace(self.0));
        op()
    }
}

/// Types convertible into a parallel iterator.
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;

    /// Converts `self` into a parallel pipeline.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u64> {
    type Item = u64;

    fn into_par_iter(self) -> ParIter<u64> {
        ParIter {
            items: self.collect(),
        }
    }
}

/// A materialized parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Operations available on a parallel pipeline stage.
pub trait ParallelIterator: Sized {
    /// The element type flowing out of this stage.
    type Item: Send;

    /// Executes the pipeline, collecting into `C` in input order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C;

    /// Maps every element through `f` (executed in parallel at collect time).
    fn map<U, F>(self, f: F) -> ParMap<Self, F>
    where
        U: Send,
        F: Fn(Self::Item) -> U + Send + Sync,
    {
        ParMap { inner: self, f }
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn collect<C: FromParallelIterator<T>>(self) -> C {
        C::from_ordered_vec(self.items)
    }
}

/// A mapped pipeline stage.
pub struct ParMap<I, F> {
    inner: I,
    f: F,
}

impl<T, U, F> ParallelIterator for ParMap<ParIter<T>, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Send + Sync,
{
    type Item = U;

    fn collect<C: FromParallelIterator<U>>(self) -> C {
        let items = self.inner.items;
        let f = &self.f;
        let n_workers = workers(items.len());
        if n_workers <= 1 {
            return C::from_ordered_vec(items.into_iter().map(f).collect());
        }
        let chunk_len = items.len().div_ceil(n_workers);
        // Contiguous chunks, one per worker; joining the handles in spawn
        // order concatenates results back into input order.
        let chunks: Vec<Vec<T>> = {
            let mut chunks = Vec::with_capacity(n_workers);
            let mut rest = items;
            while !rest.is_empty() {
                let tail = rest.split_off(rest.len().min(chunk_len));
                chunks.push(std::mem::replace(&mut rest, tail));
            }
            chunks
        };
        // Workers are fresh threads: hand them the caller's pool scope so
        // the collects they nest stay inside it.
        let pool_threads = POOL_THREADS.get();
        #[expect(
            clippy::disallowed_methods,
            reason = "the sanctioned fan-out: scoped workers cannot outlive this collect"
        )]
        let mapped: Vec<U> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|chunk| {
                    scope.spawn(move || {
                        POOL_THREADS.set(pool_threads);
                        chunk.into_iter().map(f).collect::<Vec<U>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("rayon shim worker panicked"))
                .collect()
        });
        C::from_ordered_vec(mapped)
    }
}

/// Collection targets for [`ParallelIterator::collect`].
pub trait FromParallelIterator<T> {
    /// Builds the collection from results already in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{ThreadPoolBuilder, POOL_THREADS};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// Adds `id` to `seen` unless already there (`ThreadId` is not `Ord`).
    fn note(seen: &mut Vec<ThreadId>, id: ThreadId) {
        if !seen.contains(&id) {
            seen.push(id);
        }
    }

    /// Runs a `len`-item collect and returns the distinct threads that ran
    /// items.
    fn threads_of_collect(len: usize) -> Vec<ThreadId> {
        let seen = Mutex::new(Vec::new());
        let _: Vec<()> = (0..len)
            .into_par_iter()
            .map(|_| note(&mut seen.lock().unwrap(), std::thread::current().id()))
            .collect();
        seen.into_inner().unwrap()
    }

    /// (a) A one-thread pool is the calling thread, through three nested
    /// fan-out levels — the shape cells → trials → packs has in the bench.
    #[test]
    fn one_thread_pool_runs_nested_collects_on_the_caller() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let seen = Mutex::new(Vec::new());
        let sums: Vec<usize> = pool.install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|a| {
                    let mid: Vec<usize> = (0..4usize)
                        .into_par_iter()
                        .map(|b| {
                            let inner: Vec<usize> = (0..4usize)
                                .into_par_iter()
                                .map(|c| {
                                    seen.lock().unwrap().push(std::thread::current().id());
                                    a * 16 + b * 4 + c
                                })
                                .collect();
                            inner.into_iter().sum()
                        })
                        .collect();
                    mid.into_iter().sum()
                })
                .collect()
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 64, "every innermost item ran");
        assert!(seen.iter().all(|&id| id == std::thread::current().id()));
        assert_eq!(sums.iter().sum::<usize>(), (0..64).sum());
    }

    /// Scoped workers inherit the pool scope: under a three-thread pool the
    /// outer collect spawns three workers whatever the core count, and the
    /// collects nested on those workers are bounded by three as well.
    #[test]
    fn scoped_workers_inherit_the_pool_scope() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caller = std::thread::current().id();
        let inner: Vec<(usize, ThreadId, Vec<ThreadId>)> = pool.install(|| {
            (0..3usize)
                .into_par_iter()
                .map(|_| {
                    let me = std::thread::current().id();
                    (POOL_THREADS.get(), me, threads_of_collect(6))
                })
                .collect()
        });
        let mut outer = Vec::new();
        for (_, id, _) in &inner {
            note(&mut outer, *id);
        }
        assert_eq!(outer.len(), 3);
        assert!(!outer.contains(&caller));
        for (scope, _, nested) in &inner {
            assert_eq!(*scope, 3);
            assert_eq!(nested.len(), 3, "six items over a three-thread scope");
        }
    }

    /// (b) The scope ends with `install` — on return and on unwind — so a
    /// later collect on the same thread fans out again where cores allow.
    #[test]
    fn pool_scope_ends_with_install() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let fans_out = || cores == 1 || threads_of_collect(64).len() > 1;
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();

        assert_eq!(pool.install(|| threads_of_collect(64)).len(), 1);
        assert_eq!(POOL_THREADS.get(), 0);
        assert!(fans_out());

        let panicked = std::panic::catch_unwind(|| pool.install(|| panic!("op panics")));
        assert!(panicked.is_err());
        assert_eq!(POOL_THREADS.get(), 0);
        assert!(fans_out());

        // Scopes nest: the inner pool wins inside, the outer one is back after.
        let two = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        two.install(|| {
            assert_eq!(pool.install(|| threads_of_collect(64)).len(), 1);
            assert_eq!(threads_of_collect(64).len(), 2);
        });
    }

    /// (c) Same order and content as the ambient pool.
    #[test]
    fn pool_output_equals_ambient_output() {
        let ambient: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        for threads in [1, 2, 7] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let scoped: Vec<usize> =
                pool.install(|| (0..1000usize).into_par_iter().map(|x| x * 2).collect());
            assert_eq!(scoped, ambient, "{threads} thread(s)");
        }
    }

    #[test]
    fn map_collect_preserves_order() {
        let out: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u64> = (0..0u64).into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn vec_source_works() {
        let out: Vec<String> = vec![1, 2, 3]
            .into_par_iter()
            .map(|x: i32| format!("{x}"))
            .collect();
        assert_eq!(out, vec!["1", "2", "3"]);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        // On a multi-core box the scope spawns several workers; on a
        // single-core box one is legal.
        assert!(!threads_of_collect(64).is_empty());
    }
}
