//! A tiny process-wide memo map for per-type precomputation registries
//! (comb tables, τ-adic curve parameters, linear-map tables, …).
//!
//! Each call site keeps its own `static` of a concrete `Registry` type
//! and supplies a builder closure; the registry handles the lazy init,
//! locking and clone-out once, instead of every cache hand-rolling the
//! same `OnceLock<Mutex<HashMap<..>>>` dance.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, OnceLock};

/// Lazily initialized, mutex-guarded map for process-wide caches keyed
/// by something cheap (`TypeId`, `(TypeId, usize)`, …). `V` is usually
/// an `Arc` so clone-out is free.
pub struct Registry<K, V>(OnceLock<Mutex<HashMap<K, V>>>);

impl<K: Eq + Hash, V: Clone> Registry<K, V> {
    /// An empty registry — `const`, so it can back a `static`.
    pub const fn new() -> Self {
        Self(OnceLock::new())
    }

    /// The cached value for `key`, building it on first use.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let mut map = self
            .0
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("registry poisoned");
        map.entry(key).or_insert_with(make).clone()
    }
}

impl<K: Eq + Hash, V: Clone> Default for Registry<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn builds_once_per_key() {
        static REG: Registry<u32, Arc<String>> = Registry::new();
        let a = REG.get_or_insert_with(1, || Arc::new("one".into()));
        let b = REG.get_or_insert_with(1, || unreachable!("already cached"));
        assert!(Arc::ptr_eq(&a, &b));
        let c = REG.get_or_insert_with(2, || Arc::new("two".into()));
        assert_eq!(*c, "two");
    }
}
