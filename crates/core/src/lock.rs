//! Lockdep-style lock-order auditing (`AuditedMutex` / `AuditedRwLock`).
//!
//! Every audited lock is registered under a stable, human-readable name
//! (e.g. `"whips.warehouse"`) and assigned a [`LockId`]. With the
//! `lock-audit` feature enabled, each acquisition records an edge from
//! every lock the acquiring thread already holds to the lock being
//! acquired, folding all threads' acquisition stacks into one global
//! lock-order graph. The first time an edge closes a cycle, the cycle is
//! reported as a potential deadlock together with **both** offending
//! acquisition chains (which thread held what while acquiring what), so
//! the report is actionable without a debugger.
//!
//! With the feature disabled the wrappers compile down to a bare
//! `parking_lot` lock plus an ignored `&'static str` — zero runtime cost
//! on the hot path.
//!
//! The graph is process-global (locks of the same name in different
//! runtime instances share a node). Consumers that may run concurrently
//! with unrelated tests should filter [`lock_cycles`] by name prefix via
//! [`LockCycle::within_prefixes`].

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Stable identifier for an audited lock class, assigned at first
/// registration of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u32);

/// One thread's acquisition stack at the moment it acquired (or tried to
/// acquire) a lock: the locks already held, outermost first, plus the
/// lock being acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquisitionChain {
    /// Name of the thread that performed the acquisition.
    pub thread: String,
    /// Names of the locks already held, in acquisition order.
    pub held: Vec<String>,
    /// Name of the lock being acquired.
    pub acquiring: String,
}

impl fmt::Display for AcquisitionChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread `{}` holding [{}] acquired `{}`",
            self.thread,
            self.held.join(" -> "),
            self.acquiring
        )
    }
}

/// A cycle in the global lock-order graph: a potential deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The lock names on the cycle, in edge order (the last one orders
    /// back before the first).
    pub locks: Vec<String>,
    /// One witness acquisition chain per edge on the cycle.
    pub chains: Vec<AcquisitionChain>,
}

impl LockCycle {
    /// True if any lock on the cycle has this exact name.
    pub fn involves(&self, name: &str) -> bool {
        self.locks.iter().any(|l| l == name)
    }

    /// True if every lock on the cycle starts with one of the prefixes.
    pub fn within_prefixes(&self, prefixes: &[&str]) -> bool {
        self.locks
            .iter()
            .all(|l| prefixes.iter().any(|p| l.starts_with(p)))
    }
}

impl fmt::Display for LockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "potential deadlock: lock-order cycle {} -> {}",
            self.locks.join(" -> "),
            self.locks.first().map(String::as_str).unwrap_or("?")
        )?;
        for c in &self.chains {
            writeln!(f, "  witness: {c}")?;
        }
        Ok(())
    }
}

/// Intern a dynamically-built lock-class name (e.g. `"shard0.warehouse"`)
/// into the `&'static str` the audited wrappers require. Each distinct
/// name is leaked exactly once and the same reference is returned on
/// every later call, so per-shard lock construction across many runs
/// never grows memory beyond the set of unique names. Compiled
/// regardless of the `lock-audit` feature: construction sites use it
/// unconditionally.
pub fn intern_lock_name(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let registry = INTERNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut registry = registry.lock().expect("lock-name intern registry poisoned");
    if let Some(existing) = registry.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    registry.insert(leaked);
    leaked
}

#[cfg(feature = "lock-audit")]
mod audit {
    use super::{AcquisitionChain, LockCycle};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::{Mutex, OnceLock};

    /// The global lock-order graph. Guarded by a plain `std` mutex (not
    /// an audited one): it is a leaf acquired only inside the audit
    /// itself.
    struct Graph {
        names: Vec<&'static str>,
        ids: BTreeMap<&'static str, u32>,
        /// (held, acquired) -> witness chain recorded when the edge was
        /// first seen.
        edges: BTreeMap<(u32, u32), AcquisitionChain>,
        /// Adjacency of `edges` for cycle search.
        adj: BTreeMap<u32, BTreeSet<u32>>,
        /// Canonical node-sets of cycles already reported (dedup).
        reported: BTreeSet<Vec<u32>>,
        cycles: Vec<LockCycle>,
    }

    impl Graph {
        fn new() -> Self {
            Graph {
                names: Vec::new(),
                ids: BTreeMap::new(),
                edges: BTreeMap::new(),
                adj: BTreeMap::new(),
                reported: BTreeSet::new(),
                cycles: Vec::new(),
            }
        }

        /// DFS for a path `from -> ... -> to` in the current graph.
        fn path(&self, from: u32, to: u32) -> Option<Vec<u32>> {
            let mut stack = vec![(from, vec![from])];
            let mut seen = BTreeSet::new();
            while let Some((n, path)) = stack.pop() {
                if n == to {
                    return Some(path);
                }
                if !seen.insert(n) {
                    continue;
                }
                if let Some(next) = self.adj.get(&n) {
                    for &m in next {
                        if !seen.contains(&m) {
                            let mut p = path.clone();
                            p.push(m);
                            stack.push((m, p));
                        }
                    }
                }
            }
            None
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::new()))
    }

    thread_local! {
        /// Locks this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        /// Edges this thread has already pushed into the global graph —
        /// lets steady-state reacquisition skip the global mutex.
        static SEEN: RefCell<BTreeSet<(u32, u32)>> = const { RefCell::new(BTreeSet::new()) };
    }

    pub(super) fn register(name: &'static str) -> u32 {
        let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = g.ids.get(name) {
            return id;
        }
        let id = g.names.len() as u32;
        g.names.push(name);
        g.ids.insert(name, id);
        id
    }

    fn current_chain(g: &Graph, held: &[u32], acquiring: u32) -> AcquisitionChain {
        AcquisitionChain {
            thread: std::thread::current()
                .name()
                .unwrap_or("<unnamed>")
                .to_string(),
            held: held
                .iter()
                .map(|&h| g.names[h as usize].to_string())
                .collect(),
            acquiring: g.names[acquiring as usize].to_string(),
        }
    }

    /// Record that the current thread is acquiring `id`, folding the
    /// implied order edges into the global graph and reporting any cycle
    /// the new edges close. Called *before* blocking on the lock so a
    /// real deadlock still gets its report.
    pub(super) fn on_acquire(id: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            let new_edges: Vec<(u32, u32)> = SEEN.with(|seen| {
                let seen = seen.borrow();
                held.iter()
                    .map(|&h| (h, id))
                    .filter(|e| !seen.contains(e))
                    .collect()
            });
            if !new_edges.is_empty() {
                let mut g = graph().lock().unwrap_or_else(|e| e.into_inner());
                for &(h, b) in &new_edges {
                    if g.edges.contains_key(&(h, b)) {
                        continue;
                    }
                    // Would inserting h -> b close a cycle? Look for an
                    // existing path b -> ... -> h first.
                    if let Some(path) = g.path(b, h) {
                        record_cycle(&mut g, &path, &held, b);
                    }
                    let chain = current_chain(&g, &held, b);
                    g.edges.insert((h, b), chain);
                    g.adj.entry(h).or_default().insert(b);
                }
                drop(g);
                SEEN.with(|seen| seen.borrow_mut().extend(new_edges));
            }
            held.push(id);
        });
    }

    /// `path` is `b -> ... -> h` (already in the graph); the offending
    /// new edge is `h -> b`, witnessed by the current thread's stack.
    fn record_cycle(g: &mut Graph, path: &[u32], held: &[u32], acquiring: u32) {
        let mut canon: Vec<u32> = path.to_vec();
        canon.sort_unstable();
        canon.dedup();
        if !g.reported.insert(canon) {
            return;
        }
        let locks = path
            .iter()
            .map(|&n| g.names[n as usize].to_string())
            .collect();
        let mut chains: Vec<AcquisitionChain> = path
            .windows(2)
            .filter_map(|w| g.edges.get(&(w[0], w[1])).cloned())
            .collect();
        chains.push(current_chain(g, held, acquiring));
        g.cycles.push(LockCycle { locks, chains });
    }

    pub(super) fn on_release(id: u32) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&h| h == id) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn cycles() -> Vec<LockCycle> {
        graph()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cycles
            .clone()
    }

    pub(super) fn names() -> Vec<String> {
        graph()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .names
            .iter()
            .map(|n| n.to_string())
            .collect()
    }
}

/// Snapshot of every lock-order cycle detected so far, process-wide.
/// Cheap when the graph is quiet; empty when `lock-audit` is off.
pub fn lock_cycles() -> Vec<LockCycle> {
    #[cfg(feature = "lock-audit")]
    {
        audit::cycles()
    }
    #[cfg(not(feature = "lock-audit"))]
    {
        Vec::new()
    }
}

/// Names of every audited lock registered so far (empty when the
/// feature is off). Useful for smoke binaries to prove the
/// instrumentation is actually live.
pub fn audited_lock_names() -> Vec<String> {
    #[cfg(feature = "lock-audit")]
    {
        audit::names()
    }
    #[cfg(not(feature = "lock-audit"))]
    {
        Vec::new()
    }
}

/// A `parking_lot::Mutex` that participates in lock-order auditing.
pub struct AuditedMutex<T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    id: u32,
    inner: parking_lot::Mutex<T>,
}

impl<T> AuditedMutex<T> {
    /// Wrap `value` under the audit class `name`. Names are global:
    /// every lock created with the same name shares one graph node.
    pub fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(feature = "lock-audit"))]
        let _ = name;
        AuditedMutex {
            #[cfg(feature = "lock-audit")]
            id: audit::register(name),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> AuditedMutex<T> {
    /// Acquire, recording the acquisition against the holder's stack
    /// before blocking (so a live deadlock still produces a report).
    pub fn lock(&self) -> AuditedMutexGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        audit::on_acquire(self.id);
        AuditedMutexGuard {
            #[cfg(feature = "lock-audit")]
            id: self.id,
            inner: self.inner.lock(),
        }
    }

    /// Non-blocking acquire; recorded like `lock` only on success, so a
    /// failed try leaves no edge (try-lock cannot deadlock by itself,
    /// but the order it implies on success is still audited).
    pub fn try_lock(&self) -> Option<AuditedMutexGuard<'_, T>> {
        let inner = self.inner.try_lock()?;
        #[cfg(feature = "lock-audit")]
        audit::on_acquire(self.id);
        Some(AuditedMutexGuard {
            #[cfg(feature = "lock-audit")]
            id: self.id,
            inner,
        })
    }

    /// Direct access through `&mut self` — no locking, no audit.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: Default> Default for AuditedMutex<T> {
    fn default() -> Self {
        AuditedMutex::new("core.unnamed", T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for AuditedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditedMutex").finish_non_exhaustive()
    }
}

/// Guard for [`AuditedMutex`]; releases the audit stack entry on drop.
pub struct AuditedMutexGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    id: u32,
    inner: parking_lot::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for AuditedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for AuditedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lock-audit")]
impl<T: ?Sized> Drop for AuditedMutexGuard<'_, T> {
    fn drop(&mut self) {
        audit::on_release(self.id);
    }
}

/// A `parking_lot::RwLock` that participates in lock-order auditing.
/// Read and write acquisitions share one graph node: reader/writer
/// upgrades are not modeled, only inter-lock order.
pub struct AuditedRwLock<T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    id: u32,
    inner: parking_lot::RwLock<T>,
}

impl<T> AuditedRwLock<T> {
    /// Wrap `value` under the audit class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        #[cfg(not(feature = "lock-audit"))]
        let _ = name;
        AuditedRwLock {
            #[cfg(feature = "lock-audit")]
            id: audit::register(name),
            inner: parking_lot::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> AuditedRwLock<T> {
    /// Shared acquire; audited like a mutex acquisition.
    pub fn read(&self) -> AuditedReadGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        audit::on_acquire(self.id);
        AuditedReadGuard {
            #[cfg(feature = "lock-audit")]
            id: self.id,
            inner: self.inner.read(),
        }
    }

    /// Exclusive acquire; audited like a mutex acquisition.
    pub fn write(&self) -> AuditedWriteGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        audit::on_acquire(self.id);
        AuditedWriteGuard {
            #[cfg(feature = "lock-audit")]
            id: self.id,
            inner: self.inner.write(),
        }
    }

    /// Direct access through `&mut self` — no locking, no audit.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for AuditedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditedRwLock").finish_non_exhaustive()
    }
}

/// Shared guard for [`AuditedRwLock`].
pub struct AuditedReadGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    id: u32,
    inner: parking_lot::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for AuditedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

#[cfg(feature = "lock-audit")]
impl<T: ?Sized> Drop for AuditedReadGuard<'_, T> {
    fn drop(&mut self) {
        audit::on_release(self.id);
    }
}

/// Exclusive guard for [`AuditedRwLock`].
pub struct AuditedWriteGuard<'a, T: ?Sized> {
    #[cfg(feature = "lock-audit")]
    id: u32,
    inner: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for AuditedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for AuditedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lock-audit")]
impl<T: ?Sized> Drop for AuditedWriteGuard<'_, T> {
    fn drop(&mut self) {
        audit::on_release(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_lock_name_is_stable_per_unique_name() {
        let a = intern_lock_name("coretest.intern.shard0");
        let b = intern_lock_name("coretest.intern.shard0");
        let c = intern_lock_name("coretest.intern.shard1");
        assert!(std::ptr::eq(a, b), "same name must intern to one leak");
        assert_ne!(a, c);
        // The interned name is usable as an audited lock class.
        let m = AuditedMutex::new(a, 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn wrapper_behaves_like_a_mutex() {
        let m = AuditedMutex::new("coretest.plain", 7u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 8);
        assert!(m.try_lock().is_some());
        let rw = AuditedRwLock::new("coretest.plain_rw", vec![1, 2]);
        assert_eq!(rw.read().len(), 2);
        rw.write().push(3);
        assert_eq!(rw.into_inner(), vec![1, 2, 3]);
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn nested_acquisitions_in_one_order_are_clean() {
        let a = AuditedMutex::new("coretest.clean_a", ());
        let b = AuditedMutex::new("coretest.clean_b", ());
        for _ in 0..3 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        assert!(
            lock_cycles()
                .iter()
                .all(|c| !c.involves("coretest.clean_a")),
            "consistent a -> b nesting must not report a cycle"
        );
    }

    /// The negative test the issue demands: a synthetic inverted
    /// acquisition order is reported as a cycle naming both chains.
    #[cfg(feature = "lock-audit")]
    #[test]
    fn inverted_acquisition_order_reports_cycle_with_both_chains() {
        let a = AuditedMutex::new("negtest.alpha", ());
        let b = AuditedMutex::new("negtest.beta", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let cycles: Vec<LockCycle> = lock_cycles()
            .into_iter()
            .filter(|c| c.involves("negtest.alpha"))
            .collect();
        assert_eq!(cycles.len(), 1, "exactly one deduped cycle for the pair");
        let c = &cycles[0];
        assert!(c.involves("negtest.alpha") && c.involves("negtest.beta"));
        assert_eq!(c.chains.len(), 2, "both offending chains are reported");
        let rendered = c.to_string();
        assert!(
            rendered.contains("holding [negtest.alpha] acquired `negtest.beta`"),
            "first chain named: {rendered}"
        );
        assert!(
            rendered.contains("holding [negtest.beta] acquired `negtest.alpha`"),
            "second chain named: {rendered}"
        );
        // Re-running the inversion must not duplicate the report.
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
        let again = lock_cycles()
            .into_iter()
            .filter(|c| c.involves("negtest.alpha"))
            .count();
        assert_eq!(again, 1);
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn three_lock_cycle_reports_every_chain() {
        let a = AuditedMutex::new("negtest3.a", ());
        let b = AuditedMutex::new("negtest3.b", ());
        let c = AuditedMutex::new("negtest3.c", ());
        {
            let _g1 = a.lock();
            let _g2 = b.lock();
        }
        {
            let _g1 = b.lock();
            let _g2 = c.lock();
        }
        {
            let _g1 = c.lock();
            let _g2 = a.lock();
        }
        let cycles: Vec<LockCycle> = lock_cycles()
            .into_iter()
            .filter(|cy| cy.involves("negtest3.a"))
            .collect();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].locks.len(), 3);
        assert_eq!(cycles[0].chains.len(), 3);
        assert!(cycles[0].within_prefixes(&["negtest3."]));
    }

    #[cfg(feature = "lock-audit")]
    #[test]
    fn rwlock_orders_fold_into_the_same_graph() {
        let m = AuditedMutex::new("negtestrw.m", ());
        let rw = AuditedRwLock::new("negtestrw.rw", ());
        {
            let _g1 = m.lock();
            let _g2 = rw.read();
        }
        {
            let _g1 = rw.write();
            let _g2 = m.lock();
        }
        assert_eq!(
            lock_cycles()
                .into_iter()
                .filter(|c| c.involves("negtestrw.m"))
                .count(),
            1
        );
    }
}
