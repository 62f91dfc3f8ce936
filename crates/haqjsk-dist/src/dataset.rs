//! Content-hash-deduplicated dataset shipping and the bounded worker store.
//!
//! A worker must hold the dataset before it can evaluate tiles over it, but
//! re-fitting with overlapping datasets (cross-validation folds, appended
//! streams, repeated serving requests) would make naive re-shipping the
//! dominant cost. Shipping is therefore two-phase and content-addressed by
//! the engine's structural graph hash ([`haqjsk_engine::graph_key`]):
//!
//! 1. `dataset_begin` announces the dataset id plus the *ordered* key list;
//!    the worker answers with the indices it does **not** already hold in
//!    its graph store,
//! 2. `dataset_graphs` ships only those graphs (chunked), and
//!    `dataset_commit` verifies the ordered key list is fully resident.
//!
//! The dataset id is itself a digest of the ordered key list, so the same
//! dataset is committed once and instantly reusable, and two datasets that
//! share graphs share the underlying store entries. The worker verifies
//! every received graph against its announced key — a corrupted or
//! misordered shipment is rejected instead of silently computing a wrong
//! Gram matrix.
//!
//! ## Bounded residency
//!
//! The store reuses the budgeted-LRU machinery of the engine's feature
//! caches ([`LruList`], [`parse_byte_size`]): a byte budget
//! (`HAQJSK_WORKER_STORE_BUDGET`) bounds resident graphs, evicting the
//! least recently used evictable graph first. Two protections keep
//! eviction safe under concurrency with tile evaluation:
//!
//! * **Pinning** — [`GraphStore::pin_dataset`] materialises a dataset and
//!   pins every one of its graphs; a pinned graph is never evicted, so a
//!   tile mid-Gram cannot lose its inputs.
//! * **Shipment protection** — between `begin` and `commit`, every key of
//!   an in-flight dataset is refcount-protected so a concurrent insert
//!   cannot evict what was just confirmed resident (which would livelock
//!   the re-ship loop).
//!
//! When a tile arrives for a dataset whose graphs *were* evicted, the pin
//! fails with the missing dataset indices and the worker answers a
//! `store_miss` — a recoverable signal the coordinator converts into a
//! targeted re-ship, never a worker death.

use crate::wire;
use haqjsk_engine::{graph_key, parse_byte_size, GraphKey, LruList};
use haqjsk_graph::Graph;
use std::collections::HashMap;
use std::sync::Arc;

/// Graphs shipped per `dataset_graphs` message: large enough to amortise
/// the per-line round trip, small enough to keep single lines bounded.
pub const SHIP_CHUNK: usize = 64;

/// Environment variable bounding a worker's resident graph bytes
/// (`parse_byte_size` syntax: `"64m"`, `"1g"`, ...). Unset = unbounded.
pub const WORKER_STORE_BUDGET_ENV_VAR: &str = "HAQJSK_WORKER_STORE_BUDGET";

/// The structural keys of a dataset, in dataset order.
pub fn dataset_keys(graphs: &[Graph]) -> Vec<GraphKey> {
    graphs.iter().map(graph_key).collect()
}

/// The dataset id: an FNV-1a digest of the ordered key list, in hex.
/// Order-sensitive by design — tile index pairs refer to positions.
pub fn dataset_id(keys: &[GraphKey]) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut state = OFFSET;
    for key in keys {
        for byte in key.0.to_le_bytes() {
            state ^= byte as u128;
            state = state.wrapping_mul(PRIME);
        }
    }
    format!("{state:032x}")
}

/// Approximate heap bytes of a stored graph (adjacency sets + labels).
fn graph_weight(graph: &Graph) -> usize {
    // BTreeSet node overhead is ~3 words per element; adjacency stores
    // each edge twice. Labels are one usize per vertex when present.
    let n = graph.num_vertices();
    let m = graph.num_edges();
    std::mem::size_of::<Graph>()
        + n * 48
        + 2 * m * 3 * std::mem::size_of::<usize>()
        + graph.labels().map_or(0, |l| l.len() * 8)
}

/// The byte budget of a [`GraphStore`], its only setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreConfig {
    /// Byte budget over resident graphs; `None` = unbounded.
    pub budget_bytes: Option<usize>,
}

impl StoreConfig {
    /// Reads [`WORKER_STORE_BUDGET_ENV_VAR`] (unset = unbounded).
    pub fn from_env() -> StoreConfig {
        StoreConfig {
            budget_bytes: std::env::var(WORKER_STORE_BUDGET_ENV_VAR)
                .ok()
                .and_then(|raw| parse_byte_size(&raw)),
        }
    }
}

/// Point-in-time counters of a [`GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Distinct graphs resident right now.
    pub num_graphs: usize,
    /// Committed datasets (key lists; their graphs may be partly evicted).
    pub num_datasets: usize,
    /// Estimated bytes of resident graphs.
    pub resident_bytes: usize,
    /// Graphs evicted under budget pressure since startup.
    pub evictions: u64,
    /// Tile pins that failed because graphs had been evicted.
    pub pin_misses: u64,
}

struct StoredGraph {
    graph: Graph,
    weight: usize,
    node: usize,
    pins: usize,
}

/// The worker-side graph store: resident graphs keyed by structural hash,
/// committed datasets as ordered key lists, and the budget machinery that
/// bounds residency (see the module docs).
#[derive(Default)]
pub struct GraphStore {
    config: StoreConfig,
    graphs: HashMap<GraphKey, StoredGraph>,
    lru: LruList,
    resident_bytes: usize,
    evictions: u64,
    pin_misses: u64,
    /// Committed datasets: ordered key lists (not materialised vectors, so
    /// a committed dataset does not itself pin bytes).
    datasets: HashMap<String, Arc<Vec<GraphKey>>>,
    /// Datasets mid-shipment (begin seen, commit not yet).
    pending: HashMap<String, Vec<GraphKey>>,
    /// Refcounts protecting keys of in-flight shipments from eviction.
    protected: HashMap<GraphKey, usize>,
    /// Materialised, pinned datasets currently used by tile evaluation.
    active: HashMap<String, (Arc<Vec<Graph>>, usize)>,
}

impl GraphStore {
    /// An empty store with the given budget.
    pub fn new(config: StoreConfig) -> GraphStore {
        GraphStore {
            config,
            ..GraphStore::default()
        }
    }

    /// An empty store configured from the environment.
    pub fn from_env() -> GraphStore {
        GraphStore::new(StoreConfig::from_env())
    }

    /// Starts (or restarts) assembly of `dataset` with the announced key
    /// list; returns the indices of keys not currently resident. All
    /// announced keys are protected from eviction until commit.
    pub fn begin(&mut self, dataset: &str, keys: Vec<GraphKey>) -> Vec<usize> {
        if let Some(old) = self.pending.remove(dataset) {
            self.unprotect(&old);
        }
        let missing = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| !self.graphs.contains_key(k))
            .map(|(i, _)| i)
            .collect();
        for &key in &keys {
            *self.protected.entry(key).or_insert(0) += 1;
        }
        self.pending.insert(dataset.to_string(), keys);
        missing
    }

    fn unprotect(&mut self, keys: &[GraphKey]) {
        for key in keys {
            if let Some(count) = self.protected.get_mut(key) {
                *count -= 1;
                if *count == 0 {
                    self.protected.remove(key);
                }
            }
        }
    }

    /// Stores shipped graphs, verifying each against the key announced for
    /// its dataset position, and enforces the byte budget.
    pub fn insert_graphs(
        &mut self,
        dataset: &str,
        indices: &[usize],
        graphs: Vec<Graph>,
    ) -> Result<usize, String> {
        let keys = self
            .pending
            .get(dataset)
            .ok_or_else(|| format!("dataset '{dataset}' has no pending begin"))?;
        if indices.len() != graphs.len() {
            return Err(format!(
                "{} indices for {} graphs",
                indices.len(),
                graphs.len()
            ));
        }
        let mut expected_keys = Vec::with_capacity(indices.len());
        for &i in indices {
            expected_keys.push(
                *keys
                    .get(i)
                    .ok_or_else(|| format!("graph index {i} out of range"))?,
            );
        }
        let mut stored = 0;
        for ((&i, graph), expected) in indices.iter().zip(graphs).zip(expected_keys) {
            let actual = graph_key(&graph);
            if actual != expected {
                return Err(format!(
                    "graph at index {i} hashes to {} but was announced as {}",
                    wire::key_hex(actual),
                    wire::key_hex(expected)
                ));
            }
            if self.insert_graph(expected, graph) {
                stored += 1;
            }
        }
        self.enforce_budget();
        Ok(stored)
    }

    /// Stores one verified graph; `true` when it was new. Always admitted
    /// (shipped graphs are protected); pressure is relieved by evicting
    /// older unprotected entries in [`GraphStore::enforce_budget`].
    fn insert_graph(&mut self, key: GraphKey, graph: Graph) -> bool {
        if let Some(entry) = self.graphs.get(&key) {
            self.lru.touch(entry.node);
            return false;
        }
        let weight = graph_weight(&graph);
        let node = self.lru.push_front(key);
        self.resident_bytes += weight;
        self.graphs.insert(
            key,
            StoredGraph {
                graph,
                weight,
                node,
                pins: 0,
            },
        );
        true
    }

    /// Evicts unpinned, unprotected graphs from the cold end until the
    /// store fits its budget (or nothing more is evictable — a pinned
    /// working set larger than the budget stays resident; the budget is
    /// best-effort by design).
    fn enforce_budget(&mut self) {
        let Some(budget) = self.config.budget_bytes else {
            return;
        };
        while self.resident_bytes > budget {
            match self.pick_victim() {
                Some(key) => self.evict_key(key),
                None => break,
            }
        }
    }

    /// The next eviction victim: the least recently used graph that is
    /// neither pinned nor protected.
    fn pick_victim(&self) -> Option<GraphKey> {
        let mut cursor = self.lru.tail_idx();
        while let Some(idx) = cursor {
            let key = self.lru.key_at(idx);
            if !self.protected.contains_key(&key)
                && self.graphs.get(&key).is_some_and(|e| e.pins == 0)
            {
                return Some(key);
            }
            cursor = self.lru.toward_head(idx);
        }
        None
    }

    /// Evicts `key` unconditionally (callers check pins/protection).
    fn evict_key(&mut self, key: GraphKey) {
        if let Some(entry) = self.graphs.remove(&key) {
            self.lru.remove(entry.node);
            self.resident_bytes -= entry.weight;
            self.evictions += 1;
        }
    }

    /// Verifies every announced key of `dataset` is resident and commits
    /// the ordered key list; idempotent per dataset id. Returns the
    /// dataset's length.
    pub fn commit(&mut self, dataset: &str) -> Result<usize, String> {
        let keys = match self.pending.remove(dataset) {
            Some(keys) => {
                self.unprotect(&keys);
                Arc::new(keys)
            }
            None => self
                .datasets
                .get(dataset)
                .cloned()
                .ok_or_else(|| format!("dataset '{dataset}' has no pending begin"))?,
        };
        for (i, key) in keys.iter().enumerate() {
            if !self.graphs.contains_key(key) {
                return Err(format!(
                    "dataset '{dataset}' commit with graph {i} never shipped"
                ));
            }
        }
        let len = keys.len();
        self.datasets.insert(dataset.to_string(), keys);
        Ok(len)
    }

    /// Materialises and pins `dataset` for tile evaluation: every graph is
    /// refcount-pinned against eviction until the matching
    /// [`GraphStore::unpin_dataset`]. `Err` carries the dataset indices of
    /// evicted graphs (a `store_miss` in wire terms); an unknown dataset id
    /// reports every index missing.
    pub fn pin_dataset(&mut self, dataset: &str) -> Result<Arc<Vec<Graph>>, Vec<usize>> {
        if let Some((graphs, pins)) = self.active.get_mut(dataset) {
            *pins += 1;
            return Ok(Arc::clone(graphs));
        }
        let Some(keys) = self.datasets.get(dataset).cloned() else {
            self.pin_misses += 1;
            return Err(Vec::new());
        };
        let missing: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| !self.graphs.contains_key(k))
            .map(|(i, _)| i)
            .collect();
        if !missing.is_empty() {
            self.pin_misses += 1;
            return Err(missing);
        }
        let mut graphs = Vec::with_capacity(keys.len());
        for key in keys.iter() {
            let entry = self.graphs.get_mut(key).expect("checked resident above");
            entry.pins += 1;
            graphs.push(entry.graph.clone());
            let node = entry.node;
            self.lru.touch(node);
        }
        let graphs = Arc::new(graphs);
        self.active
            .insert(dataset.to_string(), (Arc::clone(&graphs), 1));
        Ok(graphs)
    }

    /// Releases one [`GraphStore::pin_dataset`]; at zero the dataset's
    /// graphs become evictable again.
    pub fn unpin_dataset(&mut self, dataset: &str) {
        let Some((_, pins)) = self.active.get_mut(dataset) else {
            return;
        };
        *pins -= 1;
        if *pins > 0 {
            return;
        }
        self.active.remove(dataset);
        if let Some(keys) = self.datasets.get(dataset).cloned() {
            for key in keys.iter() {
                if let Some(entry) = self.graphs.get_mut(key) {
                    entry.pins = entry.pins.saturating_sub(1);
                }
            }
        }
        self.enforce_budget();
    }

    /// Chaos hook: evicts one unpinned, unprotected graph of `dataset` and
    /// returns its dataset index — the worker then answers a genuine
    /// `store_miss` exercising the real recovery path. `None` when nothing
    /// is evictable (the chaos draw falls through to no fault).
    pub fn forget_one(&mut self, dataset: &str) -> Option<usize> {
        let keys = self.datasets.get(dataset).cloned()?;
        let (index, key) = keys.iter().enumerate().find(|(_, k)| {
            !self.protected.contains_key(k) && self.graphs.get(k).is_some_and(|e| e.pins == 0)
        })?;
        let key = *key;
        self.evict_key(key);
        Some(index)
    }

    /// Distinct graphs resident in the store.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// Committed datasets.
    pub fn num_datasets(&self) -> usize {
        self.datasets.len()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            num_graphs: self.graphs.len(),
            num_datasets: self.datasets.len(),
            resident_bytes: self.resident_bytes,
            evictions: self.evictions,
            pin_misses: self.pin_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haqjsk_graph::generators::{cycle_graph, path_graph, star_graph};

    fn ship(store: &mut GraphStore, graphs: &[Graph]) -> String {
        let keys = dataset_keys(graphs);
        let id = dataset_id(&keys);
        let missing = store.begin(&id, keys);
        let shipped: Vec<Graph> = missing.iter().map(|&i| graphs[i].clone()).collect();
        store.insert_graphs(&id, &missing, shipped).unwrap();
        store.commit(&id).unwrap();
        id
    }

    #[test]
    fn dataset_id_is_order_sensitive_and_stable() {
        let a = dataset_keys(&[path_graph(4), cycle_graph(5)]);
        let b = dataset_keys(&[cycle_graph(5), path_graph(4)]);
        assert_eq!(dataset_id(&a), dataset_id(&a));
        assert_ne!(dataset_id(&a), dataset_id(&b));
        assert_eq!(dataset_id(&a).len(), 32);
    }

    #[test]
    fn shipping_dedups_and_verifies() {
        let graphs = vec![path_graph(4), cycle_graph(5), star_graph(6)];
        let keys = dataset_keys(&graphs);
        let id = dataset_id(&keys);
        let mut store = GraphStore::default();

        assert_eq!(store.begin(&id, keys.clone()), vec![0, 1, 2]);
        store
            .insert_graphs(&id, &[0, 1, 2], graphs.clone())
            .unwrap();
        assert_eq!(store.commit(&id).unwrap(), 3);
        let pinned = store.pin_dataset(&id).unwrap();
        assert_eq!(pinned.as_slice(), graphs.as_slice());
        store.unpin_dataset(&id);

        // A second dataset sharing two graphs only needs the new one.
        let graphs2 = vec![cycle_graph(5), star_graph(6), path_graph(9)];
        let keys2 = dataset_keys(&graphs2);
        let id2 = dataset_id(&keys2);
        assert_eq!(store.begin(&id2, keys2), vec![2]);
        store
            .insert_graphs(&id2, &[2], vec![path_graph(9)])
            .unwrap();
        assert_eq!(store.commit(&id2).unwrap(), 3);
        assert_eq!(
            store.pin_dataset(&id2).unwrap().as_slice(),
            graphs2.as_slice()
        );
        store.unpin_dataset(&id2);
        assert_eq!(store.num_graphs(), 4);
        assert_eq!(store.num_datasets(), 2);

        // Re-beginning a committed dataset ships nothing.
        let keys = dataset_keys(&graphs);
        assert_eq!(store.begin(&id, keys), Vec::<usize>::new());
        assert!(store.commit(&id).is_ok());
    }

    #[test]
    fn mismatched_graphs_are_rejected() {
        let graphs = vec![path_graph(4), cycle_graph(5)];
        let keys = dataset_keys(&graphs);
        let id = dataset_id(&keys);
        let mut store = GraphStore::default();
        store.begin(&id, keys);
        // Shipping the wrong graph for index 0 must fail loudly.
        let err = store
            .insert_graphs(&id, &[0], vec![star_graph(7)])
            .unwrap_err();
        assert!(err.contains("hashes to"), "{err}");
        // Committing with a hole must fail too.
        assert!(store.commit(&id).is_err());
    }

    #[test]
    fn budget_evicts_cold_graphs_but_commits_still_succeed() {
        let mut store = GraphStore::new(StoreConfig {
            budget_bytes: Some(2048),
        });
        // Ship several datasets; the tiny budget forces evictions, but
        // each in-flight shipment is protected so its commit succeeds.
        let mut ids = Vec::new();
        for n in 4..12 {
            ids.push(ship(&mut store, &[path_graph(n), cycle_graph(n + 1)]));
        }
        let stats = store.stats();
        assert!(stats.evictions > 0, "budget never bit: {stats:?}");
        assert!(stats.num_datasets == ids.len());
        // The latest dataset can still pin; the earliest cannot (evicted)
        // and reports which indices to re-ship.
        assert!(store.pin_dataset(ids.last().unwrap()).is_ok());
        store.unpin_dataset(ids.last().unwrap());
        let missing = store.pin_dataset(&ids[0]).unwrap_err();
        assert!(!missing.is_empty());
        assert!(store.stats().pin_misses >= 1);
        // Re-shipping exactly the missing graphs repairs the dataset.
        let graphs = [path_graph(4), cycle_graph(5)];
        let keys = dataset_keys(&graphs);
        let reship = store.begin(&ids[0], keys);
        assert_eq!(reship, missing);
        let shipped: Vec<Graph> = reship.iter().map(|&i| graphs[i].clone()).collect();
        store.insert_graphs(&ids[0], &reship, shipped).unwrap();
        store.commit(&ids[0]).unwrap();
        assert_eq!(
            store.pin_dataset(&ids[0]).unwrap().as_slice(),
            graphs.as_slice()
        );
        store.unpin_dataset(&ids[0]);
    }

    #[test]
    fn pinned_datasets_survive_budget_pressure() {
        let mut store = GraphStore::new(StoreConfig {
            budget_bytes: Some(1), // everything is over budget
        });
        let graphs = [path_graph(5), star_graph(6)];
        let id = ship(&mut store, &graphs);
        let pinned = store.pin_dataset(&id).unwrap();
        // Budget pressure from another shipment cannot evict pinned graphs.
        ship(&mut store, &[cycle_graph(8)]);
        assert_eq!(pinned.as_slice(), graphs.as_slice());
        assert!(store.pin_dataset(&id).is_ok());
        store.unpin_dataset(&id);
        store.unpin_dataset(&id);
        // Once unpinned, the budget reclaims them.
        assert!(store.pin_dataset(&id).is_err());
    }

    #[test]
    fn forget_one_fakes_a_recoverable_miss() {
        let mut store = GraphStore::default();
        let graphs = [path_graph(4), cycle_graph(5)];
        let id = ship(&mut store, &graphs);
        let index = store.forget_one(&id).unwrap();
        let missing = store.pin_dataset(&id).unwrap_err();
        assert_eq!(missing, vec![index]);
        // Pinned graphs cannot be forgotten.
        let id2 = ship(&mut store, &[star_graph(6)]);
        let _pinned = store.pin_dataset(&id2).unwrap();
        assert_eq!(store.forget_one(&id2), None);
        store.unpin_dataset(&id2);
    }

    #[test]
    fn lru_keeps_a_re_pinned_graph_over_colder_ones() {
        // Room for the hot graph and two of the largest cold graphs.
        let hot = path_graph(6);
        let budget = graph_weight(&hot) + 2 * graph_weight(&cycle_graph(9));
        let mut store = GraphStore::new(StoreConfig {
            budget_bytes: Some(budget),
        });
        let hot_id = ship(&mut store, &[hot]);
        // Shipped just after the hot graph but never used again.
        let idle_id = ship(&mut store, &[star_graph(5)]);
        let mut cold_ids = Vec::new();
        for n in 4..10 {
            // Pinning for a tile moves the hot graph to the LRU head, so
            // each shipment's budget pressure reaches it last.
            assert!(store.pin_dataset(&hot_id).is_ok(), "hot graph evicted");
            store.unpin_dataset(&hot_id);
            cold_ids.push(ship(&mut store, &[cycle_graph(n)]));
        }
        assert!(store.stats().evictions > 0);
        assert!(store.pin_dataset(&hot_id).is_ok(), "hot graph evicted");
        store.unpin_dataset(&hot_id);
        assert!(store.pin_dataset(&idle_id).is_err(), "idle graph survived");
        assert!(store.pin_dataset(&cold_ids[0]).is_err(), "oldest survived");
    }

    #[test]
    fn store_config_reads_env_syntax() {
        // parse_byte_size integration, not env mutation (process-global).
        assert_eq!(parse_byte_size("64k"), Some(64 << 10));
        let config = StoreConfig::default();
        assert_eq!(config.budget_bytes, None);
    }
}
