//! Answers under concurrency equal the oracle **at the epoch they stamp**:
//! while one writer applies random update batches (edge inserts and
//! deletions, node removals, new nodes, relabels), reader threads issue
//! full and candidate-subset identifies, and every answer must equal
//! one-shot [`gpar::eip::identify`] on the graph rebuilt from exactly the
//! batches published by the answer's epoch — intersected with the
//! requested subset.
//!
//! The writer makes blocking `apply_update` calls and records the
//! published epoch after each one, so epoch `e` maps to the shortest
//! batch prefix that published it (a batch that deduplicates away
//! publishes nothing and leaves the graph unchanged). Auto-compaction is
//! off, so epochs move only with update generations and ids never remap.
//!
//! The default case count is deliberately small; CI's delta-fuzz leg
//! raises it via `PROPTEST_CASES`.

mod delta_fuzz;

use delta_fuzz::{label_universe, predicate_of, Materialized};
use gpar::core::{ConfStats, Gpar};
use gpar::datagen::{generate_rules, synthetic, RuleGenConfig, SyntheticConfig};
use gpar::eip::{identify, EipAlgorithm, EipConfig};
use gpar::graph::{Graph, NodeId};
use gpar::serve::{QueryError, RuleCatalog, ServeConfig, ServeEngine};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const ETA: f64 = 0.5;
const READERS: u32 = 2;
/// Answers the writer waits for between two updates, so every published
/// epoch is read and reads overlap the next generation's build.
const READS_PER_EPOCH: usize = 4;

/// One answer as a reader saw it: stamped epoch, requested subset
/// (`None` = all of `L`), customers.
type Observation = (u64, Option<Vec<NodeId>>, Vec<NodeId>);

/// One-shot EIP customers on a rebuilt (dense-id) graph, translated back
/// into the engine's overlay id space and sorted.
fn oracle(graph: &Graph, fwd: &[Option<NodeId>], sigma: &[Gpar]) -> Vec<NodeId> {
    let cfg = EipConfig { eta: ETA, ..EipConfig::new(EipAlgorithm::Match, 1) };
    let res = identify(graph, sigma, &cfg).expect("Σ is non-empty and shares one predicate");
    let mut back = vec![NodeId(u32::MAX); fwd.len()];
    for (old, new) in fwd.iter().enumerate() {
        if let Some(n) = new {
            back[n.index()] = NodeId(old as u32);
        }
    }
    let mut customers: Vec<NodeId> = res.customers.into_iter().map(|v| back[v.index()]).collect();
    customers.sort_unstable();
    customers
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(5))]

    #[test]
    fn answers_equal_the_oracle_at_their_stamped_epoch(
        seed in 0u64..1_000,
        nodes in 60usize..140,
        rules in 2usize..4,
        batches in collection::vec(
            (
                collection::vec(0u32..64, 0..3),          // new nodes
                collection::vec((0u32..4096, 0u32..4096, 0u32..64), 0..6), // new edges
                collection::vec((0u32..4096, 0u32..64), 0..3),             // relabels
                collection::vec(0u32..4096, 0..4),                         // edge deletions
                collection::vec(0u32..4096, 0..2),                         // node removals
            ),
            1..6,
        ),
    ) {
        let g = synthetic(&SyntheticConfig::sized(nodes, nodes * 2, seed));
        let Some(pred) = predicate_of(&g) else { return };
        let sigma: Vec<Gpar> = generate_rules(&g, &pred, &RuleGenConfig {
            count: rules,
            pattern_nodes: 4,
            pattern_edges: 5,
            max_radius: 2,
            seed,
        });
        if sigma.is_empty() {
            return;
        }
        let mut catalog = RuleCatalog::new(g.vocab().clone());
        for r in &sigma {
            catalog.insert(Arc::new(r.clone()), ConfStats::default());
        }

        // Resolve every batch up front (resolution depends only on the
        // batches before it) and keep the ground truth after each prefix.
        let labels = label_universe(&g);
        let mut truth = Materialized::of(&g);
        let mut prefixes = vec![truth.build()];
        let mut updates = Vec::new();
        for raw in &batches {
            updates.push(truth.resolve_and_apply(raw, &labels));
            prefixes.push(truth.build());
        }
        let id_space = truth.node_labels.len() as u32;

        let engine = ServeEngine::new(Arc::new(g.clone()), &catalog, ServeConfig {
            workers: 2,
            eta: ETA,
            compact_pressure: f64::INFINITY,
            compact_dead_fraction: f64::INFINITY,
            ..Default::default()
        });
        let done = AtomicBool::new(false);
        let reads = AtomicUsize::new(0);
        let (published, observations) = std::thread::scope(|s| {
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (engine, done, reads) = (&engine, &done, &reads);
                    s.spawn(move || {
                        let mut seen: Vec<Observation> = Vec::new();
                        for i in 0u32.. {
                            // Read the flag before querying, so the last
                            // round runs after every publish.
                            // ordering: Acquire pairs with the writer's
                            // Release store after its final update.
                            let finished = done.load(Ordering::Acquire);
                            // Odd rounds ask for a third of the id space,
                            // which also covers ids not yet created or
                            // already removed at the pinned epoch.
                            let subset = (i % 2 == 1).then(|| {
                                (0..id_space).filter(|v| (v + i + r) % 3 == 0).map(NodeId).collect()
                            });
                            match engine.identify(pred, subset.clone()) {
                                Ok(resp) => seen.push((resp.epoch, subset, resp.customers)),
                                // Every rule deactivated at this epoch: no
                                // answer, so no epoch claim to check.
                                Err(QueryError::UnknownPredicate) => {}
                                Err(e) => panic!("reader {r}: identify failed: {e}"),
                            }
                            // ordering: Relaxed — a progress count only; the
                            // answers travel back through `join`.
                            reads.fetch_add(1, Ordering::Relaxed);
                            if finished {
                                break;
                            }
                        }
                        seen
                    })
                })
                .collect();
            let mut published = vec![0u64];
            for update in &updates {
                // ordering: Relaxed — progress count only (see above).
                let target = reads.load(Ordering::Relaxed) + READS_PER_EPOCH;
                while reads.load(Ordering::Relaxed) < target {
                    std::thread::yield_now();
                }
                engine.apply_update(update).expect("update batches are valid by construction");
                published.push(engine.stats().epoch);
            }
            // ordering: Release pairs with the readers' Acquire load.
            done.store(true, Ordering::Release);
            let seen: Vec<Observation> =
                readers.into_iter().flat_map(|h| h.join().expect("reader")).collect();
            (published, seen)
        });

        let mut answers: HashMap<usize, Vec<NodeId>> = HashMap::new();
        for (epoch, subset, customers) in observations {
            let prefix = published
                .iter()
                .position(|&e| e == epoch)
                .expect("an answer's epoch was published by the writer");
            let full = answers.entry(prefix).or_insert_with(|| {
                let (graph, fwd) = &prefixes[prefix];
                oracle(graph, fwd, &sigma)
            });
            let expect: Vec<NodeId> = match &subset {
                None => full.clone(),
                Some(c) => c.iter().copied().filter(|v| full.binary_search(v).is_ok()).collect(),
            };
            prop_assert_eq!(
                &customers,
                &expect,
                "answer at epoch {} (batches 0..{}) diverged from one-shot EIP; subset: {}",
                epoch,
                prefix,
                subset.is_some()
            );
        }
    }
}
