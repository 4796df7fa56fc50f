//! Seeded update streams the coalescer cannot erase.
//!
//! No batch undoes one that could still be queued: every edge delete
//! targets an edge never touched before, a restore only brings back an
//! edge whose delete has already been answered, and a leave only removes
//! a joiner whose join has already been answered. Backlog therefore
//! merges work but never cancels it. Batch contents depend on the seed
//! alone, never on timing, so one seed always offers the same batches.

use crate::gen::unit;
use gpar_graph::{DeltaGraph, Graph, GraphUpdate, Label, NodeId};
use gpar_serve::UpdateReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// A leave or restore reaches back at least this many batches, so the
/// batch it depends on has normally been answered long before: 64 ms
/// back at `read_hot`'s 250 batches/s, 0.7 s at `write_churn`'s 23. Each
/// round's stream starts empty, so a longer lag would leave a round's
/// first batches with nothing to remove.
const LAG: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UpdateKind {
    /// A new user following, and followed by, two low-degree users.
    JoinSmall,
    /// A new user following a hub.
    JoinHub,
    /// An earlier joiner leaves (node removal).
    Leave,
    /// One organic follow edge deleted, one earlier-deleted edge restored.
    EdgeChurn,
    /// Two new users who follow only each other.
    PairJoin,
    /// An earlier pair leaves.
    PairLeave,
}

impl UpdateKind {
    pub const CHURN: [UpdateKind; 4] =
        [UpdateKind::JoinSmall, UpdateKind::JoinHub, UpdateKind::Leave, UpdateKind::EdgeChurn];

    pub fn name(self) -> &'static str {
        match self {
            UpdateKind::JoinSmall => "join_small",
            UpdateKind::JoinHub => "join_hub",
            UpdateKind::Leave => "leave",
            UpdateKind::EdgeChurn => "edge_churn",
            UpdateKind::PairJoin => "pair_join",
            UpdateKind::PairLeave => "pair_leave",
        }
    }
}

/// Which batches a stream draws.
#[derive(Clone, Copy)]
pub enum Mix {
    /// 35% small joins, 15% hub joins, 25% leaves, 25% edge churn.
    Churn,
    /// 70% pair joins, 30% pair leaves: updates that reach no existing
    /// node, so they cost the write pipeline's fixed per-publish work.
    Pairs,
}

pub struct UpdateStream {
    rng: StdRng,
    mix: Mix,
    user: Label,
    follow: Label,
    next_id: u32,
    small: Vec<NodeId>,
    hubs: Vec<NodeId>,
    fresh_edges: Vec<(NodeId, NodeId, Label)>,
    joined: VecDeque<(usize, Vec<NodeId>)>,
    deleted: VecDeque<(usize, (NodeId, NodeId, Label))>,
    batches: Vec<(UpdateKind, GraphUpdate, Vec<NodeId>)>,
    confirmed: Vec<bool>,
}

impl UpdateStream {
    /// A stream over `g` (the graph the engine serves before any update),
    /// whose users carry label `user` and follow each other by `follow`.
    pub fn new(
        g: &Graph,
        users: &[NodeId],
        user: Label,
        follow: Label,
        mix: Mix,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_EED0_F0BD_A7E5);
        let mut by_degree = users.to_vec();
        by_degree.sort_by_key(|&v| (g.degree(v), v));
        let small = by_degree[..by_degree.len() / 2].to_vec();
        let hubs = by_degree[by_degree.len() - 16.min(by_degree.len())..].to_vec();
        let mut fresh_edges: Vec<(NodeId, NodeId, Label)> = users
            .iter()
            .flat_map(|&v| {
                g.out_edges(v)
                    .iter()
                    .filter(|e| e.label == follow)
                    .map(move |e| (v, e.node, e.label))
            })
            .collect();
        for i in (1..fresh_edges.len()).rev() {
            fresh_edges.swap(i, rng.gen_range(0..=i));
        }
        Self {
            rng,
            mix,
            user,
            follow,
            next_id: g.node_count() as u32,
            small,
            hubs,
            fresh_edges,
            joined: VecDeque::new(),
            deleted: VecDeque::new(),
            batches: Vec::new(),
            confirmed: Vec::new(),
        }
    }

    /// The next batch of the stream's mix: `(kind, batch, needs, index)`,
    /// where `needs` names an earlier batch that must be answered before
    /// this one is sent.
    pub fn next_batch(&mut self) -> (UpdateKind, GraphUpdate, Option<usize>, usize) {
        let u = unit(&mut self.rng);
        let kind = match self.mix {
            Mix::Churn if u < 0.35 => UpdateKind::JoinSmall,
            Mix::Churn if u < 0.50 => UpdateKind::JoinHub,
            Mix::Churn if u < 0.75 => UpdateKind::Leave,
            Mix::Churn => UpdateKind::EdgeChurn,
            Mix::Pairs if u < 0.7 => UpdateKind::PairJoin,
            Mix::Pairs => UpdateKind::PairLeave,
        };
        self.batch_of(kind, LAG)
    }

    /// A batch of `kind`; leaves and restores reach back at least `lag`
    /// batches (a leave with no joiner that old becomes a join).
    pub fn batch_of(
        &mut self,
        kind: UpdateKind,
        lag: usize,
    ) -> (UpdateKind, GraphUpdate, Option<usize>, usize) {
        let index = self.batches.len();
        let ripe = |from: usize| from + lag <= index;
        let mut needs = None;
        let mut assigned = Vec::new();
        let mut batch = GraphUpdate::default();
        let kind = match kind {
            UpdateKind::Leave | UpdateKind::PairLeave
                if !self.joined.front().is_some_and(|&(j, _)| ripe(j)) =>
            {
                if kind == UpdateKind::Leave {
                    UpdateKind::JoinSmall
                } else {
                    UpdateKind::PairJoin
                }
            }
            k => k,
        };
        match kind {
            UpdateKind::JoinSmall => {
                let v = self.append(&mut batch, &mut assigned);
                let a = self.small[self.rng.gen_range(0..self.small.len())];
                let b = self.small[self.rng.gen_range(0..self.small.len())];
                batch.new_edges = vec![(v, a, self.follow), (b, v, self.follow)];
                self.joined.push_back((index, vec![v]));
            }
            UpdateKind::JoinHub => {
                let v = self.append(&mut batch, &mut assigned);
                let h = self.hubs[self.rng.gen_range(0..self.hubs.len())];
                batch.new_edges = vec![(v, h, self.follow)];
                self.joined.push_back((index, vec![v]));
            }
            UpdateKind::PairJoin => {
                let a = self.append(&mut batch, &mut assigned);
                let b = self.append(&mut batch, &mut assigned);
                batch.new_edges = vec![(a, b, self.follow), (b, a, self.follow)];
                self.joined.push_back((index, vec![a, b]));
            }
            UpdateKind::Leave | UpdateKind::PairLeave => {
                let (j, nodes) = self.joined.pop_front().expect("a ripe joiner exists");
                batch.del_nodes = nodes;
                needs = Some(j);
            }
            UpdateKind::EdgeChurn => {
                let e = self.fresh_edges.pop().expect("the graph has follow edges left to delete");
                batch.del_edges = vec![e];
                if self.deleted.front().is_some_and(|&(j, _)| ripe(j)) {
                    let (j, back) = self.deleted.pop_front().expect("checked non-empty");
                    batch.new_edges = vec![back];
                    needs = Some(j);
                }
                self.deleted.push_back((index, e));
            }
        }
        self.batches.push((kind, batch.clone(), assigned));
        self.confirmed.push(false);
        (kind, batch, needs, index)
    }

    fn append(&mut self, batch: &mut GraphUpdate, assigned: &mut Vec<NodeId>) -> NodeId {
        let v = NodeId(self.next_id);
        self.next_id += 1;
        batch.new_nodes.push(self.user);
        assigned.push(v);
        v
    }

    /// Records the engine's answer to batch `index`; false when the
    /// engine assigned other ids than sequential application would.
    pub fn confirm(&mut self, index: usize, report: &UpdateReport) -> bool {
        self.confirmed[index] = true;
        report.assigned == self.batches[index].2
    }

    /// Batches sent so far, in order, with their kinds.
    pub fn batches(&self) -> impl Iterator<Item = (UpdateKind, &GraphUpdate)> {
        self.batches.iter().map(|(k, b, _)| (*k, b))
    }

    /// Whether every batch sent was answered.
    pub fn all_confirmed(&self) -> bool {
        self.confirmed.iter().all(|&c| c)
    }

    /// The graph the engine should serve after every batch: `base` with
    /// each batch applied in order on a standalone overlay.
    pub fn rebuild(&self, base: &Arc<Graph>) -> DeltaGraph {
        let mut g = DeltaGraph::new(base.clone());
        for (_, b, _) in &self.batches {
            g.apply(b);
        }
        g
    }
}
