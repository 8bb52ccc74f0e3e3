//! HDFS-like block store for data-locality computation.
//!
//! The Quincy policy expresses data locality through preference arcs: a task
//! gets an arc to a machine or rack holding at least a threshold fraction of
//! its input (§7.2, Fig 15). This block store tracks which machines hold
//! replicas of which blocks and answers "what fraction of this input is
//! local to machine m / rack r".
//!
//! # Layout
//!
//! Block ids are dense: [`BlockStore::place_block`] hands them out counting
//! up from 0. The holders of every block therefore live in one flat vector,
//! block after block, and block `b` is the span that ends at `ends[b]` and
//! starts where block `b - 1`'s ends. No query hashes a block id, and a
//! query allocates a few vectors per call, none per block: the threshold
//! queries gather every holder (or rack) id of the input into one vector,
//! sort it and count its runs. [`BlockStore::remove_machine`] compacts the
//! flat vector in place. Rack queries look each holder up in the machine
//! → rack map.
//!
//! # Counting rules
//!
//! Fractions are counts over `blocks.len()`, the list as given (a block
//! listed twice counts twice, an unknown block id has no holders):
//!
//! - a machine counts once per listing as a holder, so a holder listed `k`
//!   times in one block's replicas counts `k` times, and
//!   [`BlockStore::machines_above_threshold`] can report a value above 1
//!   (while [`BlockStore::machine_locality`] counts each block at most
//!   once);
//! - a rack counts once per block, however many of its machines hold it;
//! - a holder missing from the machine → rack map belongs to no rack.

use crate::machine::RackId;
use crate::task::MachineId;
use std::collections::HashMap;

/// Default HDFS block size (128 MiB).
pub const BLOCK_BYTES: u64 = 128 * 1024 * 1024;

/// Default replication factor.
pub const REPLICATION: usize = 3;

/// Tracks block replica placement across machines.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    /// The replica holders of every block, block after block.
    holders: Vec<MachineId>,
    /// `ends[b]`: the end of block `b`'s span in `holders`.
    ends: Vec<usize>,
    /// machine → rack, for rack-level locality.
    rack_of: HashMap<MachineId, RackId>,
}

impl BlockStore {
    /// Creates an empty store over the given machine→rack mapping.
    pub fn new(machines: impl IntoIterator<Item = (MachineId, RackId)>) -> Self {
        BlockStore {
            rack_of: machines.into_iter().collect(),
            ..BlockStore::default()
        }
    }

    /// Registers a machine (e.g. after a machine join event).
    pub fn add_machine(&mut self, machine: MachineId, rack: RackId) {
        self.rack_of.insert(machine, rack);
    }

    /// Removes a machine and all replicas it held (machine failure).
    pub fn remove_machine(&mut self, machine: MachineId) {
        self.rack_of.remove(&machine);
        let (mut read, mut write) = (0, 0);
        for end in &mut self.ends {
            while read < *end {
                let m = self.holders[read];
                if m != machine {
                    self.holders[write] = m;
                    write += 1;
                }
                read += 1;
            }
            *end = write;
        }
        self.holders.truncate(write);
    }

    /// Allocates a fresh block with the given replica holders, returning its
    /// id.
    pub fn place_block(&mut self, holders: Vec<MachineId>) -> u64 {
        self.holders.extend(holders);
        self.ends.push(self.holders.len());
        (self.ends.len() - 1) as u64
    }

    /// Returns the machines holding a block, as placed minus removed
    /// machines; empty for an unknown block id.
    pub fn holders(&self, block: u64) -> &[MachineId] {
        let Some(b) = usize::try_from(block).ok().filter(|&b| b < self.ends.len()) else {
            return &[];
        };
        let start = if b == 0 { 0 } else { self.ends[b - 1] };
        &self.holders[start..self.ends[b]]
    }

    /// Fraction (0..=1) of `blocks` with a replica on `machine`. A block
    /// counts once however often its holders list `machine`, unlike in
    /// [`machines_above_threshold`](Self::machines_above_threshold).
    pub fn machine_locality(&self, blocks: &[u64], machine: MachineId) -> f64 {
        if blocks.is_empty() {
            return 0.0;
        }
        let local = blocks
            .iter()
            .filter(|b| self.holders(**b).contains(&machine))
            .count();
        local as f64 / blocks.len() as f64
    }

    /// Fraction (0..=1) of `blocks` with a replica somewhere in `rack`.
    pub fn rack_locality(&self, blocks: &[u64], rack: RackId) -> f64 {
        if blocks.is_empty() {
            return 0.0;
        }
        let local = blocks
            .iter()
            .filter(|b| {
                self.holders(**b)
                    .iter()
                    .any(|m| self.rack_of.get(m) == Some(&rack))
            })
            .count();
        local as f64 / blocks.len() as f64
    }

    /// Machines whose replica count over `blocks`, divided by
    /// `blocks.len()`, is at least `threshold`, with that value, most local
    /// first and then by id. This drives preference-arc creation. The
    /// value is the fraction of `blocks` held unless a block lists the same
    /// holder more than once: each listing counts, so it can exceed 1.
    pub fn machines_above_threshold(
        &self,
        blocks: &[u64],
        threshold: f64,
    ) -> Vec<(MachineId, f64)> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let mut held = Vec::with_capacity(blocks.len() * REPLICATION);
        for &b in blocks {
            held.extend_from_slice(self.holders(b));
        }
        held.sort_unstable();
        runs_above_threshold(&held, blocks.len(), threshold)
    }

    /// Racks holding at least `threshold` fraction of `blocks`, most local
    /// first and then by id. A rack counts once per block however many of
    /// its machines hold it.
    pub fn racks_above_threshold(&self, blocks: &[u64], threshold: f64) -> Vec<(RackId, f64)> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let mut racks = Vec::with_capacity(blocks.len() * REPLICATION);
        for &b in blocks {
            // A linear scan dedups this block's racks: blocks have a few
            // replicas each.
            let start = racks.len();
            for &m in self.holders(b) {
                if let Some(&r) = self.rack_of.get(&m) {
                    if !racks[start..].contains(&r) {
                        racks.push(r);
                    }
                }
            }
        }
        racks.sort_unstable();
        runs_above_threshold(&racks, blocks.len(), threshold)
    }
}

/// The runs of equal ids in `sorted`, each as its length over `total`,
/// that reach `threshold`: largest value first, then by id.
fn runs_above_threshold<T: Copy + Ord>(
    sorted: &[T],
    total: usize,
    threshold: f64,
) -> Vec<(T, f64)> {
    let total = total as f64;
    let mut out: Vec<(T, f64)> = sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as f64 / total))
        .filter(|&(_, f)| f >= threshold)
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> BlockStore {
        // 4 machines, 2 racks.
        BlockStore::new([(0, 0), (1, 0), (2, 1), (3, 1)])
    }

    #[test]
    fn machine_locality_fraction() {
        let mut s = store();
        let b0 = s.place_block(vec![0, 1, 2]);
        let b1 = s.place_block(vec![0, 3, 2]);
        let b2 = s.place_block(vec![1, 3, 2]);
        let blocks = vec![b0, b1, b2];
        assert!((s.machine_locality(&blocks, 0) - 2.0 / 3.0).abs() < 1e-9);
        assert!((s.machine_locality(&blocks, 2) - 1.0).abs() < 1e-9);
        assert_eq!(s.machine_locality(&[], 0), 0.0);
    }

    #[test]
    fn rack_locality_fraction() {
        let mut s = store();
        let b0 = s.place_block(vec![0]); // rack 0 only
        let b1 = s.place_block(vec![2]); // rack 1 only
        let blocks = vec![b0, b1];
        assert!((s.rack_locality(&blocks, 0) - 0.5).abs() < 1e-9);
        assert!((s.rack_locality(&blocks, 1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_query_sorted_by_fraction() {
        let mut s = store();
        let b0 = s.place_block(vec![0, 1]);
        let b1 = s.place_block(vec![0, 2]);
        let b2 = s.place_block(vec![0, 3]);
        let blocks = vec![b0, b1, b2];
        let hits = s.machines_above_threshold(&blocks, 0.3);
        assert_eq!(hits[0], (0, 1.0));
        assert_eq!(hits.len(), 4); // 1, 2, 3 all hold 1/3 ≥ 0.3
        let strict = s.machines_above_threshold(&blocks, 0.5);
        assert_eq!(strict, vec![(0, 1.0)]);
    }

    #[test]
    fn duplicate_holders_count_per_listing() {
        let mut s = store();
        let b = s.place_block(vec![2, 2, 2]);
        assert_eq!(s.machines_above_threshold(&[b], 1.0), vec![(2, 3.0)]);
        assert_eq!(s.machine_locality(&[b], 2), 1.0);
        assert_eq!(s.racks_above_threshold(&[b], 1.0), vec![(1, 1.0)]);
        assert_eq!(s.rack_locality(&[b], 1), 1.0);
    }

    #[test]
    fn machine_removal_drops_replicas() {
        let mut s = store();
        let b = s.place_block(vec![0, 1]);
        s.remove_machine(0);
        assert_eq!(s.holders(b), &[1]);
        assert_eq!(s.machine_locality(&[b], 0), 0.0);
    }
}
