//! Quincy's locality declarations, checked two ways:
//!
//! - the block store answers every locality query exactly as a reference
//!   copy of its original `HashMap` implementation does — same order,
//!   bit-equal fractions — over targeted cases and seeded random scripts;
//! - a digest of `QuincyCostModel::task_arcs` for every task of a
//!   fixed-seed Google-like trace state pins the declarations themselves,
//!   before and after machines fail, return, and move racks.

use firmament::cluster::{
    BlockStore, ClusterEvent, ClusterState, Machine, MachineId, RackId, TopologySpec,
};
use firmament::flow::testgen::XorShift64;
use firmament::policies::{ArcTarget, CostModel, QuincyConfig, QuincyCostModel};
use firmament::sim::{GoogleTraceGenerator, TraceSpec};
use std::collections::HashMap;

/// The block store as first written: a `HashMap` of block id → holders
/// and a `HashMap` of machine → rack, with per-call count maps. Kept
/// verbatim, apart from its name, visibility and docs, as the reference
/// the dense store must match.
#[derive(Debug, Clone, Default)]
struct OracleBlockStore {
    replicas: HashMap<u64, Vec<MachineId>>,
    rack_of: HashMap<MachineId, RackId>,
    next_block: u64,
}

impl OracleBlockStore {
    fn new(machines: impl IntoIterator<Item = (MachineId, RackId)>) -> Self {
        OracleBlockStore {
            replicas: HashMap::new(),
            rack_of: machines.into_iter().collect(),
            next_block: 0,
        }
    }

    fn add_machine(&mut self, machine: MachineId, rack: RackId) {
        self.rack_of.insert(machine, rack);
    }

    fn remove_machine(&mut self, machine: MachineId) {
        self.rack_of.remove(&machine);
        for reps in self.replicas.values_mut() {
            reps.retain(|&m| m != machine);
        }
    }

    fn place_block(&mut self, holders: Vec<MachineId>) -> u64 {
        let id = self.next_block;
        self.next_block += 1;
        self.replicas.insert(id, holders);
        id
    }

    fn holders(&self, block: u64) -> &[MachineId] {
        self.replicas.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    fn machine_locality(&self, blocks: &[u64], machine: MachineId) -> f64 {
        if blocks.is_empty() {
            return 0.0;
        }
        let local = blocks
            .iter()
            .filter(|b| self.holders(**b).contains(&machine))
            .count();
        local as f64 / blocks.len() as f64
    }

    fn rack_locality(&self, blocks: &[u64], rack: RackId) -> f64 {
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

    fn machines_above_threshold(&self, blocks: &[u64], threshold: f64) -> Vec<(MachineId, f64)> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let mut counts: HashMap<MachineId, usize> = HashMap::new();
        for b in blocks {
            for &m in self.holders(*b) {
                *counts.entry(m).or_insert(0) += 1;
            }
        }
        let total = blocks.len() as f64;
        let mut out: Vec<(MachineId, f64)> = counts
            .into_iter()
            .map(|(m, c)| (m, c as f64 / total))
            .filter(|&(_, f)| f >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    fn racks_above_threshold(&self, blocks: &[u64], threshold: f64) -> Vec<(RackId, f64)> {
        if blocks.is_empty() {
            return Vec::new();
        }
        let mut counts: HashMap<RackId, usize> = HashMap::new();
        for b in blocks {
            let mut racks: Vec<RackId> = self
                .holders(*b)
                .iter()
                .filter_map(|m| self.rack_of.get(m).copied())
                .collect();
            racks.sort_unstable();
            racks.dedup();
            for r in racks {
                *counts.entry(r).or_insert(0) += 1;
            }
        }
        let total = blocks.len() as f64;
        let mut out: Vec<(RackId, f64)> = counts
            .into_iter()
            .map(|(r, c)| (r, c as f64 / total))
            .filter(|&(_, f)| f >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The store under test and the reference, driven in lockstep.
struct Pair {
    store: BlockStore,
    oracle: OracleBlockStore,
}

/// Fractions as bits, so a result that differs in the last place fails.
fn bits<T>(v: Vec<(T, f64)>) -> Vec<(T, u64)> {
    v.into_iter().map(|(id, f)| (id, f.to_bits())).collect()
}

/// Thresholds on both sides of the common fractions, and exactly on them.
const THRESHOLDS: [f64; 8] = [0.0, 0.14, 1.0 / 3.0, 0.34, 0.5, 2.0 / 3.0, 1.0, 1.5];

impl Pair {
    fn new(machines: &[(MachineId, RackId)]) -> Self {
        Pair {
            store: BlockStore::new(machines.iter().copied()),
            oracle: OracleBlockStore::new(machines.iter().copied()),
        }
    }

    fn place(&mut self, holders: Vec<MachineId>) -> u64 {
        let id = self.store.place_block(holders.clone());
        assert_eq!(id, self.oracle.place_block(holders), "block id");
        id
    }

    fn add(&mut self, machine: MachineId, rack: RackId) {
        self.store.add_machine(machine, rack);
        self.oracle.add_machine(machine, rack);
    }

    fn remove(&mut self, machine: MachineId) {
        self.store.remove_machine(machine);
        self.oracle.remove_machine(machine);
    }

    /// Compares every query on `blocks`, for every machine and rack in
    /// `machines` and `racks` and every threshold.
    fn check(&self, blocks: &[u64], machines: &[MachineId], racks: &[RackId], what: &str) {
        let (s, o) = (&self.store, &self.oracle);
        for &b in blocks {
            assert_eq!(s.holders(b), o.holders(b), "{what}: holders({b})");
        }
        for &m in machines {
            assert_eq!(
                s.machine_locality(blocks, m).to_bits(),
                o.machine_locality(blocks, m).to_bits(),
                "{what}: machine_locality({blocks:?}, {m})"
            );
        }
        for &r in racks {
            assert_eq!(
                s.rack_locality(blocks, r).to_bits(),
                o.rack_locality(blocks, r).to_bits(),
                "{what}: rack_locality({blocks:?}, {r})"
            );
        }
        for t in THRESHOLDS {
            assert_eq!(
                bits(s.machines_above_threshold(blocks, t)),
                bits(o.machines_above_threshold(blocks, t)),
                "{what}: machines_above_threshold({blocks:?}, {t})"
            );
            assert_eq!(
                bits(s.racks_above_threshold(blocks, t)),
                bits(o.racks_above_threshold(blocks, t)),
                "{what}: racks_above_threshold({blocks:?}, {t})"
            );
        }
    }
}

#[test]
fn block_store_matches_oracle_on_targeted_cases() {
    // Machines 0..6 over racks 0..2; 9 and 10 hold replicas but are in no
    // rack until later; one id is far beyond every other.
    const FAR: MachineId = u64::MAX - 1;
    let machines: Vec<(MachineId, RackId)> = (0..6).map(|m| (m, (m / 2) as RackId)).collect();
    let mut p = Pair::new(&machines);
    let all_machines = [0, 1, 2, 3, 4, 5, 9, 10, FAR, 77];
    let all_racks = [0, 1, 2, 3, 7];

    let dup = p.place(vec![2, 2, 2]); // one holder listed three times
    let pair_dup = p.place(vec![0, 1, 0]); // a duplicate plus a rack-mate
    let unmapped = p.place(vec![9, 10, 3]); // two holders in no rack
    let only_unmapped = p.place(vec![9]);
    let far = p.place(vec![FAR, 4]);
    let empty = p.place(Vec::new());
    let thirds = [
        p.place(vec![0, 2]),
        p.place(vec![0, 4]),
        p.place(vec![1, 5]),
    ];
    let unknown = [u64::MAX, 1 << 40, empty + 1_000];
    let lists: Vec<Vec<u64>> = vec![
        vec![],
        vec![dup],
        vec![dup, dup],
        vec![pair_dup, dup],
        vec![unmapped],
        vec![only_unmapped, unmapped, dup],
        vec![far, far, unmapped],
        vec![empty],
        vec![empty, dup],
        thirds.to_vec(),
        vec![thirds[0], thirds[1]],
        unknown.to_vec(),
        vec![unknown[0], dup, unknown[1]],
        vec![dup, pair_dup, unmapped, only_unmapped, far, empty],
    ];
    let check_all = |p: &Pair, stage: &str| {
        for list in &lists {
            p.check(list, &all_machines, &all_racks, stage);
        }
    };
    check_all(&p, "initial");

    // Machines join after their blocks were placed.
    p.add(9, 1);
    p.add(10, 3);
    p.add(FAR, 2);
    check_all(&p, "late joins");

    // A machine moves racks with no removal in between.
    p.add(0, 2);
    p.add(10, 1);
    check_all(&p, "rack moves");

    // A machine fails and returns, then returns again into another rack.
    p.remove(2);
    check_all(&p, "machine 2 removed");
    p.add(2, 1);
    check_all(&p, "machine 2 back");
    p.add(2, 0);
    check_all(&p, "machine 2 moved");
    let after = p.place(vec![2, 2, 0]);
    p.check(&[after, dup, after], &all_machines, &all_racks, "re-placed");

    // Removing an unknown machine changes nothing else; a removed machine
    // listed as a holder again is in no rack.
    p.remove(77);
    p.remove(9);
    p.remove(FAR);
    check_all(&p, "removals");
    let stale = p.place(vec![9, FAR, 77, 1]);
    p.check(&[stale, dup], &all_machines, &all_racks, "removed holders");

    // A mid-range id joins while few machines are known, then many more
    // join, then it moves racks.
    p.add(100, 3);
    let mid = p.place(vec![100, 5, 100]);
    let ids = [100, 5, 20, 39];
    p.check(&[mid, dup], &ids, &all_racks, "mid-range id");
    for m in 20..40 {
        p.add(m, (m % 3) as RackId);
    }
    p.check(&[mid, dup], &ids, &all_racks, "cluster grown");
    p.add(100, 0);
    p.check(&[mid, stale], &ids, &all_racks, "mid-range id moved");
}

#[test]
fn block_store_matches_oracle_on_seeded_scripts() {
    for seed in 1..=12u64 {
        let mut rng = XorShift64::new(seed);
        // A sparse id space, one far-out id, and ids never added.
        let pool: Vec<MachineId> = vec![0, 1, 2, 3, 5, 8, 13, 21, 34, 1 << 33, u64::MAX];
        let racks: Vec<RackId> = vec![0, 1, 2, 3];
        let initial: Vec<(MachineId, RackId)> = pool[..7]
            .iter()
            .map(|&m| (m, racks[rng.below(racks.len() as u64) as usize]))
            .collect();
        let mut p = Pair::new(&initial);
        let mut placed = 0u64;
        for step in 0..300 {
            match rng.below(10) {
                0 => {
                    let m = pool[rng.below(pool.len() as u64) as usize];
                    let r = racks[rng.below(racks.len() as u64) as usize];
                    p.add(m, r);
                }
                1 => {
                    let m = pool[rng.below(pool.len() as u64) as usize];
                    p.remove(m);
                }
                _ => {
                    let k = rng.below(6) as usize;
                    let holders = (0..k)
                        .map(|_| pool[rng.below(pool.len() as u64) as usize])
                        .collect();
                    p.place(holders);
                    placed += 1;
                }
            }
            let n = rng.below(9) as usize;
            let blocks: Vec<u64> = (0..n)
                .map(|_| match rng.below(12) {
                    0 => u64::MAX,
                    1 => placed + rng.below(4),
                    _ => rng.below(placed.max(1)),
                })
                .collect();
            p.check(&blocks, &pool, &racks, &format!("seed {seed} step {step}"));
        }
        let every: Vec<u64> = (0..placed + 2).collect();
        p.check(&every, &pool, &racks, &format!("seed {seed} all blocks"));
    }
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of the Quincy declarations of every task in `state`, in task id
/// order, under the default thresholds and Fig 15's 2 % machine threshold.
fn declaration_digest(state: &ClusterState) -> u64 {
    let fig15 = QuincyConfig {
        machine_pref_threshold: 0.02,
        rack_pref_threshold: 0.02,
        ..QuincyConfig::default()
    };
    let models = [
        QuincyCostModel::new(QuincyConfig::default()),
        QuincyCostModel::new(fig15),
    ];
    let mut ids: Vec<_> = state.tasks.keys().copied().collect();
    ids.sort_unstable();
    let mut text = String::new();
    for model in &models {
        for id in &ids {
            let arcs = model.task_arcs(state, &state.tasks[id]);
            text.push_str(&format!("{id} {arcs:?}\n"));
        }
    }
    fnv1a(text.as_bytes())
}

const DECLARATIONS_INITIAL: u64 = 0xde92e877dd2e3589;
const DECLARATIONS_AFTER_CHURN: u64 = 0x7e3fb24519f2741d;

#[test]
fn quincy_declarations_pinned() {
    let machines = 200;
    let mut state = ClusterState::with_topology(&TopologySpec {
        machines,
        machines_per_rack: 20,
        slots_per_machine: 12,
    });
    let mut generator = GoogleTraceGenerator::new(TraceSpec {
        machines,
        seed: 0x10CA1,
        job_size_scale: machines as f64 / 12_500.0,
        ..TraceSpec::default()
    });
    while state.tasks.len() < 600 {
        let a = generator.generate_job_at(state.now, &mut state);
        state.apply(&ClusterEvent::JobSubmitted {
            job: a.job,
            tasks: a.tasks,
        });
    }
    let multi_block = state
        .tasks
        .values()
        .filter(|t| t.input_blocks.len() > 1)
        .count();
    assert!(multi_block > 300, "{multi_block} multi-block tasks");
    // The state declares both kinds of preference arc, not just `X`.
    let quincy = QuincyCostModel::new(QuincyConfig::default());
    let (mut machine_prefs, mut rack_prefs) = (0, 0);
    for t in state.tasks.values() {
        for (target, _) in quincy.task_arcs(&state, t) {
            match target {
                ArcTarget::Machine(_) => machine_prefs += 1,
                ArcTarget::Aggregate(a) if a > 0 => rack_prefs += 1,
                _ => {}
            }
        }
    }
    assert!(
        machine_prefs > 100 && rack_prefs > 100,
        "{machine_prefs} machine and {rack_prefs} rack preference arcs"
    );
    let initial = declaration_digest(&state);

    // Two machines fail (dropping their replicas); one returns in another
    // rack, and a third moves racks without failing.
    let now = state.now;
    for machine in [7, 42] {
        state.apply(&ClusterEvent::MachineRemoved { machine, now });
    }
    for (id, rack) in [(42, 3), (100, 0)] {
        let machine = Machine::new(id, rack, 12);
        state.apply(&ClusterEvent::MachineAdded { machine });
    }
    let after_churn = declaration_digest(&state);

    assert_eq!(
        (initial, after_churn),
        (DECLARATIONS_INITIAL, DECLARATIONS_AFTER_CHURN),
        "Quincy declarations changed: got {initial:#018x}, {after_churn:#018x}"
    );
}
