//! Pins the exact change feed the scheduler hands its solver.
//!
//! Five fixed-seed 40-round runs record a digest of every round's [`DeltaBatch`]: its raw length plus
//! the `Debug` rendering of every compacted delta, in order. Any change to
//! the event handlers, the refresh or the compaction that alters a single
//! batch — its contents or their order — fails here; re-record the
//! digests only for an intended change to the feed (the failure message
//! prints the new ones). The runs cover:
//!
//! - Quincy (locality preference arcs);
//! - bucketed load spreading (flat aggregate ladders);
//! - a model with clock-driven task-arc re-pricing (`dynamic_task_arcs`);
//! - the network-aware model, whose `dynamic_aggregate_arcs` make every
//!   refresh re-derive the aggregate → machine arc set;
//! - the bucketed topology hierarchy, with multi-level EC→EC arcs.
//!
//! The runs use the relaxation-only solver so each round's flow — and
//! therefore the drains, spills and placements feeding the next round —
//! is deterministic (the dual race's winner is wall-clock dependent).

mod common;

use firmament::cluster::{
    ClusterEvent, ClusterState, Job, JobClass, Machine, MachineId, Task, TaskId,
};
use firmament::core::Firmament;
use firmament::flow::delta::DeltaBatch;
use firmament::flow::testgen::XorShift64;
use firmament::flow::NodeKind;
use firmament::mcmf::{DualConfig, SolverKind};
use firmament::policies::{
    AggregateId, ArcBundle, ArcTarget, CostModel, HierarchicalTopologyCostModel,
    LoadSpreadingCostModel, NetworkAwareCostModel, QuincyConfig, QuincyCostModel,
};

const ROUNDS: usize = 40;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(batch: &DeltaBatch) -> u64 {
    fnv1a(format!("{} {:?}", batch.raw_len(), batch.deltas()).as_bytes())
}

/// Submits a job of `n` tasks; about half carry an input block on one to
/// three machines, so Quincy declares locality preference arcs. Bandwidth
/// requests cycle through four network-aware request classes; no other
/// pinned model reads them.
fn submit_with_blocks<C: CostModel>(
    state: &mut ClusterState,
    f: &mut Firmament<C>,
    rng: &mut XorShift64,
    job: u64,
    n: usize,
) {
    let j = Job::new(job, JobClass::Batch, 0, state.now);
    let mut holders: Vec<MachineId> = state.machines.keys().copied().collect();
    holders.sort_unstable();
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let mut t = Task::new(
                job * 1000 + i as u64,
                job,
                state.now,
                5_000_000 + rng.below(20_000_000),
            );
            t.request.net_mbps = t.id % 4 * 1_200;
            if rng.below(2) == 0 && !holders.is_empty() {
                let k = 1 + rng.below(3) as usize;
                let picked = (0..k)
                    .map(|_| holders[rng.below(holders.len() as u64) as usize])
                    .collect();
                t.input_blocks = vec![state.blocks.place_block(picked)];
                t.input_bytes = 1_000_000_000 + rng.below(3_000_000_000);
            }
            t
        })
        .collect();
    let ev = ClusterEvent::JobSubmitted { job: j, tasks };
    state.apply(&ev);
    f.handle_event(state, &ev).unwrap();
}

fn feed<C: CostModel>(state: &mut ClusterState, f: &mut Firmament<C>, ev: ClusterEvent) {
    state.apply(&ev);
    f.handle_event(state, &ev).unwrap();
}

/// One pinned run: completions, arrivals, clock ticks that sometimes
/// cross whole-second wait steps, and a machine that fails and returns.
fn run<C: CostModel>(model: C, seed: u64) -> Vec<u64> {
    let mut state = common::cluster(16, 4, 4);
    let config = DualConfig {
        kind: SolverKind::RelaxationOnly,
        ..DualConfig::default()
    };
    let mut f = Firmament::with_solver(model, config);
    common::register(&state, &mut f);
    // A block-free warm-up load, scheduled with round 0.
    common::submit(&mut state, &mut f, 1000, 24);
    let mut rng = XorShift64::new(seed);
    let mut parked: Option<Machine> = None;
    let mut digests = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS as u64 {
        let mut running: Vec<TaskId> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for task in running {
            if rng.below(4) == 0 {
                let now = state.now;
                feed(
                    &mut state,
                    &mut f,
                    ClusterEvent::TaskCompleted { task, now },
                );
            }
        }
        if round % 9 == 4 {
            let mut ids: Vec<MachineId> = state.machines.keys().copied().collect();
            ids.sort_unstable();
            let victim = ids[rng.below(ids.len() as u64) as usize];
            parked = state.machines.get(&victim).cloned();
            let now = state.now;
            feed(
                &mut state,
                &mut f,
                ClusterEvent::MachineRemoved {
                    machine: victim,
                    now,
                },
            );
        } else if round % 9 == 7 {
            if let Some(mut machine) = parked.take() {
                machine.running.clear();
                feed(&mut state, &mut f, ClusterEvent::MachineAdded { machine });
            }
        }
        let n = 1 + rng.below(8) as usize;
        submit_with_blocks(&mut state, &mut f, &mut rng, round, n);
        let now = state.now + 400_000 + rng.below(3) * 300_000;
        feed(&mut state, &mut f, ClusterEvent::Tick { now });

        f.refresh(&state).unwrap();
        digests.push(digest(&f.manager_mut().take_deltas()));
        // The batch above is exactly what `schedule` would have fed the
        // solver: its own refresh finds nothing left to do.
        let out = f.schedule(&state).unwrap();
        assert_eq!(out.solver.raw_changes, 0, "round {round}: second refresh");
        common::apply(&mut state, &mut f, &out.actions);
    }
    digests
}

const DECAY_AGG: AggregateId = 7;

/// Preference costs that fade as a task waits, re-priced in place by the
/// refresh's `dynamic_task_arcs` hook, over a base unscheduled cost with
/// a wait slope and a load-dependent cluster aggregate.
struct DecayingPreference;

impl CostModel for DecayingPreference {
    fn name(&self) -> &'static str {
        "decaying-preference"
    }
    fn task_unscheduled_cost(&self, _: &ClusterState, _: &Task) -> i64 {
        200
    }
    fn wait_cost_per_sec(&self) -> i64 {
        15
    }
    fn task_arcs(&self, state: &ClusterState, task: &Task) -> Vec<(ArcTarget, ArcBundle)> {
        let wait_sec = (state.now.saturating_sub(task.submit_time) / 1_000_000) as i64;
        let preferred = task.id % 16;
        vec![
            (ArcTarget::Aggregate(DECAY_AGG), ArcBundle::cost(60)),
            (
                ArcTarget::Machine(preferred),
                ArcBundle::ladder([(50 - 4 * wait_sec).max(0), 55]),
            ),
        ]
    }
    fn aggregate_arc(
        &self,
        _: &ClusterState,
        _: AggregateId,
        machine: &Machine,
    ) -> Option<ArcBundle> {
        let running = machine.running.len() as i64;
        Some(ArcBundle::single(machine.slots as i64, 3 * running))
    }
    fn aggregate_kind(&self, _: AggregateId) -> NodeKind {
        NodeKind::ClusterAggregator
    }
    fn dynamic_task_arcs(&self) -> bool {
        true
    }
}

fn assert_pinned(what: &str, got: &[u64], want: &[u64]) {
    if let Some(round) = (0..got.len().max(want.len())).find(|&r| got.get(r) != want.get(r)) {
        panic!("{what}: round {round}'s batch changed; recorded {want:#018x?}, got {got:#018x?}");
    }
}

#[test]
fn quincy_batches_pinned() {
    let got = run(QuincyCostModel::new(QuincyConfig::default()), 0xD1);
    assert_pinned("quincy", &got, &QUINCY);
}

#[test]
fn bucketed_load_spreading_batches_pinned() {
    let got = run(LoadSpreadingCostModel::bucketed(), 0xD2);
    assert_pinned("bucketed load spreading", &got, &BUCKETED);
}

#[test]
fn dynamic_task_arc_batches_pinned() {
    let got = run(DecayingPreference, 0xD3);
    assert_pinned("dynamic task arcs", &got, &DYNAMIC);
}

#[test]
fn network_aware_batches_pinned() {
    let got = run(NetworkAwareCostModel::new(), 0xD4);
    assert_pinned("network-aware", &got, &NETWORK_AWARE);
}

#[test]
fn bucketed_hierarchy_batches_pinned() {
    let got = run(HierarchicalTopologyCostModel::bucketed(), 0xD5);
    assert_pinned("bucketed hierarchy", &got, &HIERARCHY);
}

const QUINCY: [u64; ROUNDS] = [
    0xc69bc2bb8c29844a,
    0x62bd4084e04e534f,
    0x71c9fbf35d1397a3,
    0xc8b8bf899b0b1fd7,
    0x46b7133d6f4b86ef,
    0xe745b69bca439025,
    0xa3175af7db015521,
    0x13235f1141c8c74d,
    0xd319bd6d984924ea,
    0xdd39b5b9949ef65c,
    0xd8101d9f2e1522bf,
    0x9356decc78a30224,
    0x9401702be8d69095,
    0x1649e3611d50c4ac,
    0xbf50239a23c02e89,
    0x4c6799f10637533e,
    0x8e5f29ad0129752f,
    0xe11f9100a5c38ed2,
    0xeeb4dcdd3239a91f,
    0xdb669d06018a2dab,
    0x0fa38479331245b6,
    0x807388061dedbd94,
    0x50d341665208b3c3,
    0xccc18a3c58ae8599,
    0x45d0c3d4845943cc,
    0x63dee1e5a45beb9f,
    0xcba7112e0eb7999b,
    0x58542e1a419f3bae,
    0x205086a2cd5ad035,
    0xdd17f36abba5bcf2,
    0xf1882256332b5156,
    0x397a77ba5e4e2803,
    0x6c18fb09a9e1dcb2,
    0xdb194557f2d9d120,
    0xff9e6706338a2551,
    0x42ace3dc34a38923,
    0x7b66858c840923d8,
    0xf957619653952c03,
    0xd01bcbe33504a460,
    0xe575540d6fff550d,
];

const BUCKETED: [u64; ROUNDS] = [
    0x8e4326795634ba3a,
    0x3cbcf928b67c6ffb,
    0x9eb3c77ffcacf2ad,
    0x91a4ce7df4a5b605,
    0x474d92f83e553f93,
    0x1d351605cae06edc,
    0x478eaf150f0ea680,
    0x2af454ac58da24af,
    0x29ab48f91377cb69,
    0xdfecb647326cc573,
    0x4523a8511c6ff42b,
    0xc414ac66c8c64ac6,
    0x7bcf1d75f0ac6f20,
    0x659ce474cf91ed43,
    0x745949d1bb8d0b7c,
    0x9e5127213dd48755,
    0x86c6238a07bc1c3c,
    0xb6baae2c46c8967c,
    0x5021e095489cd600,
    0x814057517ec674a0,
    0xe0edb72068df57d7,
    0x04f8cd403ee914f7,
    0x1b42ff5745d78558,
    0xc2aa669d8c6b74da,
    0xb7e9955c0000db5b,
    0xf755e039eee36193,
    0xfa5171df93f273a4,
    0x25111f07415b35ce,
    0x47414f9b5e6476b0,
    0x82cc1a02f35303e6,
    0xe1f3c58da64a7c6b,
    0x80b37cf3278bae20,
    0xf3e70e2e75c7fce9,
    0x1784f2b4b842268b,
    0x3340744a758c5c27,
    0x8548f24d514e9ea5,
    0x51b522d2ebadb87d,
    0x639e354043940fc8,
    0x5ffe52ce87b3eefb,
    0xf55a96a7ba7cac42,
];

const DYNAMIC: [u64; ROUNDS] = [
    0xda2c27104321ba55,
    0x51f29423a9fd589d,
    0xd2ce385c6f1d4b97,
    0x0290596f53ceb277,
    0x71e3ade8afa9f959,
    0x301fea35bcbc128c,
    0xe3268414c2173a38,
    0x4eb6547ff929b7e4,
    0x7c55847d08d82c74,
    0xa28b90f6659f0c38,
    0x6232242f4f90b48c,
    0xb33714ad6f76254d,
    0x64e816ab6dd974a4,
    0x2037a8ab50f398e9,
    0x6078720e1cf2f046,
    0x4f13cec900556840,
    0x470f53dbb7a6d6a6,
    0xeb3689a4d5f0db06,
    0x65e5e2ad14373495,
    0xd5fb815c362008e0,
    0xb88d12bf142cf831,
    0x0285171c5ad9f94b,
    0xd51d45bebbbd7107,
    0x6ec38b54b5fd256b,
    0xb981bcfcfb6e847d,
    0x7a77a83535b035fd,
    0x4e7744668fbe21a6,
    0xb093318762eda332,
    0x5bcb1fe7f4da71d1,
    0x92c08b4240a477ef,
    0xb757c5e2172f9ac6,
    0x8a7bdffa270b4129,
    0xf020a07e7908deb7,
    0x1687eb115243ca93,
    0x6bbd45b6e182ef1f,
    0xc282224463c5677f,
    0x918af9f2b5dd363f,
    0x0d697940a23d53e0,
    0xdb196b6e0c10e0a8,
    0xbe77566a7e2214b3,
];

const NETWORK_AWARE: [u64; ROUNDS] = [
    0x029398dbf46a79b4,
    0x1b8256a1aecfe160,
    0xb819bdd2a7771f31,
    0x7c5d9a2c44932d2f,
    0x3819fd33236d48cd,
    0x695498888e3e4f41,
    0xb835e97926905980,
    0xcf2cbc42eb6f011d,
    0xbd5457dd154b794d,
    0x61d8d7ac6fdcd76c,
    0x5e45ce232f33c076,
    0x067df815e0a3dcef,
    0xba513c56978d1ba6,
    0x56d51b735df20f50,
    0xc7674e6be7dddf0f,
    0xb783e39bda5096b4,
    0x4115048487120887,
    0xe8b8c833dc874132,
    0xf714f62bfbd6b01f,
    0xb8fd1a2e6c25acd0,
    0xeafa830bf71502a1,
    0x817f7cdb6d3d2230,
    0x84349ee900f22b32,
    0x89aca10ec62b44e4,
    0xf65a586a1c9e92de,
    0x3c32a5901a22e7b3,
    0xfedc608f5467fbd6,
    0x1fd012ec6e86386f,
    0x62adf95860b188c4,
    0xfd116a0ffacdf23e,
    0x33909a63e0e46d1e,
    0x9ab2d23d75b48042,
    0x666c2928061d4ded,
    0xf09845032736449d,
    0xc71ee80771727dc9,
    0xce62f89e842fdfda,
    0x8e9d94f743efdf4a,
    0x9c6fc52048f99659,
    0x80133c9859e1b417,
    0xfa9457067ecb9662,
];

const HIERARCHY: [u64; ROUNDS] = [
    0xea38acf76bbebeef,
    0x397b42158a422117,
    0xd2ca09831c18b84e,
    0xeccf2f4aa8f1266b,
    0xd5c7e377cec71937,
    0x53c8e891a2b902ad,
    0xbaaaf8c1ba9e7929,
    0x0304a971c4f152e6,
    0x049e4f17785cc888,
    0x6774c1c418dcec4a,
    0xbf1d75a85f5bffe1,
    0x15ff278b0198c160,
    0xd6e4e1ee2a3575b4,
    0x7e5a4c76816b136c,
    0x05d4201c1953a7a2,
    0xd32b9667739ae7b9,
    0x274aaf3bcc240e74,
    0xd8ef9a3faf4fd9a8,
    0xe16f35a8b7abbea9,
    0x2e5c19b983711add,
    0xc966a21a614238f1,
    0x48ef4ac7fcdba0ca,
    0x8de8ca100701aa6b,
    0xb1c14cb73d2fb8a7,
    0x756ee5b5e47e33ee,
    0x27284d05dfb4061d,
    0x53559c84417b97bd,
    0xd83ae4894b90bb00,
    0xb03cd767b4aeebdd,
    0xfceeb448c76cca09,
    0x027a63f59e14a1f0,
    0xcf8da0ccd0afaaf3,
    0x6fdeed7dd4a94484,
    0x1b7805ecdbecd114,
    0x84b75942c67e789f,
    0xf3e2fddadf0de143,
    0xf80168acbf07c7bd,
    0x53b313b5eba41e2d,
    0x3a4ed793c06c5797,
    0xee20fb790fc489c6,
];
