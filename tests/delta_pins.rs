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
/// refresh's `dynamic_task_arcs` hook, over a wait-scaled unscheduled
/// cost and a load-dependent cluster aggregate.
struct DecayingPreference;

impl CostModel for DecayingPreference {
    fn name(&self) -> &'static str {
        "decaying-preference"
    }
    fn task_unscheduled_cost(&self, state: &ClusterState, task: &Task) -> i64 {
        200 + (state.now.saturating_sub(task.submit_time) / 1_000_000) as i64 * 15
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
    0x8ea8a7e6da4dcbd9,
    0xa5e283c5a50ff731,
    0x9d2b2bd75553b654,
    0x4ff0a2d58e380b3b,
    0x5ab9eb238680e5c4,
    0x47f79f6a61127158,
    0x5e964fa108ae46d4,
    0x1055ef0bb1595af6,
    0x650ecb342504a9e4,
    0x287b187e9d06b91a,
    0x47a71fefa89d0052,
    0x682d62b759b67293,
    0xa0961ee4f1379c8a,
    0x61302e94dd175563,
    0x75a8c118a6283aef,
    0xe08448059ad541cd,
    0x70640c4c3b847ffa,
    0xb300f4ced70c0858,
    0xc82f893d540e24dd,
    0x0e33eaafa63c1951,
    0x84bd04e22f51532d,
    0xf7ee4b7f9c72e20a,
    0x50b3cb3d079146d2,
    0xfd9fe93828467c37,
    0x0f652a8750b83435,
    0xa866d39b86836241,
    0xdb221c24ec5ab9ee,
    0xf255f21ff8b18c7a,
    0xf2907f308fbf4f62,
    0x9bc095ccb3095c5c,
    0x96c831b4d30892a7,
    0xcf1ba733b0469d33,
    0xba707b5a90b91521,
    0xe21eee534b5bcf8c,
    0xe20cd7b8816040a8,
    0xbcfb35946b3a6a42,
    0x724aa0cafa1b30e9,
    0x3dc708708caae640,
    0x6ad349a31689c5c7,
];

const BUCKETED: [u64; ROUNDS] = [
    0x8e4326795634ba3a,
    0x3cbcf928b67c6ffb,
    0x7a832bca3d81c3ef,
    0x8ceb0d85e0b04e02,
    0x4a8ba10167af9ef3,
    0xd70ada1e01afc108,
    0x408ef6d9d3cf9829,
    0xbb76c7053c330041,
    0x5366403831e07fee,
    0x61d374745b8fca27,
    0xa57c5748710322c8,
    0x2aad1aae122985ce,
    0x4bc2428560ab3101,
    0x65fc76991f017e50,
    0x700a49347aee0903,
    0xaf0e50921299ab9c,
    0x029934c91668b756,
    0xed31363d240c06e7,
    0x385a1d1e30d5dd15,
    0xb80ddea9a2e1a3dd,
    0x54a82e720bb855d5,
    0x1659f1d9de74485b,
    0x90a57647f606bf2c,
    0x72926d1097f75263,
    0xa2d2a199a77b7920,
    0x3e94e7739fd07d00,
    0xc61defc62a2c92da,
    0x4a730002ada9a3dd,
    0xbb442a76cc04847c,
    0xd9e04dae96753761,
    0x5cfd026d8d160159,
    0x9590f4eb6cd34929,
    0xeee38aea5b7a90c0,
    0xb9d14e248f7c1d7e,
    0xd3b2924bda3e0ea2,
    0x30b118e53f59d7e4,
    0x9274cf985ed44c87,
    0x847b6081f5d2d275,
    0x4c6d96817936db19,
    0xb345730aa2242f40,
];

const DYNAMIC: [u64; ROUNDS] = [
    0x779dd7a4b4b5c788,
    0x39aa3f72fe53e4bd,
    0xd4fabca68676845f,
    0x5d98f121bca6cf65,
    0xeadf7c765e7f2b27,
    0x3d905092e7f3b080,
    0x0bc78bc415179593,
    0x06ffcb01839baee0,
    0xb0644ee70986c7ad,
    0x12a25382206a9b50,
    0x09332d647f6bf6d3,
    0x0ec6f33b81bc5d81,
    0x7b0958522a877c90,
    0xcbf329d0e6bc6320,
    0x526679e4ccfc6481,
    0x65937bed12bde6d1,
    0x6d0b59ba9e18639c,
    0x5cc4cf73b16fc67f,
    0xd243ffaaaa424582,
    0xeffd47f7f4a02b65,
    0xf7f1751d7ddb1888,
    0x34f3352466677119,
    0x000ffe4c011dddcb,
    0x1f85ae951f1fe20d,
    0xbf5159260432a61a,
    0x56b9bf9fd65741c1,
    0xd5a636532b839606,
    0x78311a670dc7887b,
    0x8db23aa048a966c9,
    0xe0b992f2cd025e26,
    0x436851536d5abf1c,
    0x9206602f71d8ee89,
    0x57438d2ec79839af,
    0xb069bc5246ade44e,
    0x1ac9b1618443ca66,
    0x360702645e712368,
    0xa34c0528ce6bb8a1,
    0x70d99e0eccde085e,
    0x03193007b51eea40,
    0x187cdbd5173b2ccb,
];

const NETWORK_AWARE: [u64; ROUNDS] = [
    0xc1c90eedc808e6c1,
    0x4b0e3ce8b8439210,
    0x3a4878123dfea12a,
    0xf5a851d0d02e8fab,
    0xe0dfa6e47557c396,
    0xef828c876d8e448e,
    0x607042139f86ea10,
    0x52428e13ece9cb0f,
    0x73d45c343f20992c,
    0x034d420b23b31d6f,
    0xf241f84c1ca0a044,
    0x0428ba0d4ccb2410,
    0xb4e61ed44a217b3b,
    0x6abb24b9930562f9,
    0x517825a7af0e60f6,
    0x8ba6d1667a508814,
    0x77cc1f70b30d14be,
    0xbcc8921dc0960460,
    0x259c596f6180dac0,
    0xa599775af94987ec,
    0x96f164d95eba536e,
    0x5a005ddc41644b48,
    0x56dff221193f259a,
    0x8763775c62a8a941,
    0x9f7424d902649f39,
    0x258ffcd4f423ed0b,
    0x53955047ce7f99f5,
    0xba4c41b438d27cae,
    0xaaa0d16da33aa23b,
    0x4829689488c32f4c,
    0xc8010c6e0f1cff11,
    0xf0a482f36203b1c7,
    0x8a31fcc2512f80e3,
    0x3b30daa742e3192e,
    0x3606b0b914c05b47,
    0x05874a69499a227b,
    0x0025064b9ae1af18,
    0x437ed92b56a25164,
    0xf64037fc40ec44e5,
    0xf494a96cd981c8eb,
];

const HIERARCHY: [u64; ROUNDS] = [
    0x3a063597fbb797d9,
    0xae81d41dd7203a5f,
    0xf2f8b425117201ad,
    0x366d463ee6c2cc14,
    0x89eeb05a10139fe4,
    0x7900b1a78e24b289,
    0x71bc929e45963cd9,
    0x65e16c45403c6245,
    0xa89a0f49a95f5730,
    0xcae117b48d0fab62,
    0x065b5c5003dcbf0c,
    0x60ec8d7b9bab8ab0,
    0x28b4961cf3627d94,
    0xd831b0054a2af6ea,
    0xadfa0bfd9b9f17f2,
    0xcdf0eff53acd9bbc,
    0x8d7156e66b97d977,
    0x1cf7ae44e67e9ad2,
    0x310003e1ec4efc7e,
    0x32d321e759cc8a52,
    0xb430374048299e1d,
    0x1a2717f30159ef31,
    0xf9a270dd1496d91a,
    0x00f37b7f34359769,
    0x6d886f961f5b7694,
    0x257fd52cf2f71bbd,
    0xac13a462a8a7ab8d,
    0xb1930d5c2a6d05f7,
    0x8bed41d0de6d4987,
    0xdbdba544462035f5,
    0x098f77ed75e00061,
    0x1af8d136d2ebacfb,
    0xa062e42031a6ca0f,
    0xf68f2360e66935d2,
    0x759a22cb681c1466,
    0xe87ce2e3f3915613,
    0xca7d3fdcd59efc30,
    0x78fd1164dad58049,
    0xbdf108ef3d3cf4ce,
    0x6dda180fe2536f23,
];
