//! Pins what the solver's optimality checks compute on fixed-seed
//! instances, so a rewrite of the residual shortest-path search behind
//! them must reproduce every number exactly:
//!
//! - `verify::find_potentials`' certifying potentials of an optimal flow;
//! - `price_refine` at scale 1 and at cost scaling's scale `F`;
//! - the per-arc flow `canonicalize_flow` makes of an optimal flow;
//! - `cycle_canceling::solve`'s per-arc flow and iteration count, run to
//!   the end and stopped after five iterations (which pins the first
//!   cycles it cancels, in order).
//!
//! Each case prints one line of digests; the failure message lists the
//! new lines. Re-record them only for an intended change of results.

use firmament::flow::testgen::{scheduling_instance, InstanceSpec};
use firmament::flow::FlowGraph;
use firmament::mcmf::cost_scaling::{self, CostScalingState};
use firmament::mcmf::price_refine::price_refine;
use firmament::mcmf::verify::{find_potentials, OptimalityCheck};
use firmament::mcmf::{canonicalize_flow, cycle_canceling, SolveOptions};

/// FNV-1a over the `Debug` rendering of `value`.
fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn flows(g: &FlowGraph) -> Vec<i64> {
    g.arc_ids().map(|a| g.flow(a)).collect()
}

fn specs() -> [(&'static str, InstanceSpec); 3] {
    [
        ("default", InstanceSpec::default()),
        (
            "oversubscribed",
            InstanceSpec {
                tasks: 90,
                machines: 10,
                slots_per_machine: 4,
                ..InstanceSpec::default()
            },
        ),
        (
            "flat",
            InstanceSpec {
                tasks: 40,
                machines: 12,
                prefs_per_task: 4,
                cluster_aggregator: false,
                ..InstanceSpec::default()
            },
        ),
    ]
}

/// One line of digests for `spec` at `seed`.
fn case(name: &str, spec: &InstanceSpec, seed: u64) -> String {
    let mut g = scheduling_instance(seed, spec).graph;
    cost_scaling::solve(&mut g, &SolveOptions::unlimited()).unwrap();
    let potentials = match find_potentials(&g) {
        OptimalityCheck::Optimal { potentials } => potentials,
        OptimalityCheck::NegativeCycle { .. } => panic!("{name} {seed}: flow is optimal"),
    };
    let mut state = CostScalingState::default();
    state.fit(g.node_bound());
    let refined_1 = price_refine(&g, 1).expect("optimal");
    let refined_f = price_refine(&g, state.scale).expect("optimal");
    let mut canonical = g.clone();
    canonicalize_flow(&mut canonical).unwrap();

    let cancelled = |limit: Option<u64>| {
        let mut g = scheduling_instance(seed, spec).graph;
        let opts = SolveOptions {
            iteration_limit: limit,
            ..SolveOptions::default()
        };
        let sol = cycle_canceling::solve(&mut g, &opts).unwrap();
        format!("{:016x}/{}", digest(&flows(&g)), sol.stats.iterations)
    };
    format!(
        "{name} {seed}: pot {:016x} pr1 {:016x} prF {:016x} canon {:016x} cc {} cc5 {}",
        digest(&potentials),
        digest(&refined_1),
        digest(&refined_f),
        digest(&flows(&canonical)),
        cancelled(None),
        cancelled(Some(5)),
    )
}

const PINS: [&str; 9] = [
    "default 1: pot 81b84bd5b2b076b8 pr1 81b84bd5b2b076b8 prF e9354cc6e2efd10e canon cff2cb5f6f9c9050 cc 6047493b4c37ee9e/61 cc5 f0567640032dd5db/6",
    "default 2: pot 0e4918e5e1836606 pr1 0e4918e5e1836606 prF 10349de01f7ab702 canon d6caaa3fe89864b6 cc d6caaa3fe89864b6/62 cc5 4a57f373a99ec3ad/6",
    "default 3: pot 6f20c2a2ffcd8fb0 pr1 6f20c2a2ffcd8fb0 prF 569badda8cbf5086 canon 69f0caae79284e40 cc 69f0caae79284e40/62 cc5 03b12134d31dd25d/6",
    "oversubscribed 1: pot 8bbc10885b36ced9 pr1 8bbc10885b36ced9 prF 1be95215b5ad7a17 canon e616a774b1894a17 cc e616a774b1894a17/43 cc5 0d586133bf98b839/6",
    "oversubscribed 2: pot 649d38efd02608f9 pr1 649d38efd02608f9 prF 96631b18bdb7bf83 canon b8dfc056a2b101f0 cc b8dfc056a2b101f0/41 cc5 14fff1b9af888a5d/6",
    "oversubscribed 3: pot 8fc4997cb346cbcb pr1 8fc4997cb346cbcb prF 18188e46d4801ea1 canon 18f54ed3aefa3131 cc 7f9c543fcc1f0ffc/42 cc5 403e60f7a6ee05e3/6",
    "flat 1: pot 24481baab9efe4ee pr1 24481baab9efe4ee prF fe220bb001e8b777 canon cbc71abf4b43e92f cc a98e19ea9f4d17b7/42 cc5 160d3cc859fc1d58/6",
    "flat 2: pot 572496743c4304a3 pr1 572496743c4304a3 prF 6b41889d1028864e canon 89a610e6eb0d5069 cc 89a610e6eb0d5069/44 cc5 392d84dd4249d258/6",
    "flat 3: pot 635dfaa482a077a0 pr1 635dfaa482a077a0 prF 2dba3a4bc5c3d1d0 canon 73e0436c0abb5589 cc 73e0436c0abb5589/43 cc5 2eae0eeb23d24176/6",
];

#[test]
fn optimality_checks_are_pinned() {
    let mut lines = Vec::new();
    for (name, spec) in specs() {
        for seed in 1..=3 {
            lines.push(case(name, &spec, seed));
        }
    }
    assert_eq!(
        lines,
        PINS,
        "optimality pins moved; the new lines are:\n{}",
        lines.join("\n")
    );
}
