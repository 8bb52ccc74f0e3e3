//! Integration tests spanning flow, mcmf, and core: placement extraction
//! agrees with the flow for every solver and, placement for placement, with
//! a reference copy of the original HashMap-based Listing 1 pass; and the
//! Table 3 change analysis predicts incremental-solver behaviour.
//!
//! Property-style cases derive their parameters from the workspace's own
//! deterministic generator (`XorShift64`), so failures reproduce exactly.

use firmament::core::{extract_placements, Placement};
use firmament::flow::changes::{arc_change_effect, ArcChangeAnalysis, ReoptEffect};
use firmament::flow::testgen::{scheduling_instance, InstanceSpec, XorShift64};
use firmament::flow::{ArcId, FlowGraph, NodeId, NodeKind};
use firmament::mcmf::{cost_scaling, relaxation, ssp, verify, SolveOptions};
use std::collections::{BTreeMap, HashMap, VecDeque};

mod common;

#[test]
fn extraction_identical_across_solvers() {
    // Different optimal solutions may exist, but the per-machine placement
    // counts implied by any optimal flow of the same graph must cost the
    // same; here we check extraction consistency per solver.
    let spec = InstanceSpec {
        tasks: 40,
        machines: 10,
        slots_per_machine: 4,
        ..InstanceSpec::default()
    };
    for (name, solve) in [
        (
            "ssp",
            &(|g: &mut firmament::flow::FlowGraph| {
                ssp::solve(g, &SolveOptions::unlimited()).unwrap();
            }) as &dyn Fn(&mut firmament::flow::FlowGraph),
        ),
        ("relaxation", &|g| {
            relaxation::solve(g, &SolveOptions::unlimited()).unwrap();
        }),
        ("cost_scaling", &|g| {
            cost_scaling::solve(g, &SolveOptions::unlimited()).unwrap();
        }),
    ] {
        let mut inst = scheduling_instance(3, &spec);
        solve(&mut inst.graph);
        let placements = extract_placements(&inst.graph);
        assert_eq!(placements.len(), 40, "{name}");
        let placed = placements
            .values()
            .filter(|p| matches!(p, Placement::OnMachine(_)))
            .count();
        // 10 machines × 4 slots = 40 slots ≥ 40 tasks, and placing is far
        // cheaper than the unscheduled cost, so everything places.
        assert_eq!(placed, 40, "{name}");
    }
}

/// Table 3 analysis matches observed behaviour: applying a change the
/// analysis calls "green" must leave the solved flow optimal.
#[test]
fn prop_green_changes_preserve_optimality() {
    let mut rng = XorShift64::new(0x7AB1E3);
    for case in 0..32 {
        let seed = rng.below(2000);
        let arc_pick = rng.below(500) as usize;
        let delta = 1 + rng.below(59) as i64;
        let increase = rng.below(2) == 1;
        let spec = InstanceSpec {
            tasks: 25,
            machines: 8,
            ..InstanceSpec::default()
        };
        let mut inst = scheduling_instance(seed, &spec);
        relaxation::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let potentials = match verify::find_potentials(&inst.graph) {
            verify::OptimalityCheck::Optimal { potentials } => potentials,
            _ => panic!("solved flow must be optimal"),
        };
        let arcs: Vec<_> = inst.graph.arc_ids().collect();
        let a = arcs[arc_pick % arcs.len()];
        let rc = verify::reduced_cost(&inst.graph, &potentials, a);
        let old_cost = inst.graph.cost(a);
        let new_cost = if increase {
            old_cost + delta
        } else {
            (old_cost - delta).max(0)
        };
        let analysis = ArcChangeAnalysis {
            reduced_cost_before: rc,
            reduced_cost_after: rc + (new_cost - old_cost),
            flow: inst.graph.flow(a),
            capacity_before: inst.graph.capacity(a),
            capacity_after: inst.graph.capacity(a),
        };
        let effect = arc_change_effect(&analysis);
        inst.graph.set_arc_cost(a, new_cost).unwrap();
        if effect == ReoptEffect::StaysValid {
            assert!(
                verify::is_optimal(&inst.graph),
                "case {case} (seed {seed}): green change broke optimality (rc={rc}, Δ={})",
                new_cost - old_cost
            );
        }
    }
}

/// Builds a `depth`-level aggregator chain: `tasks` task nodes → X →
/// A_1 → … → A_{depth−1} → machines → sink, solves it, and returns the
/// solved graph. Every level has capacity exactly `tasks`, so all flow
/// must traverse the full chain.
fn deep_chain(tasks: usize, machines: usize, depth: usize) -> firmament::flow::FlowGraph {
    use firmament::flow::{FlowGraph, NodeKind};
    let mut g = FlowGraph::new();
    let task_nodes: Vec<_> = (0..tasks)
        .map(|i| g.add_node(NodeKind::Task { task: i as u64 }, 1))
        .collect();
    let mut levels = vec![g.add_node(NodeKind::ClusterAggregator, 0)];
    for l in 1..depth {
        levels.push(g.add_node(NodeKind::Other { tag: l as u64 }, 0));
    }
    let machine_nodes: Vec<_> = (0..machines)
        .map(|m| g.add_node(NodeKind::Machine { machine: m as u64 }, 0))
        .collect();
    let sink = g.add_node(NodeKind::Sink, -(tasks as i64));
    for (i, &t) in task_nodes.iter().enumerate() {
        g.add_arc(t, levels[0], 1, 1 + i as i64).unwrap();
    }
    for w in levels.windows(2) {
        g.add_arc(w[0], w[1], tasks as i64, 2).unwrap();
    }
    let per_machine = tasks.div_ceil(machines) as i64;
    for (m, &mn) in machine_nodes.iter().enumerate() {
        g.add_arc(*levels.last().unwrap(), mn, per_machine, m as i64)
            .unwrap();
        g.add_arc(mn, sink, per_machine, 0).unwrap();
    }
    ssp::solve(&mut g, &SolveOptions::unlimited()).unwrap();
    g
}

/// Placements decompose through arbitrary aggregator depth: a chain of 2,
/// 3, and 5 aggregator levels between tasks and machines extracts every
/// task, with per-machine counts equal to the machine → sink flow and
/// flow conserved at every intermediate level.
#[test]
fn extraction_decomposes_through_arbitrary_aggregator_depth() {
    for depth in [2usize, 3, 5] {
        let g = deep_chain(12, 4, depth);
        let placements = extract_placements(&g);
        assert_eq!(placements.len(), 12, "depth {depth}");
        let placed: Vec<u64> = placements
            .values()
            .filter_map(|p| match p {
                Placement::OnMachine(m) => Some(*m),
                Placement::Unscheduled => None,
            })
            .collect();
        assert_eq!(placed.len(), 12, "depth {depth}: everything places");
        // Per-machine counts equal the machine→sink flow.
        use std::collections::HashMap;
        let mut counts: HashMap<u64, i64> = HashMap::new();
        for m in &placed {
            *counts.entry(*m).or_insert(0) += 1;
        }
        for n in g.node_ids() {
            use firmament::flow::NodeKind;
            match g.kind(n) {
                NodeKind::Machine { machine } => {
                    let outflow: i64 = g
                        .adj(n)
                        .iter()
                        .copied()
                        .filter(|a| a.is_forward())
                        .map(|a| g.flow(a))
                        .sum();
                    assert_eq!(
                        counts.get(&machine).copied().unwrap_or(0),
                        outflow,
                        "depth {depth} machine {machine}"
                    );
                }
                NodeKind::ClusterAggregator | NodeKind::Other { .. } => {
                    let mut inflow = 0i64;
                    let mut outflow = 0i64;
                    for &a in g.adj(n) {
                        let f = g.flow(a.forward());
                        if a.is_forward() {
                            outflow += f;
                        } else {
                            inflow += f;
                        }
                    }
                    assert_eq!(inflow, outflow, "depth {depth}: level unbalanced");
                    assert_eq!(inflow, 12, "depth {depth}: all flow crosses each level");
                }
                _ => {}
            }
        }
    }
}

/// Extraction accounts for exactly the machine→sink flow.
#[test]
fn prop_extraction_matches_flow() {
    let mut rng = XorShift64::new(0xE17AC7);
    for case in 0..32 {
        let seed = rng.below(3000);
        let spec = InstanceSpec {
            tasks: 30,
            machines: 8,
            ..InstanceSpec::default()
        };
        let mut inst = scheduling_instance(seed, &spec);
        cost_scaling::solve(&mut inst.graph, &SolveOptions::unlimited()).unwrap();
        let placements = extract_placements(&inst.graph);
        let placed = placements
            .values()
            .filter(|p| matches!(p, Placement::OnMachine(_)))
            .count() as i64;
        let machine_outflow: i64 = inst
            .machines
            .iter()
            .map(|&m| {
                inst.graph
                    .adj(m)
                    .iter()
                    .copied()
                    .filter(|&a| a.is_forward())
                    .map(|a| inst.graph.flow(a))
                    .sum::<i64>()
            })
            .sum();
        assert_eq!(placed, machine_outflow, "case {case} (seed {seed})");
    }
}

// ----------------------------------------------------------------------
// Extraction oracle: the dense extraction must return exactly the map the
// original HashMap-based pass returns, including its visit order (which
// machine each task pops) and its last-write-wins handling of task ids
// shared by several nodes.
// ----------------------------------------------------------------------

/// The original Listing 1 pass, kept verbatim as the oracle.
fn reference_extract_placements(graph: &FlowGraph) -> BTreeMap<u64, Placement> {
    let mut mappings: BTreeMap<u64, Placement> = BTreeMap::new();
    // Machines each node has sent flow to (with multiplicity).
    let mut destinations: HashMap<NodeId, Vec<u64>> = HashMap::new();
    // Machines already propagated along each arc.
    let mut moved: HashMap<ArcId, i64> = HashMap::new();
    let mut to_visit: VecDeque<NodeId> = VecDeque::new();
    let mut queued: Vec<bool> = vec![false; graph.node_bound()];

    for n in graph.node_ids() {
        match graph.kind(n) {
            NodeKind::Machine { machine } => {
                // A machine's outgoing flow (to the sink) is the number of
                // task units placed on it.
                let placed: i64 = graph
                    .adj(n)
                    .iter()
                    .copied()
                    .filter(|&a| a.is_forward())
                    .map(|a| graph.flow(a))
                    .sum();
                if placed > 0 {
                    destinations.insert(n, vec![machine; placed as usize]);
                    to_visit.push_back(n);
                    queued[n.index()] = true;
                }
            }
            NodeKind::Task { task } => {
                // Default: unscheduled; overwritten if machines arrive.
                mappings.insert(task, Placement::Unscheduled);
            }
            _ => {}
        }
    }

    while let Some(node) = to_visit.pop_front() {
        queued[node.index()] = false;
        if let NodeKind::Task { task } = graph.kind(node) {
            if let Some(dest) = destinations.get_mut(&node) {
                if let Some(m) = dest.pop() {
                    mappings.insert(task, Placement::OnMachine(m));
                }
            }
            continue;
        }
        // Visit incoming arcs: reverse residual arcs out of `node` whose
        // sister (the forward arc into `node`) carries flow.
        let incoming: Vec<(ArcId, NodeId, i64)> = graph
            .adj(node)
            .iter()
            .copied()
            .filter(|&a| !a.is_forward())
            .map(|a| (a.forward(), graph.dst(a), graph.flow(a)))
            .filter(|&(_, _, f)| f > 0)
            .collect();
        for (arc, source, flow) in incoming {
            let already = moved.get(&arc).copied().unwrap_or(0);
            let need = flow - already;
            if need <= 0 {
                continue;
            }
            let available = destinations.get_mut(&node);
            let Some(avail) = available else { break };
            let k = need.min(avail.len() as i64);
            if k <= 0 {
                continue;
            }
            let split_at = avail.len() - k as usize;
            let machines: Vec<u64> = avail.split_off(split_at);
            destinations.entry(source).or_default().extend(machines);
            *moved.entry(arc).or_insert(0) += k;
            if !queued[source.index()] {
                to_visit.push_back(source);
                queued[source.index()] = true;
            }
        }
    }
    mappings
}

fn assert_extraction_matches_reference(graph: &FlowGraph, what: &str) {
    assert_eq!(
        extract_placements(graph),
        reference_extract_placements(graph),
        "{what}"
    );
}

/// Seeded scheduling instances: unsolved, solved by each solver, and with
/// arbitrary (even infeasible) flows, so every branch of the propagation —
/// partial moves, exhausted lists, revisited nodes — is compared.
#[test]
fn extraction_matches_reference_on_generated_instances() {
    for seed in 0..12u64 {
        let spec = InstanceSpec {
            tasks: 40 + (seed as usize % 4) * 10,
            machines: 8 + seed as usize % 5,
            slots_per_machine: 1 + (seed as i64 % 4),
            cluster_aggregator: seed % 2 == 0,
            ..InstanceSpec::default()
        };
        let inst = scheduling_instance(seed, &spec);
        assert_extraction_matches_reference(&inst.graph, &format!("seed {seed} unsolved"));
        for (name, solve) in [
            ("ssp", ssp::solve as fn(&mut FlowGraph, &SolveOptions) -> _),
            ("relaxation", relaxation::solve),
            ("cost_scaling", cost_scaling::solve),
        ] {
            let mut g = inst.graph.clone();
            solve(&mut g, &SolveOptions::unlimited()).unwrap();
            assert_extraction_matches_reference(&g, &format!("seed {seed} {name}"));
        }
        let mut rng = XorShift64::new(0xF10 + seed);
        let mut g = inst.graph.clone();
        let arcs: Vec<ArcId> = g.arc_ids().collect();
        for a in arcs {
            if rng.below(3) > 0 {
                let f = rng.below(g.capacity(a) as u64 + 1) as i64;
                g.set_flow(a, f);
            }
        }
        assert_extraction_matches_reference(&g, &format!("seed {seed} random flow"));
    }
}

/// The multi-level aggregator chains of
/// `extraction_decomposes_through_arbitrary_aggregator_depth`.
#[test]
fn extraction_matches_reference_on_aggregator_chains() {
    for depth in [1usize, 2, 3, 5] {
        for (tasks, machines) in [(12, 4), (30, 7), (5, 9)] {
            let g = deep_chain(tasks, machines, depth);
            assert_extraction_matches_reference(
                &g,
                &format!("depth {depth}, {tasks} tasks, {machines} machines"),
            );
        }
    }
}

/// Two task nodes sharing one task id: the later assignment wins, and an
/// unassigned duplicate never masks an assigned one.
#[test]
fn extraction_matches_reference_on_shared_task_ids() {
    for placed_mask in 0..4u8 {
        let mut g = FlowGraph::new();
        let t0 = g.add_node(NodeKind::Task { task: 7 }, 1);
        let t1 = g.add_node(NodeKind::Task { task: 7 }, 1);
        let t2 = g.add_node(NodeKind::Task { task: 3 }, 1);
        let m0 = g.add_node(NodeKind::Machine { machine: 0 }, 0);
        let m1 = g.add_node(NodeKind::Machine { machine: 1 }, 0);
        let s = g.add_node(NodeKind::Sink, -3);
        for (bit, t, m) in [(1u8, t0, m1), (2, t1, m0)] {
            let tm = g.add_arc(t, m, 1, 0).unwrap();
            if placed_mask & bit != 0 {
                g.push_flow(tm, 1);
            }
        }
        g.add_arc(t2, m0, 1, 0).unwrap();
        for (bit, m) in [(1u8, m1), (2, m0)] {
            let ms = g.add_arc(m, s, 2, 0).unwrap();
            if placed_mask & bit != 0 {
                g.push_flow(ms, 1);
            }
        }
        assert_extraction_matches_reference(&g, &format!("mask {placed_mask}"));
    }
}

/// Drives a 30-round `Firmament` run — arrivals, completions of running
/// tasks and clock ticks — and compares both extractions on the graph left
/// by every `schedule`.
fn assert_reference_extraction_over_rounds<C: firmament::policies::CostModel>(
    model: C,
    what: &str,
) {
    use firmament::cluster::ClusterEvent;
    use firmament::core::Firmament;
    let mut state = common::cluster(24, 4, 6);
    let mut f = Firmament::new(model);
    common::register(&state, &mut f);
    let mut rng = XorShift64::new(0x5CED);
    let (mut completed, mut placed) = (0, 0);
    for round in 0..30u64 {
        let mut running: Vec<u64> = state.running_tasks().map(|t| t.id).collect();
        running.sort_unstable();
        for task in running {
            if rng.below(5) == 0 {
                let ev = ClusterEvent::TaskCompleted {
                    task,
                    now: state.now,
                };
                state.apply(&ev);
                f.handle_event(&state, &ev).unwrap();
                completed += 1;
            }
        }
        common::submit(&mut state, &mut f, round, 1 + rng.below(12) as usize);
        let ev = ClusterEvent::Tick {
            now: state.now + 1_000_000,
        };
        state.apply(&ev);
        f.handle_event(&state, &ev).unwrap();
        let out = f.schedule(&state).unwrap();
        assert_extraction_matches_reference(f.graph(), &format!("{what} round {round}"));
        placed = placed.max(out.placed_tasks);
        common::apply(&mut state, &mut f, &out.actions);
    }
    assert!(completed > 100 && placed > 20, "{what}: the run must churn");
}

#[test]
fn extraction_matches_reference_over_quincy_rounds() {
    use firmament::policies::{QuincyConfig, QuincyCostModel};
    assert_reference_extraction_over_rounds(
        QuincyCostModel::new(QuincyConfig::default()),
        "quincy",
    );
}

#[test]
fn extraction_matches_reference_over_bucketed_hierarchy_rounds() {
    use firmament::policies::HierarchicalTopologyCostModel;
    assert_reference_extraction_over_rounds(
        HierarchicalTopologyCostModel::bucketed(),
        "bucketed hierarchy",
    );
}
