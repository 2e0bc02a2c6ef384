//! Property tests for the elastic control plane: however the live tuning
//! is thrashed mid-flight, the *content* of every answer is untouchable.
//!
//! The dynamic-tuning API lets a controller retune deadline, admission
//! quota and staleness bound while requests are in flight. Tuning may
//! change **which** requests get answered (shed, deadline-missed) — it
//! must never change **what** an answered request says. The first
//! property drives a real
//! [`Frontend`] under an arbitrary interleaving of edge updates,
//! publishes, tuning swaps and submissions, then replays every answered
//! `(node, epoch)` against a from-scratch rebuild of that epoch's graph
//! and demands bit-identical top-k lists.
//!
//! The second property pins the controller policy's replay determinism:
//! [`step`] is a pure function of `(state, observation, options)`, so
//! feeding the same observation stream into a fresh state must reproduce
//! the exact actuation sequence — the contract that makes a recorded
//! `ControlLog` replayable in tests.

use proptest::prelude::*;
use simpush::{
    ActiveTuning, Config, ControlState, ControllerOptions, Frontend, FrontendOptions, QueryOutcome,
    SimPush, TickObservation, Ticket,
};
use simrank_suite::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const TOP_K: usize = 5;
const WORKERS: usize = 2;
const QUEUE_CAPACITY: usize = 8;

/// Strategy: a random directed base graph as a built CSR.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_m).prop_map(
            move |edges| {
                GraphBuilder::new()
                    .with_num_nodes(n)
                    .with_edges(edges)
                    .build()
            },
        )
    })
}

/// One step of the serving interleave, decoded from a `(kind, a, b)`
/// triple so proptest shrinks over plain integers.
///
/// Tuning swaps deliberately cover the nasty corners: `Some(0)` quota
/// (shed everything), crossed with a
/// deadline short enough to expire queued work — all legal, all allowed
/// to change outcomes, none allowed to change answers.
fn decode_tuning(a: usize, b: usize) -> ActiveTuning {
    ActiveTuning {
        deadline: match a % 3 {
            0 => None,
            1 => Some(Duration::from_millis(2)),
            _ => Some(Duration::from_millis(200)),
        },
        admission_quota: match b % 3 {
            0 => None,
            1 => Some(b % QUEUE_CAPACITY),
            _ => Some(1 + b % QUEUE_CAPACITY),
        },
        max_stale_epochs: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The replay contract under live retuning: every `Answered` outcome,
    // whatever tuning regime admitted and served it, must equal a direct
    // `query_seeded` on a from-scratch rebuild of its epoch's graph.
    #[test]
    fn answers_under_any_tuning_schedule_replay_bit_identically(
        base in arb_graph(24, 70),
        ops in proptest::collection::vec((0u8..10, 0usize..10_000, 0usize..10_000), 1..60),
        eps in 0.03f64..0.1,
        threshold in 1usize..6,
    ) {
        let n = base.num_nodes();
        let store = Arc::new(GraphStore::with_compaction_threshold(base.clone(), threshold));
        let engine = SimPush::new(Config::new(eps));
        let frontend = Frontend::start(
            &engine,
            store.clone(),
            FrontendOptions::builder()
                .workers(WORKERS)
                .queue_capacity(QUEUE_CAPACITY)
                .top_k(TOP_K)
                .build(),
        );
        let tuning = frontend.tuning_handle();

        // Shadow replica: rebuilt[e] is the graph the store published as
        // epoch e (publish bumps the epoch unconditionally).
        let mut replica = MutableGraph::from_csr(&base);
        let mut rebuilt: Vec<CsrGraph> = vec![replica.snapshot()];
        let mut tickets: Vec<(NodeId, Ticket)> = Vec::new();

        for (kind, a, b) in ops {
            let (s, t) = ((a % n) as NodeId, (b % n) as NodeId);
            match kind {
                0 | 1 => {
                    store.insert_edge(s, t);
                    replica.insert_edge(s, t);
                }
                2 => {
                    store.remove_edge(s, t);
                    replica.remove_edge(s, t);
                }
                3 => {
                    let info = store.publish();
                    rebuilt.push(replica.snapshot());
                    prop_assert_eq!(info.epoch as usize, rebuilt.len() - 1);
                }
                4 | 5 => {
                    tuning.swap(decode_tuning(a, b));
                }
                _ => {
                    // Rejection (quota or full queue) is a legal outcome
                    // of whatever tuning is live; only accepted requests
                    // join the replay set.
                    if let Ok(ticket) = frontend.try_submit(s) {
                        tickets.push((s, ticket));
                    }
                }
            }
        }

        let mut answered = 0usize;
        for (node, ticket) in tickets {
            match ticket.wait() {
                QueryOutcome::Answered(r) => {
                    answered += 1;
                    let epoch = r.epoch as usize;
                    prop_assert!(epoch < rebuilt.len(), "answer from unpublished epoch {epoch}");
                    let fresh = engine.query_seeded(&rebuilt[epoch], node).top_k(TOP_K);
                    prop_assert_eq!(
                        r.top, fresh,
                        "node {} drifted at epoch {} under live retuning", node, epoch
                    );
                }
                // Tuning is allowed to shed or expire work, and a swap
                // racing a submission makes both directions legal — just
                // never to corrupt what *is* answered.
                QueryOutcome::DeadlineMissed { .. } | QueryOutcome::Cancelled { .. } => {}
                QueryOutcome::Failed { node } => panic!("worker failed on node {node}"),
            }
        }
        let stats = frontend.shutdown();
        prop_assert_eq!(stats.answered, answered as u64);
    }

    // Replay determinism of the policy itself: `step` sees no clock and
    // no randomness, so an identical observation stream applied to a
    // fresh state reproduces the identical actuation sequence.
    #[test]
    fn controller_decisions_replay_exactly_from_the_observation_stream(
        // The shim has no `option::of`: 0 encodes `None` (an idle tick /
        // no initial quota), anything else `Some(value - 1)`.
        observations in proptest::collection::vec(
            (0u64..40_001, 0usize..10, 0u64..50, 0u64..50),
            1..60,
        ),
        deadline_ms in 1u64..80,
        quota in 0usize..9,
    ) {
        let opts = ControllerOptions::default();
        let initial = ActiveTuning {
            deadline: Some(Duration::from_millis(deadline_ms)),
            admission_quota: quota.checked_sub(1),
            max_stale_epochs: 0,
        };
        let stream: Vec<TickObservation> = observations
            .iter()
            .map(|&(sojourn_us, depth, accepted, answered)| TickObservation {
                sojourn_p99: sojourn_us.checked_sub(1).map(Duration::from_micros),
                latency_p99: sojourn_us.checked_sub(1).map(|us| Duration::from_micros(us * 2)),
                queue_depth: depth,
                accepted,
                rejected: 0,
                answered,
                deadline_misses: 0,
            })
            .collect();

        let run = |stream: &[TickObservation]| {
            let mut state = ControlState::new(initial.clone(), QUEUE_CAPACITY, &opts);
            stream
                .iter()
                .map(|obs| simpush::step(&mut state, obs, &opts))
                .collect::<Vec<_>>()
        };
        let first = run(&stream);
        let second = run(&stream);
        prop_assert_eq!(first, second);
    }
}
