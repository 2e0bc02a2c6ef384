//! Tests for the elastic control plane: however the live admission quota
//! is thrashed mid-flight, the *content* of every answer is untouchable,
//! and the controller thread really sheds at the quota it logs.
//!
//! The controller sets the admission quota while requests are in flight.
//! The quota may change **which** requests get answered (shed) and the
//! construction deadline may expire queued work — neither may change
//! **what** an answered request says. The first property drives a real
//! [`Frontend`] under an arbitrary interleaving of edge updates,
//! publishes, quota swaps and submissions, then replays every answered
//! `(node, epoch)` against a from-scratch rebuild of that epoch's graph
//! and demands bit-identical top-k lists.
//!
//! The second property pins the controller policy's replay determinism:
//! [`step`] is a pure function of `(state, observation, options)`, so
//! feeding the same observation stream into a fresh state must reproduce
//! the exact actuation sequence — the contract that makes a recorded
//! `ControlLog` replayable in tests.
//!
//! The last test runs the whole loop on the clock: observer sample →
//! [`step`] → quota store → `submit` sheds.

use proptest::prelude::*;
use simpush::{
    Config, ControlReason, ControlState, Controller, ControllerOptions, Frontend, FrontendOptions,
    QueryOutcome, SimPush, SubmitError, TickObservation, Ticket,
};
use simrank_suite::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A quota swap of the serving interleave, decoded from a plain integer
/// so proptest shrinks over it.
///
/// Swaps deliberately cover the nasty corners: `Some(0)` (clamped to the
/// floor of 1), crossed with a construction deadline short enough to
/// expire queued work — all legal, all allowed to change outcomes, none
/// allowed to change answers.
fn decode_quota(b: usize) -> Option<usize> {
    match b % 3 {
        0 => None,
        1 => Some(b % QUEUE_CAPACITY),
        _ => Some(1 + b % QUEUE_CAPACITY),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The replay contract under live retuning: every `Answered` outcome,
    // whatever quota admitted it and whatever deadline it raced, must equal
    // a direct `query_seeded` on a from-scratch rebuild of its epoch's
    // graph.
    #[test]
    fn answers_under_any_tuning_schedule_replay_bit_identically(
        base in arb_graph(24, 70),
        ops in proptest::collection::vec((0u8..10, 0usize..10_000, 0usize..10_000), 1..60),
        eps in 0.03f64..0.1,
        threshold in 1usize..6,
        deadline in 0usize..3,
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
                .default_deadline(match deadline {
                    0 => None,
                    1 => Some(Duration::from_millis(2)),
                    _ => Some(Duration::from_millis(200)),
                })
                .top_k(TOP_K)
                .build(),
        );
        let quota = frontend.admission_quota();

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
                    quota.set(decode_quota(b));
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
                // The deadline is allowed to expire work, and a swap
                // racing a submission makes both directions legal — just
                // never to corrupt what *is* answered.
                QueryOutcome::DeadlineMissed { .. } => {}
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
        observations in proptest::collection::vec((0u64..40_001, 0usize..10), 1..60),
        quota in 0usize..9,
    ) {
        let opts = ControllerOptions::default();
        let stream: Vec<TickObservation> = observations
            .iter()
            .map(|&(sojourn_us, depth)| TickObservation {
                sojourn_p99: sojourn_us.checked_sub(1).map(Duration::from_micros),
                queue_depth: depth,
            })
            .collect();

        let run = |stream: &[TickObservation]| {
            let mut state = ControlState::new(quota.checked_sub(1), QUEUE_CAPACITY);
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

// The controller thread's wiring, on the clock. One worker is held 2 ms
// per request behind a roomy channel, and the controller ticks every 5 ms
// against a 1 ms sojourn target, so a burst queues far past the target.
// The controller must tighten, `submit` must shed against the quota while
// the channel still has room, and the quota it shed against must be one
// the log recorded. Relaxing is disabled, so the quota only ever shrinks
// and every record is a tighten.
#[test]
fn controller_thread_sheds_at_the_quota_it_logged() {
    const CAPACITY: usize = 256;
    const BURST: usize = 64;
    let store = Arc::new(GraphStore::new(simrank_suite::graph::gen::gnm(50, 200, 1)));
    let engine = SimPush::new(Config::new(0.05));
    let frontend = Frontend::start(
        &engine,
        store,
        FrontendOptions::builder()
            .workers(1)
            .queue_capacity(CAPACITY)
            .synthetic_service_delay(Duration::from_millis(2))
            .build(),
    );
    let quota = frontend.admission_quota();
    let controller = Controller::start(
        frontend.observer(),
        quota.clone(),
        ControllerOptions {
            tick: Duration::from_millis(5),
            target_sojourn: Duration::from_millis(1),
            overload_ticks: 1,
            calm_ticks: u32::MAX,
            cooldown_ticks: 0,
        },
    );
    let mut tickets: Vec<Ticket> = (0..BURST as NodeId)
        .map(|u| frontend.try_submit(u % 50))
        .filter_map(Result::ok)
        .collect();
    // Probe only while the backlog is below the burst, so it neither
    // drains nor grows toward the channel's capacity.
    let t = Instant::now();
    let enforced = loop {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "the controller never shed a submission"
        );
        std::thread::sleep(Duration::from_millis(1));
        let (before, depth) = (quota.get(), frontend.queue_depth());
        if depth >= BURST {
            continue;
        }
        match frontend.try_submit(7) {
            Ok(ticket) => tickets.push(ticket),
            // A tighten racing the probe leaves it unclear which quota
            // shed it; probe again.
            Err(SubmitError::Overloaded) if quota.get() != before => {}
            Err(SubmitError::Overloaded) => {
                assert!(depth < CAPACITY, "the channel still has room");
                break before.expect("only a set quota sheds below capacity");
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    };
    let log = controller.stop();
    assert!(log
        .records
        .iter()
        .all(|r| r.reason == ControlReason::Tighten));
    assert!(
        log.records.iter().any(|r| r.quota == Some(enforced)),
        "shed at quota {enforced}, which no tighten applied: {:?}",
        log.records
    );
    for ticket in tickets {
        assert!(matches!(ticket.wait(), QueryOutcome::Answered(_)));
    }
    assert!(frontend.shutdown().rejected >= 1);
}
