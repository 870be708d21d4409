//! Conservative parallel execution of a sharded [`World`] (DESIGN.md §8).
//!
//! The network is partitioned by switch into logical processes — every LP
//! owns a set of switches plus the hosts attached to them, chosen by the
//! traffic-weighted partitioner in `crate::partition` — and driven by
//! [`pmsb_simcore::run_conservative_matrix`]: barrier-synchronized
//! windows with *per-LP horizons*. Each LP's horizon is bounded by its
//! peers' pending times plus the pairwise minimum propagation delay
//! (closed over multi-hop paths), so distant and idle LPs stop
//! throttling busy ones. Cross-LP packets travel through
//! preallocated per-(src,dst) lanes swapped at each barrier, and the
//! deterministic `(time, src_lp, emission order)` merge at each
//! destination makes the event schedule — and therefore every record —
//! byte-identical to the sequential run for any thread count and any
//! partition, except where two same-instant events carry tie keys the
//! LPs cannot order. Such an *ambiguous tie* stops the sharded attempt
//! at the next window barrier, and the cell reruns sequentially;
//! [`RunResults::engine_path`] says which of the two happened.

use pmsb_metrics::fct::{FctRecorder, FlowRecord};
use pmsb_simcore::{
    run_conservative_matrix, EventHandler, LogicalProcess, LookaheadMatrix, LpMessage, SimTime,
    Simulation, TieKey,
};

use crate::experiment::Experiment;
use crate::partition::traffic_partition;
use crate::world::{EnginePath, Event, RunResults, World};

/// One logical process: a full [`World`] copy that simulates only its
/// own partition, with its private FEL.
struct ShardLp {
    sim: Simulation<World>,
}

impl LogicalProcess for ShardLp {
    /// A packet delivery tagged with the sender-side tie key; replaying
    /// the key on insertion sorts the message among same-time local
    /// events exactly where the sequential run's push (made mid-handling
    /// at the send instant) would have placed it.
    type Message = (TieKey, Event);

    fn next_time(&self) -> Option<SimTime> {
        self.sim.queue.peek_time()
    }

    fn run_window(&mut self, horizon: SimTime, outbox: &mut Vec<LpMessage<(TieKey, Event)>>) {
        // Peek-then-pop (not `pop_at_or_before`): a declined pop must not
        // advance the FEL clock past the horizon, or the messages pushed
        // at the next barrier would land in this LP's past.
        while self.sim.queue.peek_time().is_some_and(|t| t < horizon) {
            let (now, event) = self.sim.queue.pop().expect("peeked a pending event");
            self.sim.handler.handle(now, event, &mut self.sim.queue);
        }
        self.sim.handler.drain_outbox(outbox);
    }

    fn receive(&mut self, at: SimTime, src: u32, (key, event): (TieKey, Event)) {
        self.sim.queue.push_ordered(at, key, src, event);
    }

    /// The tie-key window resolves cross-LP message order wherever the
    /// causal chains differ within it, but two chains in lockstep (e.g.
    /// ports serializing identical packets at the same instants) can
    /// collide through any bounded window. Every such collision is
    /// counted at pop time, and the first one dooms the attempt.
    fn diverged(&self) -> bool {
        self.sim.queue.ambiguous_ties() > 0
    }
}

/// Runs `exp` to `end_nanos` on `k` logical processes. Takes the
/// sequential path when the partition cuts a zero-delay link (no safe
/// lookahead window exists across it), and reruns sequentially when the
/// sharded attempt meets an ambiguous tie.
pub(crate) fn run_sharded(exp: &Experiment, k: usize, end_nanos: u64) -> RunResults {
    let first = exp.build_world();
    let owner = traffic_partition(&first, exp, k);
    let direct = first.lp_delay_matrix(&owner, k);
    if direct.contains(&0) {
        return first.run_until_nanos(end_nanos);
    }
    let lookahead = LookaheadMatrix::from_direct(k, direct);
    let mut lps: Vec<ShardLp> = std::iter::once(first)
        .chain((1..k).map(|_| exp.build_world()))
        .enumerate()
        .map(|(lp, mut w)| {
            w.set_shard(lp, owner.clone());
            ShardLp {
                sim: w.prepare(end_nanos),
            }
        })
        .collect();
    let profile = run_conservative_matrix(&mut lps, &lookahead, SimTime::from_nanos(end_nanos));
    // Zero ambiguous ties proves the schedule matched the sequential
    // run. Any other count means the attempt stopped early, so its
    // results are discarded and the cell reruns sequentially —
    // correctness over speed. The LP worlds go first, so the rerun never
    // shares memory with them.
    let ambiguous: u64 = lps.iter().map(|lp| lp.sim.queue.ambiguous_ties()).sum();
    if ambiguous > 0 {
        drop(lps);
        let mut res = exp.build_world().run_until_nanos(end_nanos);
        res.engine_path = EnginePath::ShardedFallback {
            lps: k,
            window: profile.windows,
            ambiguous_ties: ambiguous,
        };
        return res;
    }
    let parts = lps
        .into_iter()
        .map(|lp| {
            // Subtract the pushes a sequential run would not have made
            // (replicated fault events, duplicate trace chains) so the
            // merged total matches the sequential `events` exactly.
            let events = lp.sim.queue.scheduled_count() - lp.sim.handler.shard_extra_pushes();
            lp.sim.handler.harvest(end_nanos, events)
        })
        .collect();
    let mut res = merge(parts);
    res.engine_path = EnginePath::PacketSharded { lps: k };
    res
}

/// Folds per-LP results into the sequential run's shape. Ownership is
/// disjoint — each flow, sender, and watched port is harvested by
/// exactly one LP — so maps union, counters sum, and the completion
/// records re-sort into the sequential `(end, flow)` order. Fault
/// schedule bookkeeping (timeline log, link up/down counts) is identical
/// on every LP; per-packet fault drops happen on one LP each and sum.
fn merge(parts: Vec<RunResults>) -> RunResults {
    let mut it = parts.into_iter();
    let mut acc = it.next().expect("at least one LP");
    let mut records: Vec<FlowRecord> = acc.fct.records().to_vec();
    for p in it {
        records.extend_from_slice(p.fct.records());
        acc.rtt_nanos_by_flow.extend(p.rtt_nanos_by_flow);
        acc.port_traces.extend(p.port_traces);
        acc.sender_stats.extend(p.sender_stats);
        acc.drops += p.drops;
        acc.marks += p.marks;
        acc.events += p.events;
        acc.deliveries += p.deliveries;
        if let (Some(a), Some(b)) = (acc.shared_buffer.as_mut(), p.shared_buffer.as_ref()) {
            // Each switch's pool sees traffic on exactly one LP (the
            // owner); other LPs fold zeros. Drops sum, peaks max.
            a.absorb(b);
        }
        if let (Some(a), Some(b)) = (acc.faults.as_mut(), p.faults.as_ref()) {
            a.injected_drops += b.injected_drops;
            a.corrupt_drops += b.corrupt_drops;
            a.unroutable_drops += b.unroutable_drops;
        }
        if let (Some(a), Some(b)) = (acc.stream.as_mut(), p.stream.as_ref()) {
            // Each flow's sender lives on exactly one LP, so counts sum
            // and the sketches merge losslessly (order-independent). The
            // high-water marks peak at different instants per LP; their
            // sum is an upper bound on the global concurrent population.
            a.sketch.merge(&b.sketch);
            a.injected += b.injected;
            a.completed += b.completed;
            a.bytes_completed += b.bytes_completed;
            crate::world::add_sender_stats(&mut a.agg_sender, &b.agg_sender);
            a.slab_high_water += b.slab_high_water;
        }
    }
    records.sort_unstable_by_key(|r| (r.end_nanos, r.flow_id));
    let mut fct = FctRecorder::new();
    for r in records {
        fct.record(r);
    }
    acc.fct = fct;
    acc
}
