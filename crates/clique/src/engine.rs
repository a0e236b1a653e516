//! Synchronous message-passing engine over a flat, preallocated mailbox.
//!
//! The engine runs one [`NodeProgram`] instance per node in lock-step rounds.
//! In each round every node observes the messages delivered to it in the
//! previous round and emits at most one bounded-width message per destination
//! — exactly the Congested Clique contract. Violations are reported as
//! [`EngineError`]s rather than silently tolerated, so tests can assert that
//! programs respect the model.
//!
//! # Flat double-buffered mailbox
//!
//! Messages live in two flat mailboxes (`n × n` unicast slot rows plus one
//! broadcast slot per sender) that are swapped at the end of every round:
//! one holds the messages delivered this round (read-only), the other
//! collects the messages sent this round. Occupancy is tracked by per-slot
//! *generation counters* (the round number the slot was last written in), so
//! clearing a mailbox is free and steady-state rounds perform **zero heap
//! allocation**. Storage is source-major: every sender owns a flat slot row
//! indexed by destination — materialized on its first unicast and reused for
//! the rest of the run, so broadcast-dominated programs never pay for `n²`
//! slots — which gives every node an exclusive write region, the property
//! sharded execution relies on. A cache-resident per-sender generation array
//! lets receivers skip the rows of senders that were silent in a round.
//!
//! [`RoundCtx::send_all`] takes a broadcast fast path: the payload is stored
//! once in the sender's broadcast slot instead of being cloned `n − 1` times,
//! so an allgather round costs `O(n)` slot writes rather than `Θ(n²)`
//! message clones.
//!
//! # Sharded parallel execution
//!
//! With [`EngineConfig::threads`] `> 1`, nodes are partitioned into
//! contiguous shards executed by scoped worker threads. Each worker writes
//! only its own nodes' rows and broadcast slots of the next mailbox and reads
//! the (immutable) current mailbox, so no locks are needed. Per-node program
//! state, slot writes, and per-worker receive tallies are all isolated or
//! order-independent, and model-violation errors are reported for the lowest
//! offending node id — results are therefore **bit-identical** to serial
//! execution.
//!
//! # Round accounting
//!
//! See [`RunStats::rounds`]: the engine counts *communication* rounds. The
//! final drain step, in which delivered messages are consumed but nothing is
//! sent, is local computation and free in the model.

use crate::error::EngineError;
use crate::message::Message;
use crate::node::NodeId;

/// Configuration of the message engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum payload words per message (the `O(log n)`-bit budget; a word
    /// stands for one `Θ(log n)`-bit quantity).
    pub max_words: usize,
    /// Hard bound on rounds before aborting with
    /// [`EngineError::RoundLimitExceeded`].
    pub max_rounds: u64,
    /// Enforce the **Broadcast** Congested Clique (Becker et al.; footnote 1
    /// of the paper): each node must send the *same* message to every peer
    /// it addresses in a round. Violations raise
    /// [`EngineError::BroadcastViolation`].
    pub broadcast_only: bool,
    /// Worker threads for node execution (`0` and `1` both mean serial).
    /// Sharded execution is deterministic: results are bit-identical to
    /// serial runs for any thread count.
    pub threads: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_words: 4,
            max_rounds: 1_000_000,
            broadcast_only: false,
            threads: 1,
        }
    }
}

impl EngineConfig {
    /// The default configuration with `threads` worker threads.
    pub fn threaded(threads: usize) -> Self {
        EngineConfig {
            threads,
            ..EngineConfig::default()
        }
    }
}

/// Generation value that never matches a round number (rounds start at 1 and
/// are bounded by `max_rounds`), marking a slot as never written.
const EMPTY_GEN: u64 = u64::MAX;

/// One mailbox slot: the message last written and the round (generation) it
/// was written in. A slot is occupied for round `r` readers iff `gen == r`.
#[derive(Debug)]
struct Slot {
    gen: u64,
    msg: Message,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            gen: EMPTY_GEN,
            msg: Message::signal(0),
        }
    }
}

/// A flat message plane: one length-`n` unicast slot row per sender plus one
/// broadcast slot per sender.
///
/// Rows are materialized lazily on a sender's first unicast and then reused
/// for the rest of the run, so broadcast-only programs never pay for `n²`
/// slots and steady-state rounds are allocation-free either way. The
/// cache-resident `uni_last` generation array lets receivers skip the row
/// probe for every sender that did not unicast in the delivered round.
#[derive(Debug)]
struct Mailbox {
    n: usize,
    /// Unicast slot rows, one per sender (`rows[from][to]`); empty until the
    /// sender's first unicast, then length `n` for the rest of the run.
    rows: Vec<Vec<Slot>>,
    /// Generation of each sender's last unicast (`EMPTY_GEN` if none yet).
    uni_last: Vec<u64>,
    /// Broadcast slots, one per sender; a broadcast is stored once and read
    /// by all `n − 1` receivers.
    bcast: Vec<Slot>,
}

impl Mailbox {
    fn new(n: usize) -> Self {
        Mailbox {
            n,
            rows: std::iter::repeat_with(Vec::new).take(n).collect(),
            uni_last: vec![EMPTY_GEN; n],
            bcast: std::iter::repeat_with(Slot::empty).take(n).collect(),
        }
    }
}

/// A message delivered to a node's inbox, borrowed from the mailbox.
#[derive(Clone, Copy, Debug)]
pub struct Delivery<'a> {
    /// The node that sent the message.
    pub from: NodeId,
    /// The message itself.
    pub msg: &'a Message,
}

/// Iterator over a node's inbox, in ascending sender order.
#[derive(Debug)]
pub struct InboxIter<'a> {
    mailbox: &'a Mailbox,
    me: usize,
    gen: u64,
    from: usize,
}

impl<'a> Iterator for InboxIter<'a> {
    type Item = Delivery<'a>;

    fn next(&mut self) -> Option<Delivery<'a>> {
        let n = self.mailbox.n;
        while self.from < n {
            let from = self.from;
            self.from += 1;
            if from == self.me {
                continue;
            }
            // A sender either unicast to us or broadcast (never both: the
            // duplicate check rejects mixing), so at most one slot matches.
            let b = &self.mailbox.bcast[from];
            if b.gen == self.gen {
                return Some(Delivery {
                    from: NodeId::new(from),
                    msg: &b.msg,
                });
            }
            if self.mailbox.uni_last[from] == self.gen {
                let slot = &self.mailbox.rows[from][self.me];
                if slot.gen == self.gen {
                    return Some(Delivery {
                        from: NodeId::new(from),
                        msg: &slot.msg,
                    });
                }
            }
        }
        None
    }
}

/// Per-round context handed to a node.
///
/// Provides the node's identity, the clique size, the current round number,
/// the inbox of messages delivered this round, and the `send` operation.
#[derive(Debug)]
pub struct RoundCtx<'a> {
    me: NodeId,
    n: usize,
    round: u64,
    cur: &'a Mailbox,
    out_row: &'a mut Vec<Slot>,
    out_uni_last: &'a mut u64,
    out_bcast: &'a mut Slot,
    recv_counts: &'a mut [u32],
    sent: u32,
    first_sent: Option<usize>,
    err: Option<EngineError>,
    max_words: usize,
    broadcast_only: bool,
}

impl<'a> RoundCtx<'a> {
    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes in the clique.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current round number (first round is 1).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages delivered to this node at the start of this round, in
    /// ascending sender order.
    pub fn inbox(&self) -> InboxIter<'a> {
        InboxIter {
            mailbox: self.cur,
            me: self.me.index(),
            // Messages read this round were written in the previous one.
            // Round 1 reads generation 0, which no slot ever carries.
            gen: self.round - 1,
            from: 0,
        }
    }

    /// Queues a message to `to`, to be delivered at the start of the next
    /// round. Model constraints (single message per destination, bandwidth,
    /// broadcast uniformity) are checked immediately as O(1) slot-write
    /// checks; the first violation aborts the run once the round ends.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.try_send(to, msg) {
            self.err = Some(e);
        }
    }

    /// Queues the same message to every other node (a broadcast). The
    /// payload is stored once; receivers read it by reference.
    pub fn send_all(&mut self, msg: Message) {
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.try_send_all(msg) {
            self.err = Some(e);
        }
    }

    /// The message this node committed to this round (for the Broadcast
    /// Congested Clique uniformity check).
    fn first_message(&self) -> Option<&Message> {
        if self.out_bcast.gen == self.round {
            return Some(&self.out_bcast.msg);
        }
        self.first_sent.map(|t| &self.out_row[t].msg)
    }

    fn try_send(&mut self, to: NodeId, msg: Message) -> Result<(), EngineError> {
        let t = to.index();
        if to == self.me || t >= self.n {
            return Err(EngineError::InvalidDestination {
                from: self.me,
                to,
                n: self.n,
            });
        }
        if self.broadcast_only {
            if let Some(first) = self.first_message() {
                if *first != msg {
                    return Err(EngineError::BroadcastViolation {
                        from: self.me,
                        round: self.round,
                    });
                }
            }
        }
        if self.out_row.is_empty() {
            // First unicast this sender ever issues: materialize its flat
            // slot row, reused (allocation-free) for the rest of the run.
            self.out_row.resize_with(self.n, Slot::empty);
        }
        if self.out_row[t].gen == self.round || self.out_bcast.gen == self.round {
            return Err(EngineError::DuplicateMessage {
                from: self.me,
                to,
                round: self.round,
            });
        }
        if msg.word_count() > self.max_words {
            return Err(EngineError::BandwidthExceeded {
                from: self.me,
                to,
                words: msg.word_count(),
                max_words: self.max_words,
            });
        }
        let slot = &mut self.out_row[t];
        slot.gen = self.round;
        slot.msg = msg;
        *self.out_uni_last = self.round;
        if self.first_sent.is_none() {
            self.first_sent = Some(t);
        }
        self.recv_counts[t] += 1;
        self.sent += 1;
        Ok(())
    }

    fn try_send_all(&mut self, msg: Message) -> Result<(), EngineError> {
        if self.n == 1 {
            return Ok(()); // No peers to address.
        }
        // The lowest-id peer, where a broadcast conflict or bandwidth
        // violation is attributed (mirroring a destination-order scan).
        let lowest_peer = NodeId::new(usize::from(self.me.index() == 0));
        if self.broadcast_only {
            if let Some(first) = self.first_message() {
                if *first != msg {
                    return Err(EngineError::BroadcastViolation {
                        from: self.me,
                        round: self.round,
                    });
                }
            }
        }
        if self.out_bcast.gen == self.round || self.sent > 0 {
            // A broadcast addresses every peer, so it conflicts with any
            // earlier send this round; report the lowest conflicting
            // destination.
            let to = if self.out_bcast.gen == self.round {
                lowest_peer
            } else {
                let t = (0..self.n)
                    .find(|&t| self.out_row[t].gen == self.round)
                    .expect("sent > 0 implies an occupied slot");
                NodeId::new(t)
            };
            return Err(EngineError::DuplicateMessage {
                from: self.me,
                to,
                round: self.round,
            });
        }
        if msg.word_count() > self.max_words {
            return Err(EngineError::BandwidthExceeded {
                from: self.me,
                to: lowest_peer,
                words: msg.word_count(),
                max_words: self.max_words,
            });
        }
        self.out_bcast.gen = self.round;
        self.out_bcast.msg = msg;
        Ok(())
    }
}

/// A distributed program run by each node of the clique.
///
/// Implementations are state machines: `on_round` is invoked once per round
/// with the node's inbox, and the program signals termination through
/// `is_done`. The engine stops when all nodes are done and no messages are in
/// flight.
///
/// Programs must be [`Send`] so shards of nodes can execute on worker
/// threads (see [`EngineConfig::threads`]); program state is still owned by
/// exactly one node, so this is vacuous for ordinary state machines.
pub trait NodeProgram: Send {
    /// Executes one round at this node.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_>);

    /// Whether this node has terminated (it may still receive messages; a
    /// done node's `on_round` is still called while others run).
    fn is_done(&self) -> bool;
}

/// Statistics of a completed engine run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunStats {
    /// Communication rounds executed until global termination.
    ///
    /// **Convention:** this counts engine steps up to and including the last
    /// step in which *any* message was sent (`0` if the run never sends).
    /// Trailing steps that only consume delivered messages — in particular
    /// the final drain step every protocol needs to observe its last inbox —
    /// are local computation, which is free in the Congested Clique model.
    /// A protocol that sends in `k` (not necessarily consecutive) steps
    /// ending at step `k` therefore reports `rounds = k`, matching the cost
    /// formulas in [`crate::cost::model`] exactly (e.g. broadcast = 1,
    /// two-phase aggregate = 2).
    pub rounds: u64,
    /// Total point-to-point messages delivered (a broadcast counts `n − 1`).
    pub messages: u64,
    /// Maximum messages received by any single node in any round.
    pub max_in_degree: u64,
}

/// What one shard of nodes produced in a round.
struct ShardOutcome {
    /// Unicast messages queued by the shard's nodes.
    sent: u64,
    /// First model violation in ascending node order within the shard.
    err: Option<EngineError>,
}

/// One shard's exclusive write region of the next mailbox: the slices of
/// rows, unicast generations, and broadcast slots covering its node range
/// (source-major storage makes these disjoint across shards), plus the
/// shard's private per-destination receive tally.
struct ShardSlots<'a> {
    rows: &'a mut [Vec<Slot>],
    uni_last: &'a mut [u64],
    bcasts: &'a mut [Slot],
    counts: &'a mut [u32],
}

/// Executes one round for the contiguous node shard starting at `base`.
fn run_shard<P: NodeProgram>(
    base: usize,
    nodes: &mut [P],
    cur: &Mailbox,
    out: ShardSlots<'_>,
    round: u64,
    config: &EngineConfig,
) -> ShardOutcome {
    let n = cur.n;
    let mut sent = 0u64;
    let mut err: Option<EngineError> = None;
    let counts = out.counts;
    for (i, (((node, row), uni_last), bcast)) in nodes
        .iter_mut()
        .zip(out.rows)
        .zip(out.uni_last)
        .zip(out.bcasts)
        .enumerate()
    {
        let mut ctx = RoundCtx {
            me: NodeId::new(base + i),
            n,
            round,
            cur,
            out_row: row,
            out_uni_last: uni_last,
            out_bcast: bcast,
            recv_counts: counts,
            sent: 0,
            first_sent: None,
            err: None,
            max_words: config.max_words,
            broadcast_only: config.broadcast_only,
        };
        node.on_round(&mut ctx);
        sent += u64::from(ctx.sent);
        if err.is_none() {
            err = ctx.err;
        }
    }
    ShardOutcome { sent, err }
}

/// The synchronous engine: owns one program instance per node.
#[derive(Debug)]
pub struct Engine<P> {
    nodes: Vec<P>,
    config: EngineConfig,
}

impl<P: NodeProgram> Engine<P> {
    /// Creates an engine over the given per-node programs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<P>) -> Self {
        Engine::with_config(nodes, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn with_config(nodes: Vec<P>, config: EngineConfig) -> Self {
        assert!(!nodes.is_empty(), "clique must have at least one node");
        Engine { nodes, config }
    }

    /// Runs the program to global termination.
    ///
    /// All mailbox storage is allocated up front; steady-state rounds are
    /// allocation-free. With [`EngineConfig::threads`] `> 1` node execution
    /// is sharded across scoped worker threads with bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] if a node violates the model (duplicate
    /// destination, oversized message, self-send, broadcast non-uniformity)
    /// or the round limit is hit. When several nodes violate the model in
    /// the same round, the violation of the lowest node id is reported,
    /// independent of the thread count.
    pub fn run(&mut self) -> Result<RunStats, EngineError> {
        let n = self.nodes.len();
        let threads = self.config.threads.clamp(1, n);
        let shard = n.div_ceil(threads);
        let mut cur = Mailbox::new(n);
        let mut next = Mailbox::new(n);
        // Per-worker receive tallies, reused across rounds.
        let mut counts: Vec<Vec<u32>> = (0..threads).map(|_| vec![0u32; n]).collect();
        let mut round = 0u64;
        let mut rounds = 0u64;
        let mut messages = 0u64;
        let mut max_in_degree = 0u64;
        let mut pending = 0u64;

        loop {
            if pending == 0 && self.nodes.iter().all(NodeProgram::is_done) {
                return Ok(RunStats {
                    rounds,
                    messages,
                    max_in_degree,
                });
            }
            if round >= self.config.max_rounds {
                return Err(EngineError::RoundLimitExceeded {
                    limit: self.config.max_rounds,
                });
            }
            round += 1;

            let outcomes: Vec<ShardOutcome> = if threads == 1 {
                vec![run_shard(
                    0,
                    &mut self.nodes,
                    &cur,
                    ShardSlots {
                        rows: &mut next.rows,
                        uni_last: &mut next.uni_last,
                        bcasts: &mut next.bcast,
                        counts: &mut counts[0],
                    },
                    round,
                    &self.config,
                )]
            } else {
                let cur_ref = &cur;
                let config = &self.config;
                std::thread::scope(|scope| {
                    let node_shards = self.nodes.chunks_mut(shard);
                    let row_shards = next.rows.chunks_mut(shard);
                    let uni_shards = next.uni_last.chunks_mut(shard);
                    let bcast_shards = next.bcast.chunks_mut(shard);
                    let handles: Vec<_> = node_shards
                        .zip(row_shards)
                        .zip(uni_shards)
                        .zip(bcast_shards)
                        .zip(counts.iter_mut())
                        .enumerate()
                        .map(|(w, ((((nodes, rows), unis), bcasts), cnt))| {
                            let slots = ShardSlots {
                                rows,
                                uni_last: unis,
                                bcasts,
                                counts: cnt,
                            };
                            scope.spawn(move || {
                                run_shard(w * shard, nodes, cur_ref, slots, round, config)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("engine worker panicked"))
                        .collect()
                })
            };

            // Shards cover ascending node ranges and each records its first
            // violation in node order, so the first error here is the
            // lowest-node-id one — deterministic under any thread count.
            for outcome in &outcomes {
                if let Some(err) = &outcome.err {
                    return Err(err.clone());
                }
            }

            let unicast: u64 = outcomes.iter().map(|o| o.sent).sum();
            let bcasters = next.bcast.iter().filter(|s| s.gen == round).count() as u64;
            if unicast > 0 || bcasters > 0 {
                for j in 0..n {
                    let mut indeg: u64 = counts.iter().map(|c| u64::from(c[j])).sum();
                    // Every broadcaster reaches j except j itself.
                    indeg += bcasters - u64::from(next.bcast[j].gen == round);
                    max_in_degree = max_in_degree.max(indeg);
                }
                rounds = round;
            }
            pending = unicast + bcasters * (n as u64 - 1);
            messages += pending;
            for c in &mut counts {
                c.fill(0);
            }
            std::mem::swap(&mut cur, &mut next);
        }
    }

    /// Immutable access to the per-node programs (for reading outputs after
    /// [`run`](Engine::run)).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the engine and returns the node programs.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A program where node 0 sends one word to node 1, then everyone stops.
    struct OneShot {
        me: usize,
        got: Option<u64>,
        sent: bool,
    }

    impl NodeProgram for OneShot {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if self.me == 0 && !self.sent {
                ctx.send(NodeId::new(1), Message::word(0, 42));
                self.sent = true;
            }
            if let Some(env) = ctx.inbox().next() {
                self.got = env.msg.first();
            }
        }

        fn is_done(&self) -> bool {
            self.me != 0 || self.sent
        }
    }

    #[test]
    fn delivers_in_one_round() {
        let nodes = (0..4)
            .map(|me| OneShot {
                me,
                got: None,
                sent: false,
            })
            .collect();
        let mut engine = Engine::new(nodes);
        let stats = engine.run().unwrap();
        assert_eq!(stats.messages, 1);
        // One communication round; the engine's final drain step (delivery
        // consumption) is free local computation.
        assert_eq!(stats.rounds, 1);
        assert_eq!(engine.nodes()[1].got, Some(42));
        assert_eq!(engine.nodes()[2].got, None);
    }

    /// Node 0 sends to node 1 in step 1; node 1 replies in step 2. Pins the
    /// round-accounting convention for a 2-phase protocol: two communication
    /// rounds, the trailing drain step uncounted.
    struct PingPong {
        me: usize,
        done: bool,
    }

    impl NodeProgram for PingPong {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            let received = ctx.inbox().next().is_some();
            match (self.me, ctx.round()) {
                (0, 1) => ctx.send(NodeId::new(1), Message::word(0, 1)),
                (1, _) if received => {
                    ctx.send(NodeId::new(0), Message::word(0, 2));
                    self.done = true;
                }
                (0, _) if received => self.done = true,
                _ => {}
            }
        }

        fn is_done(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn two_phase_protocol_counts_two_rounds() {
        let nodes = (0..3).map(|me| PingPong { me, done: me == 2 }).collect();
        let mut engine = Engine::new(nodes);
        let stats = engine.run().unwrap();
        assert_eq!(stats.rounds, 2, "send + reply = 2 communication rounds");
        assert_eq!(stats.messages, 2);
    }

    /// A malicious program that double-sends from node 0.
    struct DoubleSender {
        fired: bool,
    }

    impl NodeProgram for DoubleSender {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.me().index() == 0 && !self.fired {
                ctx.send(NodeId::new(1), Message::word(0, 1));
                ctx.send(NodeId::new(1), Message::word(0, 2));
                self.fired = true;
            }
        }

        fn is_done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn duplicate_message_is_rejected() {
        // Node 0 is pending (will fire); peers are pre-done.
        let nodes = vec![
            DoubleSender { fired: false },
            DoubleSender { fired: true },
            DoubleSender { fired: true },
        ];
        let mut engine = Engine::new(nodes);
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::DuplicateMessage { .. }));
    }

    /// Mixing a broadcast with any unicast in the same round is a duplicate.
    struct BroadcastThenSend {
        fired: bool,
        bcast_first: bool,
    }

    impl NodeProgram for BroadcastThenSend {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.me().index() == 0 && !self.fired {
                if self.bcast_first {
                    ctx.send_all(Message::word(0, 1));
                    ctx.send(NodeId::new(2), Message::word(0, 1));
                } else {
                    ctx.send(NodeId::new(2), Message::word(0, 1));
                    ctx.send_all(Message::word(0, 1));
                }
                self.fired = true;
            }
        }

        fn is_done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn broadcast_conflicts_with_unicast() {
        for bcast_first in [true, false] {
            let nodes = (0..4)
                .map(|i| BroadcastThenSend {
                    fired: i != 0,
                    bcast_first,
                })
                .collect();
            let err = Engine::new(nodes).run().unwrap_err();
            match err {
                EngineError::DuplicateMessage { from, to, .. } => {
                    assert_eq!(from.index(), 0);
                    // The conflict is attributed to the unicast destination.
                    assert_eq!(to.index(), 2, "bcast_first = {bcast_first}");
                }
                other => panic!("expected duplicate, got {other:?}"),
            }
        }
    }

    /// Two broadcasts in one round are a duplicate at the lowest peer.
    struct DoubleBroadcaster {
        fired: bool,
    }

    impl NodeProgram for DoubleBroadcaster {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.me().index() == 0 && !self.fired {
                ctx.send_all(Message::word(0, 1));
                ctx.send_all(Message::word(0, 2));
                self.fired = true;
            }
        }

        fn is_done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn double_broadcast_is_rejected() {
        let nodes = (0..3)
            .map(|i| DoubleBroadcaster { fired: i != 0 })
            .collect();
        let err = Engine::new(nodes).run().unwrap_err();
        assert_eq!(
            err,
            EngineError::DuplicateMessage {
                from: NodeId::new(0),
                to: NodeId::new(1),
                round: 1,
            }
        );
    }

    /// Program that sends an oversized message.
    struct FatSender {
        sent: bool,
    }

    impl NodeProgram for FatSender {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.me().index() == 0 && !self.sent {
                ctx.send(NodeId::new(1), Message::new(0, vec![0; 64]));
                self.sent = true;
            }
        }

        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn oversized_message_is_rejected() {
        let nodes = vec![FatSender { sent: false }, FatSender { sent: true }];
        let mut engine = Engine::new(nodes);
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::BandwidthExceeded { .. }));
    }

    /// Program that never terminates.
    struct Spinner;

    impl NodeProgram for Spinner {
        fn on_round(&mut self, _ctx: &mut RoundCtx<'_>) {}

        fn is_done(&self) -> bool {
            false
        }
    }

    #[test]
    fn round_limit_is_enforced() {
        let mut engine = Engine::with_config(
            vec![Spinner, Spinner],
            EngineConfig {
                max_rounds: 10,
                ..EngineConfig::default()
            },
        );
        let err = engine.run().unwrap_err();
        assert_eq!(err, EngineError::RoundLimitExceeded { limit: 10 });
    }

    /// Program that sends distinct messages to distinct peers.
    struct Unicast {
        sent: bool,
    }

    impl NodeProgram for Unicast {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if ctx.me().index() == 0 && !self.sent {
                ctx.send(NodeId::new(1), Message::word(0, 1));
                ctx.send(NodeId::new(2), Message::word(0, 2));
                self.sent = true;
            }
        }

        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn broadcast_mode_rejects_unicast() {
        let nodes = vec![
            Unicast { sent: false },
            Unicast { sent: true },
            Unicast { sent: true },
        ];
        let mut engine = Engine::with_config(
            nodes,
            EngineConfig {
                max_rounds: 100,
                broadcast_only: true,
                ..EngineConfig::default()
            },
        );
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::BroadcastViolation { .. }));
    }

    #[test]
    fn broadcast_mode_accepts_uniform_sends() {
        use crate::programs::Broadcast as BcastProgram;
        let nodes = (0..6)
            .map(|i| BcastProgram::new(NodeId::new(i), NodeId::new(0), 11))
            .collect();
        let mut engine = Engine::with_config(
            nodes,
            EngineConfig {
                max_rounds: 100,
                broadcast_only: true,
                ..EngineConfig::default()
            },
        );
        engine.run().expect("uniform sends are legal broadcasts");
        assert!(engine.nodes().iter().all(|p| p.received() == Some(11)));
    }

    /// Self-sends are invalid destinations.
    struct SelfSender {
        sent: bool,
    }

    impl NodeProgram for SelfSender {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            if !self.sent {
                let me = ctx.me();
                ctx.send(me, Message::signal(0));
                self.sent = true;
            }
        }

        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn self_send_is_rejected() {
        let mut engine = Engine::new(vec![SelfSender { sent: false }, SelfSender { sent: true }]);
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::InvalidDestination { .. }));
    }

    #[test]
    fn parallel_error_reporting_is_deterministic() {
        // Several nodes violate in the same round; the lowest node id must
        // win regardless of thread count.
        for threads in [1, 2, 4, 7] {
            let nodes = (0..8).map(|_| SelfSender { sent: false }).collect();
            let mut engine = Engine::with_config(
                nodes,
                EngineConfig {
                    threads,
                    ..EngineConfig::default()
                },
            );
            let err = engine.run().unwrap_err();
            assert_eq!(
                err,
                EngineError::InvalidDestination {
                    from: NodeId::new(0),
                    to: NodeId::new(0),
                    n: 8,
                },
                "threads = {threads}"
            );
        }
    }

    /// Every node sends its id to every *lower*-id node (distinct fan-in per
    /// receiver), recording arrival order — probes inbox ordering.
    struct FanIn {
        me: usize,
        seen: Vec<u64>,
        sent: bool,
    }

    impl NodeProgram for FanIn {
        fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
            for env in ctx.inbox() {
                assert_eq!(env.msg.first(), Some(env.from.index() as u64));
                self.seen.push(env.from.index() as u64);
            }
            if !self.sent {
                for to in 0..self.me {
                    ctx.send(NodeId::new(to), Message::word(0, self.me as u64));
                }
                self.sent = true;
            }
        }

        fn is_done(&self) -> bool {
            self.sent
        }
    }

    #[test]
    fn inbox_is_in_ascending_sender_order() {
        let n = 9;
        let nodes = (0..n)
            .map(|me| FanIn {
                me,
                seen: Vec::new(),
                sent: false,
            })
            .collect();
        let mut engine = Engine::new(nodes);
        let stats = engine.run().unwrap();
        assert_eq!(stats.max_in_degree, (n - 1) as u64);
        for (i, p) in engine.nodes().iter().enumerate() {
            let want: Vec<u64> = ((i + 1)..n).map(|x| x as u64).collect();
            assert_eq!(p.seen, want, "node {i}");
        }
    }

    #[test]
    fn threaded_run_is_bit_identical_to_serial() {
        use crate::programs::{AllGather, Broadcast, DistributedBfs, RoutedWord, TwoPhaseRouting};
        let n = 17;
        let make_gather = || -> Vec<AllGather> {
            (0..n)
                .map(|i| {
                    AllGather::new(
                        NodeId::new(i),
                        (0..(i % 4)).map(|j| (i * 7 + j) as u64).collect(),
                    )
                })
                .collect()
        };
        let make_routing = || -> Vec<TwoPhaseRouting> {
            (0..n)
                .map(|i| {
                    let words = (0..n)
                        .filter(|&j| j != i)
                        .map(|j| RoutedWord {
                            dest: NodeId::new(j),
                            payload: (i * 1000 + j) as u64,
                        })
                        .collect();
                    TwoPhaseRouting::new(NodeId::new(i), n, words, 99)
                })
                .collect()
        };

        let mut serial = Engine::new(make_gather());
        let serial_stats = serial.run().unwrap();
        for threads in [2, 3, 8] {
            let mut par = Engine::with_config(make_gather(), EngineConfig::threaded(threads));
            let par_stats = par.run().unwrap();
            assert_eq!(
                serial_stats, par_stats,
                "allgather stats, threads={threads}"
            );
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.collected(), b.collected());
            }
        }

        let mut serial = Engine::new(make_routing());
        let serial_stats = serial.run().unwrap();
        for threads in [2, 5] {
            let mut par = Engine::with_config(make_routing(), EngineConfig::threaded(threads));
            let par_stats = par.run().unwrap();
            assert_eq!(serial_stats, par_stats, "routing stats, threads={threads}");
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.delivered(), b.delivered());
            }
        }

        let make_broadcast = || -> Vec<Broadcast> {
            (0..n)
                .map(|i| Broadcast::new(NodeId::new(i), NodeId::new(0), 42))
                .collect()
        };
        // BFS from node 0 on the n-cycle: node v sits at min(v, n - v).
        let make_bfs = || -> Vec<DistributedBfs> {
            (0..n)
                .map(|v| {
                    let around = [(v + 1) % n, (v + n - 1) % n];
                    DistributedBfs::new(
                        NodeId::new(v),
                        NodeId::new(0),
                        around.iter().map(|&u| NodeId::new(u)).collect(),
                        None,
                    )
                })
                .collect()
        };
        let mut serial = Engine::new(make_broadcast());
        let broadcast_stats = serial.run().unwrap();
        assert!(serial.nodes().iter().all(|p| p.received() == Some(42)));
        let mut serial_bfs = Engine::new(make_bfs());
        let bfs_stats = serial_bfs.run().unwrap();
        for (v, p) in serial_bfs.nodes().iter().enumerate() {
            assert_eq!(p.distance(), Some(v.min(n - v) as u64), "bfs at {v}");
        }
        for threads in [2, 5] {
            let mut par = Engine::with_config(make_broadcast(), EngineConfig::threaded(threads));
            assert_eq!(
                broadcast_stats,
                par.run().unwrap(),
                "broadcast stats, threads={threads}"
            );
            for (a, b) in serial.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.received(), b.received());
            }
            let mut par = Engine::with_config(make_bfs(), EngineConfig::threaded(threads));
            assert_eq!(
                bfs_stats,
                par.run().unwrap(),
                "bfs stats, threads={threads}"
            );
            for (a, b) in serial_bfs.nodes().iter().zip(par.nodes()) {
                assert_eq!(a.distance(), b.distance());
            }
        }
    }

    #[test]
    fn single_node_clique_is_trivial() {
        struct Lonely {
            rounds: u64,
        }
        impl NodeProgram for Lonely {
            fn on_round(&mut self, ctx: &mut RoundCtx<'_>) {
                // send_all with no peers is a no-op.
                ctx.send_all(Message::word(0, 1));
                self.rounds = ctx.round();
            }
            fn is_done(&self) -> bool {
                self.rounds >= 3
            }
        }
        let mut engine = Engine::new(vec![Lonely { rounds: 0 }]);
        let stats = engine.run().unwrap();
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.rounds, 0, "no communication ever happened");
    }
}
