//! Sans-IO round engine: poll-driven protocol state machines.
//!
//! Every GKA variant in this crate used to be a *blocking* lock-step
//! driver: per-node threads calling `Endpoint::recv_kind` and panicking on
//! anything out of order. That shape forces a scheduler to run one group's
//! rekey to completion before touching the next — one slow or powered-off
//! member stalls every group sharing the thread.
//!
//! This module is the replacement substrate:
//!
//! * [`RoundMachine`] — the uniform poll API. A machine owns **one node's**
//!   protocol state and never touches an endpoint; it consumes [`Packet`]s
//!   and answers with a [`Step`]: messages to send, "need more input", the
//!   derived [`SessionKey`], or a typed failure.
//! * [`Engine`] — a phased interpreter the concrete protocols are written
//!   against: a protocol is a list of [`Phase`]s (*collect k packets of
//!   round tag t, then act*), and the engine supplies the packet
//!   bookkeeping every machine needs — out-of-round packets are stashed
//!   and replayed when their round starts, so interleaved delivery (the
//!   whole point of sans-IO) cannot crash a protocol.
//! * [`Execution`] — one protocol run: one machine per node over a medium
//!   the run owns outright (per-node mailboxes, traffic counters and power
//!   flags, one seeded loss stream, and optionally a virtual-time
//!   [`RadioMedium`]). `pump` advances the run as far as it can without
//!   blocking and reports whether anything progressed — the primitive a
//!   shard scheduler interleaves round-robin across many groups.
//! * [`Faults`] — loss/detachment injection for liveness testing: a
//!   detached member's machine still runs, but its transmissions vanish,
//!   so its group stalls (and *only* its group — scheduler liveness is
//!   exactly what the tests assert).
//!
//! The machines reproduce the blocking drivers **bit for bit**: identical
//! per-node RNG draw order, identical meter records, identical wire bytes.
//! `tests/poll_equivalence.rs` pins this with goldens captured from the
//! lock-step implementation.

use std::collections::VecDeque;

use egka_bigint::Ubig;
use egka_energy::{comp_energy_mj, Meter, OpCounts};
use egka_medium::{
    BatteryBank, NodeId, Packet, RadioMedium, RadioProfile, TrafficStats, Transmission,
    Xorshift64Star,
};

use crate::ident::UserId;

/// The group key a finished machine derived.
pub type SessionKey = Ubig;

/// Where an outgoing message goes.
#[derive(Clone, Debug)]
pub enum Dest {
    /// Every other node of the execution.
    Broadcast,
    /// Exactly one node.
    Unicast(NodeId),
    /// An explicit recipient set (the paper's intended-recipient
    /// accounting; self is skipped if present).
    Multicast(Vec<NodeId>),
}

/// A message a machine wants transmitted.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Recipient selector.
    pub to: Dest,
    /// Protocol round tag.
    pub kind: u16,
    /// Serialized payload.
    pub payload: bytes::Bytes,
    /// Paper-accounting size in bits (what the energy model charges).
    pub nominal_bits: u64,
}

/// Why a protocol run gave up. Every machine of a run evaluates the same
/// deterministic checks, so an honest run never produces one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolFault {
    /// The group's checks failed on every one of the run's `attempts`
    /// ("all members retransmit" until the budget ran out).
    RetryExhausted {
        /// Attempts made, the last of them failed.
        attempts: u32,
    },
}

impl core::fmt::Display for ProtocolFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProtocolFault::RetryExhausted { attempts } => {
                write!(f, "checks failed on all {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ProtocolFault {}

/// What a machine wants after a `poll`.
#[derive(Debug)]
pub enum Step {
    /// Transmit these, then poll again.
    Send(Vec<Outgoing>),
    /// Blocked until another packet arrives.
    NeedMore,
    /// Protocol finished; the node derived this group key.
    Done(SessionKey),
    /// Protocol gave up. Terminal.
    Failed(ProtocolFault),
}

/// A poll-driven protocol state machine for one node. No IO inside: the
/// caller moves packets in and messages out.
pub trait RoundMachine {
    /// Advances as far as possible. `incoming` hands the machine its next
    /// packet (ownership transfers even if the machine only buffers it);
    /// `None` asks it to make progress on what it already has.
    fn poll(&mut self, incoming: Option<Packet>) -> Step;
}

/// What one phase waits for before its action runs.
#[derive(Clone, Copy, Debug)]
pub enum Collect {
    /// Nothing — the action runs as soon as the phase is reached.
    Immediate,
    /// `count` packets with round tag `kind` (other kinds are stashed for
    /// later phases).
    Kind {
        /// Required round tag.
        kind: u16,
        /// How many packets of that tag to gather.
        count: usize,
    },
}

/// What a phase action decided.
pub enum PhaseOut {
    /// Transmit these (possibly none) and advance to the next phase.
    Send(Vec<Outgoing>),
    /// The protocol completed with this key.
    Done(SessionKey),
    /// Jump back to phase 0 — the "all members retransmit" path. The
    /// stash survives (the next attempt's packets may already be queued).
    Restart,
    /// The protocol gave up with this fault. Terminal.
    Fail(ProtocolFault),
}

/// A phase's action: node state + gathered packets → decision.
pub type PhaseAction<S> = Box<dyn FnMut(&mut S, Vec<Packet>) -> PhaseOut + Send>;

/// One step of a protocol script: gather, then act.
pub struct Phase<S> {
    /// Input requirement.
    pub collect: Collect,
    /// The action, run over the node state and the gathered packets.
    pub act: PhaseAction<S>,
}

impl<S> Phase<S> {
    /// A phase that acts immediately.
    pub fn immediate(
        act: impl FnMut(&mut S, Vec<Packet>) -> PhaseOut + Send + 'static,
    ) -> Phase<S> {
        Phase {
            collect: Collect::Immediate,
            act: Box::new(act),
        }
    }

    /// A phase gathering `count` packets of `kind` first.
    pub fn gather(
        kind: u16,
        count: usize,
        act: impl FnMut(&mut S, Vec<Packet>) -> PhaseOut + Send + 'static,
    ) -> Phase<S> {
        Phase {
            collect: Collect::Kind { kind, count },
            act: Box::new(act),
        }
    }
}

/// Phased [`RoundMachine`] interpreter: runs a [`Phase`] script over a
/// node-state value, stashing out-of-round packets between phases.
pub struct Engine<S> {
    state: S,
    phases: Vec<Phase<S>>,
    pc: usize,
    gathered: Vec<Packet>,
    stash: VecDeque<Packet>,
    done: Option<SessionKey>,
    failed: Option<ProtocolFault>,
}

impl<S> Engine<S> {
    /// Builds a machine from a node state and its protocol script.
    ///
    /// # Panics
    /// Panics if the script is empty.
    pub fn new(state: S, phases: Vec<Phase<S>>) -> Self {
        assert!(!phases.is_empty(), "a protocol script needs phases");
        Engine {
            state,
            phases,
            pc: 0,
            gathered: Vec::new(),
            stash: VecDeque::new(),
            done: None,
            failed: None,
        }
    }

    /// The node state (for report assembly after the run).
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Mutable node state access (test hooks).
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Overrides the packet count of the gather spec at script position
    /// `phase` — for fan-ins whose size the builder only knows after a
    /// role census (e.g. Leave's "every member hears every *other*
    /// refresher").
    ///
    /// # Panics
    /// Panics if that phase does not gather.
    pub fn set_gather_count(&mut self, phase: usize, count: usize) {
        match &mut self.phases[phase].collect {
            Collect::Kind { count: c, .. } => *c = count,
            Collect::Immediate => panic!("phase {phase} does not gather"),
        }
    }

    /// The derived key, once [`Step::Done`] was returned.
    pub fn key(&self) -> Option<&SessionKey> {
        self.done.as_ref()
    }

    /// Which script phase the machine is at — the protocol *round* index,
    /// observed by the tracing pump hook. A finished machine reports its
    /// final phase.
    pub fn phase_index(&self) -> usize {
        self.pc
    }

    fn gather_from_stash(&mut self, kind: u16, count: usize) {
        let mut i = 0;
        while self.gathered.len() < count && i < self.stash.len() {
            if self.stash[i].kind == kind {
                let p = self.stash.remove(i).expect("index in bounds");
                self.gathered.push(p);
            } else {
                i += 1;
            }
        }
    }
}

impl<S> RoundMachine for Engine<S> {
    fn poll(&mut self, incoming: Option<Packet>) -> Step {
        if let Some(e) = self.failed {
            return Step::Failed(e);
        }
        if let Some(k) = &self.done {
            return Step::Done(k.clone());
        }
        if let Some(p) = incoming {
            self.stash.push_back(p);
        }
        loop {
            let phase = &mut self.phases[self.pc];
            let packets = match phase.collect {
                Collect::Immediate => Vec::new(),
                Collect::Kind { kind, count } => {
                    self.gather_from_stash(kind, count);
                    if self.gathered.len() < count {
                        return Step::NeedMore;
                    }
                    std::mem::take(&mut self.gathered)
                }
            };
            match (self.phases[self.pc].act)(&mut self.state, packets) {
                PhaseOut::Send(outs) => {
                    self.pc += 1;
                    assert!(
                        self.pc < self.phases.len(),
                        "protocol script fell off the end without Done"
                    );
                    return Step::Send(outs);
                }
                PhaseOut::Done(key) => {
                    self.done = Some(key.clone());
                    return Step::Done(key);
                }
                PhaseOut::Restart => {
                    self.pc = 0;
                    self.gathered.clear();
                }
                PhaseOut::Fail(fault) => {
                    self.failed = Some(fault);
                    return Step::Failed(fault);
                }
            }
        }
    }
}

/// Node state that exposes its operation meter — every protocol state does,
/// so an [`Execution`] can account even an aborted attempt's energy.
pub trait Metered {
    /// The node's operation meter.
    fn meter(&self) -> &Meter;
}

/// Runs the execution over a virtual-time radio instead of the instant
/// medium: per-link delay, airtime contention at the transceiver's data
/// rate, seeded loss, and battery drain (see `egka-medium`).
#[derive(Clone, Debug)]
pub struct RadioSpec {
    /// Hardware/channel profile. Its `loss` is overridden by
    /// [`Faults::loss`] whenever that is non-zero, so the scheduler's
    /// retry salting applies unchanged on the radio path.
    pub profile: RadioProfile,
    /// Seed for the radio's jitter/loss stream (mixed with
    /// [`Faults::loss_seed`] so retried attempts re-roll the air).
    pub seed: u64,
    /// Battery budgets shared across executions; `None` runs on mains
    /// power. A user whose cell is already drained joins powered off —
    /// battery death persists across protocol steps.
    pub bank: Option<BatteryBank>,
}

/// Fault injection for a protocol execution.
#[derive(Clone, Debug, Default)]
pub struct Faults {
    /// Per-delivery drop probability on the run's medium.
    pub loss: f64,
    /// Seed for the loss pattern (salted per retry so a retransmitted
    /// attempt does not replay the identical drops).
    pub loss_seed: u64,
    /// Members that are powered off: their machines run, but nothing they
    /// transmit reaches the medium and nothing reaches them.
    pub detached: Vec<UserId>,
    /// When set, the run's medium is a virtual-time radio instead of the
    /// instant fan-out channel.
    pub radio: Option<RadioSpec>,
    /// Purely observational trace hook: when set, the execution reports
    /// round transitions (and the radio reports airtime) into this shared
    /// buffer. Never consulted by any fault or scheduling decision, so
    /// attaching it cannot change a run's outcome.
    pub trace: Option<egka_trace::StepTrace>,
}

impl Faults {
    /// Reliable medium, everyone attached.
    pub fn none() -> Self {
        Faults::default()
    }

    /// True iff no fault is armed and the medium is the instant channel.
    pub fn is_none(&self) -> bool {
        self.loss == 0.0 && self.detached.is_empty() && self.radio.is_none()
    }
}

/// How far one [`Execution::pump`] got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pump {
    /// Every machine finished.
    Done,
    /// Something moved (packets delivered, messages sent, a machine
    /// finished) — pump again.
    Progressed,
    /// Nothing can move: no packets in flight, every unfinished machine
    /// blocked. On a private medium this is permanent — the scheduler
    /// should give up on the run or retry it.
    Stalled,
    /// A machine gave up; the lowest-index failing node's fault. Terminal.
    Failed(ProtocolFault),
}

/// The packet medium an [`Execution`] owns: what is in flight to each
/// node, per-node traffic counters and power flags, and one seeded loss
/// stream. Nodes are addressed by their index in the execution.
struct Medium {
    /// Packets each node hears at the top of the next sweep. A send made
    /// during a sweep lands here, so no machine observes another's output
    /// within the sweep that produced it.
    in_flight: Vec<Vec<Packet>>,
    traffic: Vec<TrafficStats>,
    /// Powered-off nodes neither send nor receive (a detached member, or
    /// a mote whose battery died on the radio).
    detached: Vec<bool>,
    /// Per-delivery drop probability on the instant path.
    loss: f64,
    loss_rng: Xorshift64Star,
    /// Radio executions park each sweep's resolved sends here; the radio
    /// owns their loss and delivery time. `None` = instant delivery.
    outbox: Option<Vec<Transmission>>,
}

impl Medium {
    /// Transmits `o` from `from`: a detached sender is silent and
    /// uncharged; otherwise tx is charged now and every audible recipient
    /// (multicast and broadcast skip the sender) is resolved in order.
    fn send(&mut self, from: NodeId, o: Outgoing) {
        if self.detached[from as usize] {
            return;
        }
        let packet = Packet {
            from,
            kind: o.kind,
            payload: o.payload,
            nominal_bits: o.nominal_bits,
        };
        self.traffic[from as usize].charge_tx(&packet);
        let n = self.detached.len() as NodeId;
        match &mut self.outbox {
            Some(outbox) => {
                let mut targets = Vec::new();
                for_each_target(&o.to, from, n, |to| {
                    if !self.detached[to as usize] {
                        targets.push(to);
                    }
                });
                outbox.push(Transmission {
                    from,
                    targets,
                    packet,
                });
            }
            None => for_each_target(&o.to, from, n, |to| self.hear_now(to, &packet)),
        }
    }

    /// Instant path: one loss draw per audible recipient, at send time;
    /// rx is charged only for a delivered copy.
    fn hear_now(&mut self, to: NodeId, packet: &Packet) {
        if self.detached[to as usize] {
            return;
        }
        if self.loss > 0.0 && self.loss_rng.unit() < self.loss {
            return;
        }
        self.traffic[to as usize].charge_rx(packet);
        self.in_flight[to as usize].push(packet.clone());
    }

    /// Radio path: puts this sweep's sends on the air, in send order.
    fn put_on_air(&mut self, radio: &mut RadioMedium) {
        let Some(outbox) = &mut self.outbox else {
            return;
        };
        for tx in outbox.drain(..) {
            radio.transmit(tx, &mut self.detached);
        }
    }

    /// Radio path: advances the air to its next delivery instant; each
    /// delivered copy charges rx and is heard at the next sweep.
    fn advance_air(&mut self, radio: &mut RadioMedium) -> Option<u64> {
        let (traffic, in_flight) = (&mut self.traffic, &mut self.in_flight);
        radio.advance(&mut self.detached, |to, packet| {
            traffic[to as usize].charge_rx(&packet);
            in_flight[to as usize].push(packet);
        })
    }
}

/// Calls `f` on each recipient of a send from `from`, in delivery order
/// (broadcast and multicast skip the sender).
fn for_each_target(to: &Dest, from: NodeId, n: NodeId, f: impl FnMut(NodeId)) {
    match to {
        Dest::Broadcast => (0..n).filter(|&t| t != from).for_each(f),
        Dest::Unicast(t) => std::iter::once(*t).for_each(f),
        Dest::Multicast(set) => set.iter().copied().filter(|&t| t != from).for_each(f),
    }
}

/// One in-flight protocol run: one machine per node over a medium the run
/// owns (per-node mailboxes, traffic counters and power flags, one seeded
/// loss stream), optionally paced by a virtual-time radio.
pub struct Execution<S> {
    medium: Medium,
    /// Packets each node consumes in the current sweep (swapped in from
    /// the in-flight buffers at the top of every sweep, empty after it).
    mailboxes: Vec<Vec<Packet>>,
    /// Virtual-time radio beneath the run when [`Faults::radio`] is set;
    /// `pump` advances its clock whenever the machines are otherwise
    /// blocked on in-flight airtime.
    radio: Option<RadioMedium>,
    /// Compute energy (mJ) already debited per node, so each pump charges
    /// only the delta since the last sweep.
    comp_mj_charged: Vec<f64>,
    machines: Vec<Engine<S>>,
    keys: Vec<Option<SessionKey>>,
    failed: Option<ProtocolFault>,
    /// Observational trace hook (from [`Faults::trace`]); `last_round` and
    /// `sweeps` drive round-transition detection and the off-radio
    /// pseudo-clock.
    trace: Option<egka_trace::StepTrace>,
    last_round: Option<usize>,
    sweeps: u64,
}

impl<S: Send + Metered> Execution<S> {
    /// Builds a run over `ids.len()` nodes, applies `faults`, and
    /// constructs each node's machine via `mk` (called with the node index
    /// and the slice of all node ids, in node order — machines address
    /// peers through it).
    pub fn new(
        ids: &[UserId],
        faults: &Faults,
        mut mk: impl FnMut(usize, &[NodeId]) -> Engine<S>,
    ) -> Self {
        let n = ids.len();
        let mut detached: Vec<bool> = ids.iter().map(|id| faults.detached.contains(id)).collect();
        let radio = faults.radio.as_ref().map(|spec| {
            let mut profile = spec.profile.clone();
            if faults.loss > 0.0 {
                // The scheduler's loss (and its per-retry salt) wins over
                // the profile default, so retries re-roll the air.
                profile.loss = faults.loss;
            }
            let bank = spec.bank.clone().unwrap_or_default();
            let mut radio = RadioMedium::with_bank(profile, spec.seed ^ faults.loss_seed, bank);
            if let Some(trace) = &faults.trace {
                radio.set_trace(trace.clone());
            }
            for (id, off) in ids.iter().zip(&mut detached) {
                // A user whose battery is already dead joins powered off.
                *off |= !radio.join(id.0);
            }
            radio
        });
        let medium = Medium {
            in_flight: vec![Vec::new(); n],
            traffic: vec![TrafficStats::default(); n],
            detached,
            loss: faults.loss,
            loss_rng: Xorshift64Star::new(faults.loss_seed),
            outbox: radio.as_ref().map(|_| Vec::new()),
        };
        let node_ids: Vec<NodeId> = (0..n as NodeId).collect();
        let machines = (0..n).map(|i| mk(i, &node_ids)).collect();
        Execution {
            medium,
            mailboxes: vec![Vec::new(); n],
            radio,
            comp_mj_charged: vec![0.0; n],
            keys: vec![None; n],
            machines,
            failed: None,
            trace: faults.trace.clone(),
            last_round: None,
            sweeps: 0,
        }
    }

    /// Number of nodes in the run.
    pub fn n(&self) -> usize {
        self.machines.len()
    }

    /// True iff every machine returned [`Step::Done`].
    pub fn is_done(&self) -> bool {
        self.failed.is_none() && self.keys.iter().all(|k| k.is_some())
    }

    /// The medium's traffic counters for node `i`.
    pub fn traffic(&self, i: usize) -> TrafficStats {
        self.medium.traffic[i]
    }

    /// The machine (and through it the node state) of node `i`.
    pub fn machine(&self, i: usize) -> &Engine<S> {
        &self.machines[i]
    }

    /// The key node `i` derived, if it finished.
    pub fn key(&self, i: usize) -> Option<&SessionKey> {
        self.keys[i].as_ref()
    }

    /// The radio beneath this execution, if it runs on virtual time.
    pub fn radio(&self) -> Option<&RadioMedium> {
        self.radio.as_ref()
    }

    /// Virtual milliseconds elapsed on the run's radio clock (`None` on an
    /// instant medium).
    pub fn virtual_now_ms(&self) -> Option<f64> {
        self.radio.as_ref().map(|r| r.now_ms())
    }

    /// Debits each node's battery for compute energy accrued since the
    /// last sweep (radio executions only — the instant medium has no
    /// batteries).
    fn charge_compute(&mut self) {
        let Some(radio) = &mut self.radio else {
            return;
        };
        let cpu = radio.profile().cpu.clone();
        for (i, machine) in self.machines.iter().enumerate() {
            let mj = comp_energy_mj(&cpu, &machine.state().meter().snapshot());
            let delta = mj - self.comp_mj_charged[i];
            if delta > 0.0 {
                self.comp_mj_charged[i] = mj;
                radio.debit_compute_mj(i as NodeId, delta, &mut self.medium.detached);
            }
        }
    }

    /// Feeds node `i`'s mailbox and then polls its machine until it
    /// blocks; sends accumulate into `out` in poll order (the caller
    /// dispatches them — the machine cannot observe the medium mid-sweep,
    /// so deferring the dispatch to the end of the node's poll loop is
    /// exact). Empties the mailbox, returns whether the node progressed,
    /// and records a terminal failure in `failed`.
    fn pump_node(
        machine: &mut Engine<S>,
        key: &mut Option<SessionKey>,
        mailbox: &mut Vec<Packet>,
        failed: &mut Option<ProtocolFault>,
        out: &mut Vec<Outgoing>,
    ) -> bool {
        let mut inbox = mailbox.drain(..);
        if key.is_some() {
            return false;
        }
        let mut progressed = false;
        loop {
            let pkt = inbox.next();
            let had_packet = pkt.is_some();
            match machine.poll(pkt) {
                Step::Send(outs) => {
                    progressed = true;
                    out.extend(outs);
                }
                Step::NeedMore => {
                    if had_packet {
                        progressed = true; // buffered for a later round
                    } else {
                        return progressed;
                    }
                }
                Step::Done(k) => {
                    *key = Some(k);
                    return true;
                }
                Step::Failed(e) => {
                    *failed = Some(e);
                    return true;
                }
            }
        }
    }

    /// One non-blocking scheduling sweep: hand every node what reached it
    /// since the last sweep, then give every unfinished machine a chance
    /// to consume and send. Never waits; interleave freely with other
    /// executions.
    ///
    /// On a radio execution the sweep also keeps the air moving: sends
    /// are scheduled onto the channel, batteries are debited, and — when
    /// the machines are otherwise blocked — the virtual clock advances to
    /// the next delivery, which counts as progress. `Stalled` therefore
    /// still means what schedulers rely on: nothing in flight, nobody can
    /// move, permanently.
    pub fn pump(&mut self) -> Pump {
        self.sweep(false)
    }

    /// One sweep with the per-node machine work fanned across threads
    /// (`crate::par`) — the blocking `run()` wrappers use this to keep the
    /// big-sweep wall-clock of the lock-step drivers. Both modes produce
    /// the bit-identical event stream: machines cannot observe each
    /// other's sends within a sweep, and the parallel mode dispatches each
    /// node's buffered sends in node-index order after the machines join —
    /// the same medium interaction order (loss draws, radio schedule,
    /// trace events) as the sequential loop. A sweep in which a machine
    /// fails surfaces the same fault as the sequential loop, but the nodes
    /// after the failing one have also run (their meters moved); the run
    /// is over either way.
    fn pump_par(&mut self) -> Pump {
        self.sweep(true)
    }

    fn sweep(&mut self, parallel: bool) -> Pump {
        if let Some(e) = self.failed {
            return Pump::Failed(e);
        }
        if self.is_done() {
            return Pump::Done;
        }
        self.sweeps += 1;
        // Every mailbox is empty after a sweep, so the swap leaves the
        // in-flight buffers empty (keeping their capacity).
        std::mem::swap(&mut self.mailboxes, &mut self.medium.in_flight);
        let mut progressed = false;
        if parallel && self.machines.len() > 1 {
            struct NodeCell<'a, S> {
                machine: &'a mut Engine<S>,
                key: &'a mut Option<SessionKey>,
                mailbox: &'a mut Vec<Packet>,
                out: Vec<Outgoing>,
                failed: Option<ProtocolFault>,
                progressed: bool,
            }
            let mut cells: Vec<NodeCell<'_, S>> = self
                .machines
                .iter_mut()
                .zip(self.keys.iter_mut())
                .zip(self.mailboxes.iter_mut())
                .map(|((machine, key), mailbox)| NodeCell {
                    machine,
                    key,
                    mailbox,
                    out: Vec::new(),
                    failed: None,
                    progressed: false,
                })
                .collect();
            crate::par::par_for_each_mut(&mut cells, |_, cell| {
                cell.progressed = Self::pump_node(
                    cell.machine,
                    cell.key,
                    cell.mailbox,
                    &mut cell.failed,
                    &mut cell.out,
                );
            });
            // Join barrier passed: replay per-node outcomes in node-index
            // order — sends, then the *lowest* failing node wins (the
            // sequential loop would have stopped there).
            for (i, cell) in cells.into_iter().enumerate() {
                progressed |= cell.progressed;
                for o in cell.out {
                    self.medium.send(i as NodeId, o);
                }
                if let Some(e) = cell.failed {
                    self.failed = Some(e);
                    return Pump::Failed(e);
                }
            }
        } else {
            let mut out = Vec::new();
            for i in 0..self.machines.len() {
                if self.mailboxes[i].is_empty() && self.keys[i].is_some() {
                    continue;
                }
                progressed |= Self::pump_node(
                    &mut self.machines[i],
                    &mut self.keys[i],
                    &mut self.mailboxes[i],
                    &mut self.failed,
                    &mut out,
                );
                for o in out.drain(..) {
                    self.medium.send(i as NodeId, o);
                }
                if let Some(e) = self.failed {
                    return Pump::Failed(e);
                }
            }
        }
        self.charge_compute();
        let all_done = self.is_done();
        if let Some(radio) = &mut self.radio {
            self.medium.put_on_air(radio);
            if !progressed && !all_done && self.medium.advance_air(radio).is_some() {
                progressed = true;
            }
        }
        self.trace_rounds();
        if self.is_done() {
            if let Some(trace) = &self.trace {
                trace.finish_rounds(self.trace_rel_ns());
            }
            Pump::Done
        } else if progressed {
            Pump::Progressed
        } else {
            Pump::Stalled
        }
    }

    /// The step-relative virtual clock the trace hook stamps events with:
    /// the radio's clock when there is one, a pump-sweep pseudo-clock on
    /// the instant medium (rounds still order correctly, they just have
    /// no physical duration).
    fn trace_rel_ns(&self) -> u64 {
        match &self.radio {
            Some(r) => r.now_ns(),
            None => self.sweeps * egka_trace::SWEEP_NS,
        }
    }

    /// Reports the execution's current round — the furthest phase index
    /// any machine reached — whenever it changes (including `Restart`
    /// resets, which re-open an earlier round).
    fn trace_rounds(&mut self) {
        let Some(trace) = &self.trace else {
            return;
        };
        let round = self
            .machines
            .iter()
            .map(Engine::phase_index)
            .max()
            .unwrap_or(0);
        if self.last_round != Some(round) {
            trace.round_transition(round as u32, self.trace_rel_ns());
            self.last_round = Some(round);
        }
    }

    /// Drives the run to completion with parallel sweeps (the reliable,
    /// fault-free path of the blocking `run()` wrappers).
    ///
    /// # Panics
    /// Panics if the run stalls (on a fault-free private medium, a protocol
    /// scripting bug), fails (an injected fault outlasted the retry
    /// budget), or if a machine panics.
    pub fn run_to_completion(&mut self) {
        loop {
            match self.pump_par() {
                Pump::Done => return,
                Pump::Progressed => {}
                Pump::Stalled => panic!("protocol stalled on a reliable medium"),
                Pump::Failed(e) => panic!("protocol failed on a reliable medium: {e}"),
            }
        }
    }
}

impl<S: Send + Metered> Execution<S> {
    /// Sums every node's [`Execution::node_counts`] — valid mid-run,
    /// which is how an aborted (stalled or failed) attempt's
    /// retransmission energy gets charged.
    pub fn partial_counts(&self) -> OpCounts {
        let mut total = OpCounts::new();
        for i in 0..self.n() {
            total.merge(&self.node_counts(i));
        }
        total
    }

    /// Per-node counts (meter + traffic), the shape every `NodeReport`
    /// carries.
    pub fn node_counts(&self, i: usize) -> OpCounts {
        let mut c = self.machines[i].state().meter().snapshot();
        let t = self.traffic(i);
        c.tx_bits = t.tx_bits;
        c.rx_bits = t.rx_bits;
        c.tx_bits_actual = t.tx_bits_actual;
        c.rx_bits_actual = t.rx_bits_actual;
        c.msgs_tx = t.msgs_tx;
        c.msgs_rx = t.msgs_rx;
        c
    }
}

/// Builds the standard two-broadcast-round script shared by the proposed,
/// SSN and authenticated-BD protocols, with the paper's controller-last
/// Round-2 ordering:
///
/// 1. announce (Round 1 broadcast);
/// 2. gather the other `n−1` Round-1 messages, derive Round-2 values —
///    non-controllers broadcast theirs immediately;
/// 3. gather the other `n−1` Round-2 messages — the controller, having
///    heard everyone, broadcasts *last*;
/// 4. verify and derive (may restart the whole script: "all members
///    retransmit").
#[allow(clippy::too_many_arguments)] // one closure per protocol hook, by design
pub(crate) fn two_round_script<S: 'static>(
    idx: usize,
    round1_kind: u16,
    round2_kind: u16,
    n: usize,
    mut announce: impl FnMut(&mut S) -> Outgoing + Send + 'static,
    mut absorb_round1: impl FnMut(&mut S, &[Packet]) + Send + 'static,
    mut round2_msg: impl FnMut(&mut S) -> Outgoing + Send + 'static,
    mut absorb_round2: impl FnMut(&mut S, &[Packet]) + Send + 'static,
    mut finalize: impl FnMut(&mut S) -> PhaseOut + Send + 'static,
) -> Vec<Phase<S>> {
    type Round2Hook<S> = Box<dyn FnMut(&mut S) -> Option<Outgoing> + Send>;
    let controller = idx == 0;
    let mut round2_msg2 = None;
    let mut round2_for_p1: Round2Hook<S> = if controller {
        round2_msg2 = Some(round2_msg);
        Box::new(|_s| None)
    } else {
        Box::new(move |s| Some(round2_msg(s)))
    };
    vec![
        Phase::immediate(move |s: &mut S, _| PhaseOut::Send(vec![announce(s)])),
        Phase::gather(round1_kind, n - 1, move |s, pkts| {
            absorb_round1(s, &pkts);
            PhaseOut::Send(round2_for_p1(s).into_iter().collect())
        }),
        Phase::gather(round2_kind, n - 1, move |s, pkts| {
            absorb_round2(s, &pkts);
            PhaseOut::Send(match &mut round2_msg2 {
                Some(f) => vec![f(s)],
                None => Vec::new(),
            })
        }),
        Phase::immediate(move |s, _| finalize(s)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    struct Echo {
        meter: Meter,
        n: usize,
    }

    impl Metered for Echo {
        fn meter(&self) -> &Meter {
            &self.meter
        }
    }

    /// A toy 1-round protocol: broadcast a byte, gather n−1, "derive" the
    /// sum as the key.
    fn echo_engine(idx: usize, n: usize) -> Engine<Echo> {
        Engine::new(
            Echo {
                meter: Meter::new(),
                n,
            },
            vec![
                Phase::immediate(move |_s: &mut Echo, _| {
                    PhaseOut::Send(vec![Outgoing {
                        to: Dest::Broadcast,
                        kind: 1,
                        payload: Bytes::from(vec![idx as u8]),
                        nominal_bits: 8,
                    }])
                }),
                Phase::gather(1, n - 1, move |s: &mut Echo, pkts| {
                    let sum: u64 =
                        pkts.iter().map(|p| u64::from(p.payload[0])).sum::<u64>() + idx as u64;
                    let _ = s.n;
                    PhaseOut::Done(Ubig::from_u64(sum))
                }),
            ],
        )
    }

    #[test]
    fn execution_runs_toy_protocol_to_agreement() {
        let ids: Vec<UserId> = (0..4).map(UserId).collect();
        let mut exec = Execution::new(&ids, &Faults::none(), |i, _| echo_engine(i, 4));
        while exec.pump() == Pump::Progressed {}
        assert!(exec.is_done());
        let want = Ubig::from_u64(6); // 0 + 1 + 2 + 3
        for i in 0..4 {
            assert_eq!(exec.key(i), Some(&want));
        }
    }

    #[test]
    fn engine_stashes_out_of_round_packets() {
        let mut m = echo_engine(0, 3);
        // First poll emits the announce.
        assert!(matches!(m.poll(None), Step::Send(_)));
        // A packet from a *future* round (kind 9) arrives first: stashed.
        let stray = Packet {
            from: 7,
            kind: 9,
            payload: Bytes::from_static(&[9]),
            nominal_bits: 8,
        };
        assert!(matches!(m.poll(Some(stray)), Step::NeedMore));
        // The two round-1 packets complete the machine regardless.
        for b in [1u8, 2] {
            let p = Packet {
                from: u32::from(b),
                kind: 1,
                payload: Bytes::from(vec![b]),
                nominal_bits: 8,
            };
            match m.poll(Some(p)) {
                Step::NeedMore => assert_eq!(b, 1),
                Step::Done(k) => assert_eq!(k, Ubig::from_u64(3)),
                other => panic!("unexpected step {other:?}"),
            }
        }
    }

    #[test]
    fn detached_member_stalls_only_its_run() {
        let ids: Vec<UserId> = (0..3).map(UserId).collect();
        let faults = Faults {
            detached: vec![UserId(1)],
            ..Faults::default()
        };
        let mut stalled = Execution::new(&ids, &faults, |i, _| echo_engine(i, 3));
        let mut healthy = Execution::new(&ids, &Faults::none(), |i, _| echo_engine(i, 3));
        // Interleave: healthy finishes, stalled reports Stalled forever.
        loop {
            let h = healthy.pump();
            let s = stalled.pump();
            if h == Pump::Done {
                assert_ne!(s, Pump::Done, "node 1's silence must stall the run");
                break;
            }
        }
        // Once nothing is in flight, the stall is stable and permanent.
        for _ in 0..3 {
            assert_eq!(stalled.pump(), Pump::Stalled);
        }
        assert!(!stalled.is_done());
    }

    #[test]
    fn radio_execution_agrees_and_spends_virtual_time() {
        let ids: Vec<UserId> = (0..4).map(UserId).collect();
        let faults = Faults {
            radio: Some(RadioSpec {
                profile: RadioProfile::sensor_100kbps(),
                seed: 0xa1,
                bank: None,
            }),
            ..Faults::default()
        };
        let mut exec = Execution::new(&ids, &faults, |i, _| echo_engine(i, 4));
        while exec.pump() == Pump::Progressed {}
        assert!(exec.is_done(), "radio pacing must not change the outcome");
        let want = Ubig::from_u64(6);
        for i in 0..4 {
            assert_eq!(exec.key(i), Some(&want));
        }
        // Four 8-bit announcements serialized at 100 kbps = 4 × 0.08 ms of
        // airtime, plus ≥ 2 ms of link delay on the last delivery.
        let t = exec.virtual_now_ms().expect("radio clock");
        assert!(t >= 0.32 + 2.0, "virtual time {t} ms too small");
        // Batteries were debited (mains bank: accounted, nobody dies).
        let bank = exec.radio().unwrap().bank().clone();
        assert!(bank.spent_uj(0) > 0.0);
    }

    #[test]
    fn ideal_radio_reproduces_the_instant_medium_bit_for_bit() {
        let ids: Vec<UserId> = (0..5).map(UserId).collect();
        let run = |faults: &Faults| {
            let mut exec = Execution::new(&ids, faults, |i, _| echo_engine(i, 5));
            while exec.pump() == Pump::Progressed {}
            assert!(exec.is_done());
            let keys: Vec<_> = (0..5).map(|i| exec.key(i).cloned()).collect();
            let counts = exec.partial_counts();
            (keys, counts)
        };
        let instant = run(&Faults::none());
        let radio = run(&Faults {
            radio: Some(RadioSpec {
                profile: RadioProfile::ideal(),
                seed: 9,
                bank: None,
            }),
            ..Faults::default()
        });
        assert_eq!(instant, radio);
    }

    #[test]
    fn battery_death_stalls_the_run_through_the_detach_path() {
        // Node 1 can afford its own transmission but not much reception:
        // it browns out mid-protocol and the run stalls exactly like a
        // detached member — the fault the schedulers already survive.
        let bank = BatteryBank::infinite();
        bank.set_capacity(1, 200.0); // µJ; one 8-bit tx ≈ 86.4, one rx ≈ 60
        let ids: Vec<UserId> = (0..3).map(UserId).collect();
        let faults = Faults {
            radio: Some(RadioSpec {
                profile: RadioProfile::sensor_100kbps(),
                seed: 4,
                bank: Some(bank.clone()),
            }),
            ..Faults::default()
        };
        let mut exec = Execution::new(&ids, &faults, |i, _| echo_engine(i, 3));
        while exec.pump() == Pump::Progressed {}
        assert!(!exec.is_done(), "a dead member cannot finish");
        assert_eq!(exec.pump(), Pump::Stalled, "permanent, like detachment");
        assert!(bank.is_dead(1));
        assert!(!bank.is_dead(0));
        // A later execution over the same bank sees the death immediately:
        // the user joins powered off.
        let mut next = Execution::new(&ids, &faults, |i, _| echo_engine(i, 3));
        while next.pump() == Pump::Progressed {}
        assert!(!next.is_done());
    }

    /// Drives an echo run with either pump flavor and snapshots everything
    /// observable: per-node keys, merged op counts, the virtual clock and
    /// the drained trace events (timestamps included).
    #[allow(clippy::type_complexity)]
    fn echo_run(
        faults: &Faults,
        n: usize,
        par: bool,
    ) -> (
        Vec<Option<Ubig>>,
        OpCounts,
        Option<f64>,
        Vec<egka_trace::Event>,
    ) {
        let ids: Vec<UserId> = (0..n as u32).map(UserId).collect();
        let mut exec = Execution::new(&ids, faults, |i, _| echo_engine(i, n));
        loop {
            let p = if par { exec.pump_par() } else { exec.pump() };
            if p != Pump::Progressed {
                break;
            }
        }
        let keys = (0..n).map(|i| exec.key(i).cloned()).collect();
        let counts = exec.partial_counts();
        let clock = exec.virtual_now_ms();
        let events = faults.trace.as_ref().map(|t| t.drain()).unwrap_or_default();
        (keys, counts, clock, events)
    }

    #[test]
    fn parallel_pump_matches_sequential_under_loss() {
        // Seeded loss on the instant medium: the loss draws happen at
        // dispatch time, so this pins the parallel sweep's in-order
        // buffered dispatch (a reordered dispatch would shuffle which
        // deliveries drop).
        for seed in [1u64, 7, 0xbeef] {
            let faults = Faults {
                loss: 0.35,
                loss_seed: seed,
                ..Faults::default()
            };
            assert_eq!(
                echo_run(&faults, 5, false),
                echo_run(&faults, 5, true),
                "loss seed {seed}"
            );
        }
    }

    #[test]
    fn parallel_pump_matches_sequential_on_radio_with_trace() {
        // Radio + trace used to force the sequential fallback; now the
        // parallel sweep must reproduce the channel schedule and the
        // traced event stream bit for bit, virtual timestamps included.
        let mk_faults = || Faults {
            radio: Some(RadioSpec {
                profile: RadioProfile::sensor_100kbps(),
                seed: 0x77,
                bank: None,
            }),
            trace: Some(egka_trace::StepTrace::new(1, 42, 10_000)),
            ..Faults::default()
        };
        let seq_faults = mk_faults();
        let par_faults = mk_faults();
        let seq = echo_run(&seq_faults, 6, false);
        let par = echo_run(&par_faults, 6, true);
        assert_eq!(seq.0, par.0, "keys");
        assert_eq!(seq.1, par.1, "op counts");
        assert_eq!(seq.2, par.2, "virtual clock");
        assert_eq!(seq.3, par.3, "trace event streams (with timestamps)");
        assert!(!seq.3.is_empty(), "trace must have recorded rounds");
    }

    /// [`echo_engine`], except that nodes 1 and 3 give up instead of
    /// deriving, each naming itself as the fault's attempt count.
    fn failing_echo_engine(idx: usize, n: usize) -> Engine<Echo> {
        let mut engine = echo_engine(idx, n);
        if idx == 1 || idx == 3 {
            let fault = ProtocolFault::RetryExhausted {
                attempts: idx as u32,
            };
            engine.phases[1].act = Box::new(move |_, _| PhaseOut::Fail(fault));
        }
        engine
    }

    #[test]
    fn both_pumps_surface_the_lowest_failing_nodes_fault() {
        let ids: Vec<UserId> = (0..5).map(UserId).collect();
        let want = Pump::Failed(ProtocolFault::RetryExhausted { attempts: 1 });
        for par in [false, true] {
            let mut exec = Execution::new(&ids, &Faults::none(), |i, _| failing_echo_engine(i, 5));
            let mut last = Pump::Progressed;
            while last == Pump::Progressed {
                last = if par { exec.pump_par() } else { exec.pump() };
            }
            assert_eq!(last, want, "parallel: {par}");
            assert_eq!(exec.pump(), want, "a failed run stays failed");
            assert!(!exec.is_done());
        }
    }

    #[test]
    fn partial_counts_account_an_aborted_attempt() {
        let ids: Vec<UserId> = (0..3).map(UserId).collect();
        let faults = Faults {
            detached: vec![UserId(0)],
            ..Faults::default()
        };
        let mut exec = Execution::new(&ids, &faults, |i, _| echo_engine(i, 3));
        while exec.pump() == Pump::Progressed {}
        assert!(!exec.is_done());
        // Nodes 1 and 2 still transmitted their announcements.
        let counts = exec.partial_counts();
        assert_eq!(counts.msgs_tx, 2);
    }

    /// A bare instant medium over `n` nodes.
    fn medium(n: usize, loss: f64, seed: u64) -> Medium {
        Medium {
            in_flight: vec![Vec::new(); n],
            traffic: vec![TrafficStats::default(); n],
            detached: vec![false; n],
            loss,
            loss_rng: Xorshift64Star::new(seed),
            outbox: None,
        }
    }

    fn out(to: Dest, kind: u16, payload: &'static [u8], nominal_bits: u64) -> Outgoing {
        Outgoing {
            to,
            kind,
            payload: Bytes::from_static(payload),
            nominal_bits,
        }
    }

    /// Which kinds each node has in flight.
    fn heard(w: &Medium) -> Vec<Vec<u16>> {
        w.in_flight
            .iter()
            .map(|b| b.iter().map(|p| p.kind).collect())
            .collect()
    }

    #[test]
    fn broadcast_unicast_and_multicast_reach_exactly_their_targets() {
        let mut w = medium(4, 0.0, 1);
        w.send(0, out(Dest::Broadcast, 7, b"hello", 2080));
        assert_eq!(
            heard(&w),
            vec![vec![], vec![7], vec![7], vec![7]],
            "no self-delivery"
        );
        let p = &w.in_flight[2][0];
        assert_eq!((p.from, p.payload.as_ref()), (0, &b"hello"[..]));
        let mut w = medium(3, 0.0, 1);
        w.send(0, out(Dest::Unicast(1), 1, b"x", 8));
        assert_eq!(heard(&w), vec![vec![], vec![1], vec![]]);
        let mut w = medium(4, 0.0, 1);
        w.send(0, out(Dest::Multicast(vec![1, 3, 0]), 5, b"m", 64));
        assert_eq!(
            heard(&w),
            vec![vec![], vec![5], vec![], vec![5]],
            "self in the set is skipped"
        );
        assert_eq!(w.traffic[0].msgs_tx, 1);
        assert_eq!(w.traffic[2].msgs_rx, 0);
    }

    #[test]
    fn nominal_and_actual_bits_accounted() {
        let mut w = medium(2, 0.0, 1);
        w.send(0, out(Dest::Broadcast, 0, b"abcd", 2080)); // 4 bytes actual
        let (a, b) = (w.traffic[0], w.traffic[1]);
        assert_eq!((a.tx_bits, a.tx_bits_actual, a.msgs_tx), (2080, 32, 1));
        assert_eq!((b.rx_bits, b.rx_bits_actual, b.msgs_rx), (2080, 32, 1));
        // n nodes, each broadcasting 2 messages: every node receives 2(n−1).
        let n = 5;
        let mut w = medium(n, 0.0, 1);
        for from in 0..n as NodeId {
            w.send(from, out(Dest::Broadcast, 1, b"", 100));
            w.send(from, out(Dest::Broadcast, 2, b"", 100));
        }
        for t in &w.traffic {
            assert_eq!((t.msgs_tx, t.msgs_rx), (2, 2 * (n as u64 - 1)));
        }
    }

    #[test]
    fn detached_node_is_silent_and_uncharged() {
        let mut w = medium(2, 0.0, 1);
        w.detached[1] = true;
        w.send(1, out(Dest::Broadcast, 0, b"", 8));
        w.send(0, out(Dest::Broadcast, 0, b"", 8));
        assert_eq!(heard(&w), vec![vec![], vec![]]);
        assert_eq!(
            w.traffic[1],
            TrafficStats::default(),
            "detached sends are not charged"
        );
        assert_eq!(w.traffic[0].msgs_tx, 1);
    }

    #[test]
    fn dropped_copy_charges_tx_only() {
        let mut w = medium(2, 0.5, 1);
        for _ in 0..1000 {
            w.send(0, out(Dest::Broadcast, 0, b"", 8));
        }
        let got = w.traffic[1].msgs_rx;
        assert!((300..700).contains(&got), "50% loss delivered {got}/1000");
        assert_eq!(
            w.in_flight[1].len() as u64,
            got,
            "rx charged per delivered copy"
        );
        assert_eq!(w.traffic[0].msgs_tx, 1000, "every transmission is charged");
    }

    #[test]
    fn same_seed_gives_the_same_drops() {
        let pattern = |seed: u64| {
            let mut w = medium(3, 0.4, seed);
            for k in 0..64 {
                w.send(0, out(Dest::Broadcast, k, b"", 8));
            }
            heard(&w)
        };
        assert_eq!(pattern(7), pattern(7));
        assert_ne!(pattern(1), pattern(2), "seeds decorrelate the pattern");
    }

    #[test]
    fn a_send_is_visible_only_from_the_next_sweep() {
        // Sweep 1: node 0 announces before node 1 is polled, yet node 1
        // must not see it until sweep 2 (every golden depends on this
        // boundary).
        let ids: Vec<UserId> = (0..2).map(UserId).collect();
        let mut exec = Execution::new(&ids, &Faults::none(), |i, _| echo_engine(i, 2));
        assert_eq!(exec.pump(), Pump::Progressed);
        assert_eq!(exec.key(1), None);
        assert_eq!(
            exec.medium.in_flight[1].len(),
            1,
            "node 0's packet waits for sweep 2"
        );
        assert_eq!(exec.pump(), Pump::Done);
        assert_eq!(exec.key(1), Some(&Ubig::from_u64(1)));
    }
}
