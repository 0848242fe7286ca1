//! The simulation engine: world state, protocol trait, event loop.

use crate::adversary::{AdversaryPlan, AdversaryState, AdversaryStats};
use crate::audit::{AuditConfig, AuditReport, SimAuditor};
use crate::event::{EngineEvent, EventHandle, EventQueue};
use crate::fault::{FaultDecision, FaultPlan, FaultState, FaultStats};
use crate::transport::{Carrier, InMemory, ScratchGuard, ScratchSlot, Transport};
use asap_metrics::{LoadRecorder, MsgClass, QueryLedger, RetryCounters, RetryStat};
use asap_overlay::{Overlay, OverlayKind, PeerId};
use asap_topology::{LatencyCoord, PhysNodeId, PhysicalNetwork};
use asap_trace::{Event as TraceEvt, TraceSink};
use asap_workload::{ContentModel, ContentState, DocId, QuerySpec, TraceEvent, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A search algorithm under test. The backend owns the world (overlay,
/// liveness, content, clock); the protocol owns its own per-node state and
/// reacts to events through these hooks. Every hook is generic over the
/// [`Transport`] it runs against; the engine's [`Ctx`] is the one
/// implementation, on either message [`Carrier`].
pub trait Protocol {
    /// Protocol-specific message payload.
    type Msg: Clone;

    /// Called once at time 0, before any trace event — e.g. ASAP's initial
    /// ad delivery wave.
    fn on_init<C: Transport<Msg = Self::Msg>>(&mut self, ctx: &mut C) {
        let _ = ctx;
    }

    /// A search request issued at `ctx.now_us()` by `query.requester`.
    fn on_query<C: Transport<Msg = Self::Msg>>(&mut self, ctx: &mut C, query: &QuerySpec);

    /// A message delivered to live node `to`.
    fn on_message<C: Transport<Msg = Self::Msg>>(
        &mut self,
        ctx: &mut C,
        to: PeerId,
        from: PeerId,
        msg: Self::Msg,
    );

    /// A timer set via [`Transport::set_timer`] fired at live node `node`.
    fn on_timer<C: Transport<Msg = Self::Msg>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
        let _ = (ctx, node, tag);
    }

    /// `node` joined (overlay already re-attached).
    fn on_join<C: Transport<Msg = Self::Msg>>(&mut self, ctx: &mut C, node: PeerId) {
        let _ = (ctx, node);
    }

    /// `node` departed (overlay already detached).
    fn on_leave<C: Transport<Msg = Self::Msg>>(&mut self, ctx: &mut C, node: PeerId) {
        let _ = (ctx, node);
    }

    /// `peer`'s shared content changed (state already updated).
    fn on_content_change<C: Transport<Msg = Self::Msg>>(
        &mut self,
        ctx: &mut C,
        peer: PeerId,
        doc: DocId,
        added: bool,
    ) {
        let _ = (ctx, peer, doc, added);
    }

    /// Protocol-level invariant sweep, called once at the end of an
    /// **audited** run (never on unaudited runs). Return one message per
    /// violated protocol invariant; they land in the
    /// [`AuditReport`] beside the engine's own.
    fn audit_invariants<C: Transport<Msg = Self::Msg>>(&self, ctx: &C) -> Vec<String> {
        let _ = ctx;
        Vec::new()
    }
}

/// The world as seen by a protocol: clock, overlay, liveness, content,
/// messaging, timers, metrics. `C` is what the event queue holds for a
/// message in flight (see [`Carrier`]); the default queues `M` itself.
pub struct Ctx<'a, M, C: Carrier<M> = InMemory> {
    pub(crate) now_us: u64,
    /// Sequence number of the event being dispatched: with `now_us`, the
    /// `(time, seq)` key the auditor requires to increase.
    pub(crate) seq: u64,
    pub(crate) queue: EventQueue<C::Packed>,
    /// Packs in [`Ctx::send`], unpacks at dispatch; zero-sized on the
    /// default carrier.
    pub(crate) carrier: C,
    /// The mutable overlay graph (read via [`Ctx::neighbors`]).
    pub overlay: Overlay,
    pub(crate) overlay_kind: OverlayKind,
    pub(crate) alive: Vec<bool>,
    pub(crate) alive_count: usize,
    /// The live peers in ascending id order, maintained incrementally on
    /// join/leave so re-attachment never rebuilds it from the bitmap.
    pub(crate) alive_list: Vec<PeerId>,
    /// Reusable per-event buffer slot (see [`Ctx::scratch`]). Shared with
    /// outstanding [`ScratchGuard`]s so the guard can return capacity on
    /// drop while the protocol keeps using `ctx`.
    pub(crate) scratch: ScratchSlot,
    /// Evolving shared-content state.
    pub content: ContentState,
    /// The static content model (documents, interests, vocabulary).
    pub model: &'a ContentModel,
    pub(crate) phys: &'a PhysicalNetwork,
    /// Each peer's place in the physical hierarchy, resolved once at
    /// placement: a send reads two of these and the transit table.
    pub(crate) coords: Vec<LatencyCoord>,
    /// Deterministic per-run RNG for protocol decisions.
    pub rng: SmallRng,
    /// Byte/load accounting.
    pub load: LoadRecorder,
    /// Query outcome accounting.
    pub ledger: QueryLedger,
    /// Robustness-event accounting (see [`Ctx::count`]).
    pub(crate) retry: RetryCounters,
    /// Deliveries dropped because [`Carrier::unpack`] rejected them.
    pub(crate) wire_errors: u64,
    pub(crate) horizon_us: u64,
    pub(crate) trace_end_us: u64,
    pub(crate) run_seed: u64,
    /// Optional invariant auditor, fed by [`Transport::trace`] (off by
    /// default: one pointer test per event when disabled).
    pub(crate) audit: Option<Box<SimAuditor>>,
    /// Optional fault-injection layer (off by default, like the auditor).
    pub(crate) faults: Option<Box<FaultState>>,
    /// Optional adversary layer (off by default, like the fault layer: one
    /// pointer test per send when disabled).
    pub(crate) adversary: Option<Box<AdversaryState>>,
    /// Optional trace sink, the tap's second consumer (off by default: one
    /// pointer test per event when disabled, and event construction is
    /// deferred behind a closure so a run with neither consumer does no
    /// work at all).
    pub(crate) trace: Option<Box<dyn TraceSink>>,
    /// Event-loop phase counters and queue-depth high-water marks, always on
    /// (plain integer increments).
    pub(crate) profile: EngineProfile,
}

/// Always-on event-loop profile: phase counters and queue-depth high-water
/// marks. Surfaced via [`SimReport::profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineProfile {
    /// Messages sent (before fault decisions): the engine's one send
    /// counter, which [`SimReport::messages_sent`] reports.
    pub sends: u64,
    /// Deliver events dispatched (dead-target drops included).
    pub delivers: u64,
    /// Timer events dispatched (dead-node drops included).
    pub timers_fired: u64,
    /// Timers armed via [`Ctx::set_timer`].
    pub timers_set: u64,
    /// Workload trace events applied (queries, content changes, churn).
    pub trace_events: u64,
    /// Trace-sink records emitted (0 when tracing is disabled).
    pub trace_records: u64,
    /// Highest event-queue depth observed at dispatch.
    pub queue_hwm: usize,
    /// Events still queued past the horizon when the run stopped.
    pub past_horizon: u64,
}

impl<'a, M, C: Carrier<M>> Ctx<'a, M, C> {
    /// One-way network latency between two peers, µs.
    #[inline]
    pub fn latency_us(&self, a: PeerId, b: PeerId) -> u64 {
        self.phys
            .coord_latency_us(self.coords[a.index()], self.coords[b.index()])
    }

    /// Total messages sent so far (all classes).
    pub fn messages_sent(&self) -> u64 {
        self.profile.sends
    }

    /// Deliveries dropped so far because [`Carrier::unpack`] rejected them
    /// (what [`SimReport::wire_errors`] ends up as).
    pub fn wire_errors(&self) -> u64 {
        self.wire_errors
    }

    /// The auditor's overlay sweep, run after churn (a state check, not an
    /// event).
    fn check_overlay(&mut self) {
        if let Some(a) = self.audit.as_deref_mut() {
            a.check_overlay(&self.overlay, &self.alive, self.alive_count);
        }
    }
}

/// The engine is the one [`Transport`]. `Ctx` has no inherent twin of any
/// method here: callers holding a concrete `Ctx` import the trait.
impl<'a, M: Clone, C: Carrier<M>> Transport for Ctx<'a, M, C> {
    type Msg = M;

    #[inline]
    fn now_us(&self) -> u64 {
        self.now_us
    }

    #[inline]
    fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Delivery is scheduled after the network latency; a message reaching
    /// a dead node is dropped there.
    ///
    /// With a fault layer attached ([`SimBuilder::faults`]) the message
    /// may additionally be dropped, jittered, or duplicated *after* the
    /// bytes are charged — the sender paid for the transmission either way,
    /// so the byte-reconciliation invariant is untouched by faults.
    ///
    /// Every send emits exactly one of `Send`, `FaultDrop` or
    /// `AdversaryAbsorb`, each carrying the billed class and bytes — the
    /// auditor's send mirror counts on it.
    fn send(&mut self, from: PeerId, to: PeerId, class: MsgClass, bytes: usize, msg: M) {
        debug_assert_ne!(from, to, "no self-messages");
        self.load.record(self.now_us, class, bytes);
        self.profile.sends += 1;
        let billed = bytes as u32;
        // Free-riding targets absorb request-class messages: the bytes are
        // already charged (the sender paid), but nothing is queued — the
        // message reaches the recipient and dies there. The decision draws
        // no randomness, so the fault stream below stays untouched.
        if let Some(adv) = self.adversary.as_deref_mut() {
            if adv.absorb(to, class) {
                self.trace(|| TraceEvt::AdversaryAbsorb {
                    from,
                    to,
                    class,
                    bytes: billed,
                });
                return;
            }
        }
        let decision = match self.faults.as_deref_mut() {
            Some(f) => f.decide(self.now_us, from, to),
            None => FaultDecision::CLEAN,
        };
        let base = self.now_us.saturating_add(self.latency_us(from, to));
        match decision {
            FaultDecision::Drop { partition } => {
                self.trace(|| TraceEvt::FaultDrop {
                    from,
                    to,
                    class,
                    bytes: billed,
                    partition,
                });
            }
            FaultDecision::Deliver {
                jitter_us,
                duplicate_jitter_us,
            } => {
                let copy = duplicate_jitter_us.map(|dj| (dj, msg.clone()));
                // Delivered sends carry the scheduled delay (latency plus
                // fault jitter); dropped sends show up as `fault-drop`
                // instead, so the latency histograms see deliveries only.
                let deliver_at = base.saturating_add(jitter_us);
                let delay_us = deliver_at - self.now_us;
                self.trace(|| TraceEvt::Send {
                    from,
                    to,
                    class,
                    bytes: billed,
                    delay_us,
                });
                self.queue.push(
                    deliver_at,
                    EngineEvent::Deliver {
                        to,
                        from,
                        msg: self.carrier.pack(from, to, class, bytes, msg),
                        dup: false,
                    },
                );
                if let Some((dj, msg)) = copy {
                    self.trace(|| TraceEvt::FaultDuplicate { from, to });
                    self.queue.push(
                        base.saturating_add(dj),
                        EngineEvent::Deliver {
                            to,
                            from,
                            msg: self.carrier.pack(from, to, class, bytes, msg),
                            dup: true,
                        },
                    );
                }
            }
        }
    }

    fn set_timer(&mut self, node: PeerId, delay_us: u64, tag: u64) -> EventHandle {
        self.profile.timers_set += 1;
        self.trace(|| TraceEvt::TimerSet {
            node,
            delay_us,
            tag,
        });
        // Saturating: a delay near `u64::MAX` means "never" (it lands past
        // any horizon), not a wrap into the past that fires at once.
        let fire_at = self.now_us.saturating_add(delay_us);
        self.queue.push(fire_at, EngineEvent::Timer { node, tag })
    }

    /// See [`EventQueue::cancel`] for the return value's semantics.
    fn cancel_timer(&mut self, handle: EventHandle) -> bool {
        let cancelled = self.queue.cancel(handle);
        self.trace(|| TraceEvt::TimerCancelled { cancelled });
        cancelled
    }

    #[inline]
    fn scratch(&mut self) -> ScratchGuard {
        self.scratch.lease()
    }

    #[inline]
    fn content(&self) -> &ContentState {
        &self.content
    }

    #[inline]
    fn model(&self) -> &ContentModel {
        self.model
    }

    #[inline]
    fn neighbors(&self, p: PeerId) -> &[PeerId] {
        self.overlay.neighbors(p)
    }

    #[inline]
    fn degree(&self, p: PeerId) -> usize {
        self.overlay.degree(p)
    }

    #[inline]
    fn alive(&self, p: PeerId) -> bool {
        self.alive[p.index()]
    }

    #[inline]
    fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Maintained incrementally — no per-call allocation or scan.
    #[inline]
    fn alive_peers(&self) -> &[PeerId] {
        debug_assert_eq!(self.alive_list.len(), self.alive_count);
        &self.alive_list
    }

    #[inline]
    fn num_peers(&self) -> usize {
        self.alive.len()
    }

    #[inline]
    fn is_answered(&self, query: u32) -> bool {
        self.ledger.is_answered(query)
    }

    fn report_answer(&mut self, query_id: u32) {
        self.ledger.answer(query_id, self.now_us);
        self.trace(|| TraceEvt::QueryAnswered { id: query_id });
    }

    /// The auditor keeps an independent mirror (fed by the `Counter`
    /// event) and reconciles it exactly at the end of the run — the same
    /// double-entry discipline as `send`'s byte accounting.
    fn count(&mut self, stat: RetryStat) {
        self.retry.record(stat);
        self.trace(|| TraceEvt::Counter { stat });
    }

    /// The engine's one tap: the event is built once, folded by the
    /// auditor under the dispatch key `(now_us, seq)`, then recorded by the
    /// sink. Neither touches engine state, randomness, or scheduling.
    #[inline]
    fn trace(&mut self, f: impl FnOnce() -> TraceEvt) {
        if self.audit.is_none() && self.trace.is_none() {
            return;
        }
        let ev = f();
        if let Some(a) = self.audit.as_deref_mut() {
            a.observe(self.now_us, self.seq, &ev);
        }
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(self.now_us, &ev);
            self.profile.trace_records += 1;
        }
    }
}

/// Result of a finished run: metrics plus the protocol object (for
/// protocol-specific statistics such as ad-cache occupancy).
pub struct SimReport<P> {
    pub load: LoadRecorder,
    pub ledger: QueryLedger,
    pub protocol: P,
    pub messages_sent: u64,
    /// Deliveries dropped because the carrier could not unpack them
    /// (always 0 on [`InMemory`]; nonzero on a wire carrier means the
    /// codec regressed).
    pub wire_errors: u64,
    pub end_time_us: u64,
    /// Final liveness map.
    pub alive: Vec<bool>,
    /// Final overlay graph.
    pub overlay: Overlay,
    /// Robustness counters accumulated via [`Ctx::count`].
    pub retry: RetryCounters,
    /// Fault-layer statistics; `Some` iff the run was built with
    /// [`SimBuilder::faults`].
    pub faults: Option<FaultStats>,
    /// Adversary-layer statistics; `Some` iff the run was built with
    /// [`SimBuilder::adversary`].
    pub adversary: Option<AdversaryStats>,
    /// Invariant-audit outcome; `Some` iff the run was built with
    /// [`SimBuilder::audit`].
    pub audit: Option<AuditReport>,
    /// The trace sink handed to [`SimBuilder::trace`], after observing the
    /// whole run; `None` when tracing was off. Downcast via
    /// [`asap_trace::TraceSink::into_any`] to recover a concrete recorder.
    pub trace: Option<Box<dyn TraceSink>>,
    /// Event-loop phase counters and queue high-water marks (always on).
    pub profile: EngineProfile,
}

/// A configured simulation, ready to run.
pub struct Simulation<'a, P: Protocol, C: Carrier<P::Msg> = InMemory> {
    pub(crate) ctx: Ctx<'a, P::Msg, C>,
    pub(crate) protocol: P,
    /// Whether `on_init` has run (set before the first dispatched event, and
    /// restored from checkpoints so a resumed run never re-initializes).
    pub(crate) started: bool,
    /// Whether the run has ended: the horizon was crossed or the event queue
    /// drained. A halted simulation dispatches nothing further.
    pub(crate) halted: bool,
}

/// Typed configuration for a [`Simulation`], obtained from
/// [`Simulation::builder`] (or [`SimBuilder::new`] on a non-default
/// [`Carrier`]). Optional layers (audit, faults, tracing, horizon
/// override) are attached here; [`SimBuilder::build`] or the
/// [`SimBuilder::run`] shorthand produce the configured simulation.
pub struct SimBuilder<'a, P: Protocol, C: Carrier<P::Msg> = InMemory> {
    sim: Simulation<'a, P, C>,
}

impl<'a, P: Protocol, C: Carrier<P::Msg>> SimBuilder<'a, P, C> {
    /// Start configuring a simulation: peers are mapped onto distinct random
    /// physical nodes, the trace is preloaded, and initial liveness comes
    /// from the workload (joiners start offline **and detached**). Optional
    /// layers are attached on the returned builder.
    pub fn new(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        overlay: Overlay,
        overlay_kind: OverlayKind,
        protocol: P,
        seed: u64,
    ) -> Self {
        Self {
            sim: Simulation::assemble(phys, workload, overlay, overlay_kind, protocol, seed),
        }
    }

    /// Enable the invariant auditor for this run; the resulting
    /// [`SimReport::audit`] carries violations, check counts, and the
    /// event-stream digest. See [`crate::audit`] for what is checked.
    pub fn audit(mut self, _: AuditConfig) -> Self {
        self.sim.attach_audit();
        self
    }

    /// Attach a fault-injection plan for this run (off by default — an
    /// un-faulted run pays one pointer test per send). The fault layer uses
    /// a dedicated RNG stream derived from the run seed, so attaching an
    /// inert plan reproduces a fault-free run bit-for-bit; see
    /// [`crate::fault`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.sim.attach_faults(plan);
        self
    }

    /// Attach an adversary plan for this run (off by default — an honest run
    /// pays one pointer test per send). Roles are assigned once, on a
    /// dedicated RNG stream derived from the run seed, and eclipse targets
    /// are rewired immediately; attaching an inert plan reproduces an
    /// adversary-free run bit-for-bit. See [`crate::adversary`].
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`AdversaryPlan::validate`].
    pub fn adversary(mut self, plan: AdversaryPlan) -> Self {
        self.sim.attach_adversary(plan);
        self
    }

    /// Override the simulation horizon (default: trace end + 30 s). Events
    /// scheduled past the horizon — periodic protocol timers, stragglers —
    /// are discarded, which is what terminates a run whose protocol re-arms
    /// timers forever (ASAP's refresh beacons).
    pub fn horizon_grace(mut self, grace_us: u64) -> Self {
        self.sim.set_horizon_grace(grace_us);
        self
    }

    /// Attach a trace sink: every engine and protocol event reaches
    /// [`TraceSink::record`] stamped with the virtual clock. Sinks are
    /// passive, so a traced run replays bit-identically to an untraced one;
    /// the sink comes back out through [`SimReport::trace`].
    pub fn trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sim.ctx.trace = Some(sink);
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Simulation<'a, P, C> {
        self.sim
    }

    /// Shorthand for `build().run()`.
    pub fn run(self) -> SimReport<P> {
        self.sim.run()
    }
}

impl<'a, P: Protocol> Simulation<'a, P> {
    /// [`SimBuilder::new`] on the default in-memory carrier. Defined on
    /// that instantiation only (the `HashMap::new` pattern) so callers
    /// never have to name the carrier.
    pub fn builder(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        overlay: Overlay,
        overlay_kind: OverlayKind,
        protocol: P,
        seed: u64,
    ) -> SimBuilder<'a, P> {
        SimBuilder::new(phys, workload, overlay, overlay_kind, protocol, seed)
    }
}

impl<'a, P: Protocol, C: Carrier<P::Msg>> Simulation<'a, P, C> {
    fn assemble(
        phys: &'a PhysicalNetwork,
        workload: &'a Workload,
        mut overlay: Overlay,
        overlay_kind: OverlayKind,
        protocol: P,
        seed: u64,
    ) -> Self {
        let n = workload.model.num_peers();
        // lint: allow(release-assert, reason=construction-time validation; Simulation::assemble runs before any event dispatch)
        assert_eq!(overlay.num_peers(), n, "overlay/workload size mismatch");
        // lint: allow(release-assert, reason=construction-time validation; Simulation::assemble runs before any event dispatch)
        assert!(
            phys.num_nodes() >= n,
            "need at least as many physical nodes as peers"
        );
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x51AE_0F5A_1769);

        // Random distinct physical placement (partial Fisher–Yates), each
        // node resolved to its latency coordinate once, here.
        let mut ids: Vec<u32> = (0..phys.num_nodes() as u32).collect();
        crate::spread::pick_front(&mut rng, &mut ids, n);
        let coords: Vec<LatencyCoord> = ids[..n]
            .iter()
            .map(|&i| phys.coord(PhysNodeId(i)))
            .collect();

        // Initially-offline joiners are not wired into the overlay yet.
        let alive = workload.initially_alive.clone();
        for (i, &a) in alive.iter().enumerate() {
            if !a {
                overlay.detach(PeerId(i as u32));
            }
        }
        let alive_count = alive.iter().filter(|&&a| a).count();
        let alive_list: Vec<PeerId> = alive
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| PeerId(i as u32))
            .collect();

        let mut queue = EventQueue::new();
        for te in &workload.trace.events {
            queue.push(te.time_us, EngineEvent::Trace(te.event.clone()));
        }

        let mut load = LoadRecorder::new();
        load.set_alive(0, alive_count);
        let trace_end_us = workload.trace.duration_us();

        let ctx = Ctx {
            trace_end_us,
            // Default horizon: 30 s of grace after the last trace event, so
            // in-flight searches settle but periodic timers can't run the
            // simulation forever.
            horizon_us: trace_end_us + 30_000_000,
            now_us: 0,
            seq: 0,
            queue,
            carrier: C::default(),
            overlay,
            overlay_kind,
            alive,
            alive_count,
            alive_list,
            scratch: ScratchSlot::default(),
            content: ContentState::from_model(&workload.model),
            model: &workload.model,
            phys,
            coords,
            rng,
            load,
            ledger: QueryLedger::new(),
            retry: RetryCounters::new(),
            wire_errors: 0,
            run_seed: seed,
            audit: None,
            faults: None,
            adversary: None,
            trace: None,
            profile: EngineProfile::default(),
        };
        Self {
            ctx,
            protocol,
            started: false,
            halted: false,
        }
    }

    fn attach_audit(&mut self) {
        self.ctx.audit = Some(Box::new(SimAuditor::new(&self.ctx.alive)));
    }

    fn attach_faults(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate() {
            // lint: allow(release-assert, reason=documented construction-time rejection of invalid plans, before run starts)
            panic!("invalid fault plan: {e}");
        }
        self.ctx.faults = Some(Box::new(FaultState::new(plan, self.ctx.run_seed)));
    }

    fn attach_adversary(&mut self, plan: AdversaryPlan) {
        if let Err(e) = plan.validate() {
            // lint: allow(release-assert, reason=documented construction-time rejection of invalid plans, before run starts)
            panic!("invalid adversary plan: {e}");
        }
        let mut state = AdversaryState::new(plan, self.ctx.alive.len(), self.ctx.run_seed);
        let rewired = self.eclipse_rewire(&state);
        state.note_eclipsed(rewired);
        self.ctx.adversary = Some(Box::new(state));
    }

    /// Apply the plan's eclipse targets: swap up to `captured_links` of each
    /// live victim's honest edges for edges toward colluding peers. Entirely
    /// deterministic (no RNG draw) and invariant-preserving: `add_edge`
    /// keeps symmetry and rejects self-loops/duplicates, colluders are
    /// filtered for liveness, and detached (dead) peers are never touched.
    fn eclipse_rewire(&mut self, state: &AdversaryState) -> u64 {
        let ctx = &mut self.ctx;
        let mut rewired = 0u64;
        for t in &state.plan().eclipse {
            if t.victim.index() >= ctx.alive.len() || !ctx.alive[t.victim.index()] {
                continue;
            }
            let pool: Vec<PeerId> = state
                .colluders()
                .filter(|&c| {
                    c != t.victim && ctx.alive[c.index()] && !ctx.overlay.has_edge(t.victim, c)
                })
                .collect();
            let mut old: Vec<PeerId> = ctx
                .overlay
                .neighbors(t.victim)
                .iter()
                .copied()
                .filter(|&n| !state.role(n).is_adversarial())
                .collect();
            old.sort_unstable();
            for (o, c) in old.into_iter().zip(pool).take(t.captured_links as usize) {
                let removed = ctx.overlay.remove_edge(t.victim, o);
                let added = ctx.overlay.add_edge(t.victim, c);
                debug_assert!(removed && added, "eclipse rewiring must be clean");
                if removed && added {
                    rewired += 1;
                }
            }
        }
        rewired
    }

    fn set_horizon_grace(&mut self, grace_us: u64) {
        self.ctx.horizon_us = self.ctx.trace_end_us.saturating_add(grace_us);
    }

    /// Run to the horizon (or queue exhaustion) and return the report.
    pub fn run(mut self) -> SimReport<P> {
        self.ensure_init();
        while self.step() {}
        self.into_report()
    }

    /// Run until every event scheduled at or before `t_us` has dispatched,
    /// then stop with the simulation still live — the checkpoint/resume
    /// split point. Initializes the protocol on first use, exactly like
    /// [`Simulation::run`], and returns early if the run halts first
    /// (horizon crossed or queue exhausted). A run split as
    /// `run_until(t)` → [`Simulation::checkpoint`] → resume → `run()` is
    /// bit-identical to the uninterrupted run.
    pub fn run_until(&mut self, t_us: u64) {
        self.ensure_init();
        while !self.halted && self.ctx.queue.peek_time().is_some_and(|t| t <= t_us) {
            self.step();
        }
    }

    /// Virtual time of the last dispatched event.
    pub fn now_us(&self) -> u64 {
        self.ctx.now_us
    }

    /// Whether the run has ended (horizon crossed or queue drained).
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Borrow the attached trace sink, if any — lets tools inspect recorded
    /// events *mid-run* (e.g. the divergence bisector diffing the trace
    /// windows of two [`Simulation::run_until`] probes). Finished runs get
    /// the sink back through [`SimReport::trace`] instead.
    pub fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.ctx.trace.as_deref()
    }

    /// Borrow the protocol instance mid-run. Tests and tools use this to
    /// inspect protocol state at a checkpoint split point; finished runs
    /// get the protocol back through [`SimReport::protocol`].
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Borrow the world mid-run (liveness, content, ledger, load).
    pub fn ctx(&self) -> &Ctx<'a, P::Msg, C> {
        &self.ctx
    }

    /// Scheduled time of the next event [`Simulation::run_until`] would
    /// dispatch, if any — what a wall-clock driver sleeps until.
    pub fn next_event_us(&mut self) -> Option<u64> {
        self.ctx.queue.peek_time()
    }

    /// Apply one workload event now: schedule it at `at_us` (or the current
    /// virtual time, whichever is later — the clock never rewinds) and
    /// dispatch everything due up to and including it, so it runs through
    /// the same path, in the same `(time, seq)` order, as a preloaded trace
    /// event. The event must be valid for the current world (a `Join` of an
    /// offline peer, a `Query` from a live one — what trace generation
    /// guarantees); a halted run only queues it.
    pub fn apply_event(&mut self, at_us: u64, ev: TraceEvent) {
        let t = self.ctx.now_us.max(at_us);
        self.ctx.queue.push(t, EngineEvent::Trace(ev));
        self.run_until(t);
    }

    fn ensure_init(&mut self) {
        if !self.started {
            self.started = true;
            self.protocol.on_init(&mut self.ctx);
        }
    }

    /// Dispatch the next event. Returns `false` when the run halts: the
    /// next event is past the horizon (discarding it and everything behind
    /// it — the queue is time-ordered) or the queue is exhausted.
    fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(sched) = self.ctx.queue.pop() else {
            self.halted = true;
            self.ctx.queue.purge_cancelled();
            return false;
        };
        debug_assert!(sched.time_us >= self.ctx.now_us, "time goes forward");
        if sched.time_us > self.ctx.horizon_us {
            self.ctx.profile.past_horizon = self.ctx.queue.len() as u64 + 1;
            self.halted = true;
            // Events behind the horizon will never pop, so their tombstones
            // are dead — drain them (behaviorally invisible; bounds the
            // serialized tombstone list of a post-halt checkpoint).
            self.ctx.queue.purge_cancelled();
            return false;
        }
        self.ctx.now_us = sched.time_us;
        self.ctx.seq = sched.seq;
        let depth = self.ctx.queue.len() + 1;
        if depth > self.ctx.profile.queue_hwm {
            self.ctx.profile.queue_hwm = depth;
        }
        match sched.event {
            EngineEvent::Deliver { to, from, msg, dup } => {
                self.ctx.profile.delivers += 1;
                let delivered = self.ctx.alive[to.index()];
                self.ctx.trace(|| TraceEvt::Deliver {
                    to,
                    from,
                    delivered,
                    dup,
                });
                if delivered {
                    match self.ctx.carrier.unpack(msg) {
                        Some(msg) => self.protocol.on_message(&mut self.ctx, to, from, msg),
                        None => self.ctx.wire_errors += 1,
                    }
                }
            }
            EngineEvent::Timer { node, tag } => {
                self.ctx.profile.timers_fired += 1;
                let fired = self.ctx.alive[node.index()];
                self.ctx.trace(|| TraceEvt::TimerFired { node, tag, fired });
                if fired {
                    self.protocol.on_timer(&mut self.ctx, node, tag);
                }
            }
            EngineEvent::Trace(ev) => {
                self.ctx.profile.trace_events += 1;
                self.apply_trace(ev);
            }
        }
        true
    }

    fn into_report(mut self) -> SimReport<P> {
        let faults = self.ctx.faults.take().map(|f| f.into_stats());
        let adversary = self.ctx.adversary.take().map(|a| a.into_stats());
        let audit = self.ctx.audit.take().map(|auditor| {
            let mut auditor = *auditor;
            for v in self.protocol.audit_invariants(&self.ctx) {
                auditor.push_violation(format!("protocol: {v}"));
            }
            auditor.finish(
                &self.ctx.load,
                &self.ctx.ledger,
                &self.ctx.overlay,
                &self.ctx.alive,
                self.ctx.alive_count,
                self.ctx.profile.sends,
                self.ctx.now_us,
                &self.ctx.retry,
                faults.as_ref(),
                adversary.as_ref(),
            )
        });
        SimReport {
            end_time_us: self.ctx.now_us,
            messages_sent: self.ctx.profile.sends,
            wire_errors: self.ctx.wire_errors,
            load: self.ctx.load,
            ledger: self.ctx.ledger,
            alive: self.ctx.alive,
            overlay: self.ctx.overlay,
            retry: self.ctx.retry,
            faults,
            adversary,
            protocol: self.protocol,
            audit,
            trace: self.ctx.trace,
            profile: self.ctx.profile,
        }
    }

    fn apply_trace(&mut self, ev: TraceEvent) {
        let ctx = &mut self.ctx;
        match ev {
            TraceEvent::Query(q) => {
                debug_assert!(ctx.alive[q.requester.index()], "trace guarantees liveness");
                ctx.trace(|| TraceEvt::QueryIssued {
                    id: q.id,
                    requester: q.requester,
                });
                ctx.ledger.register(q.id, ctx.now_us);
                self.protocol.on_query(ctx, &q);
            }
            TraceEvent::AddDocument { peer, doc } => self.change_content(peer, doc, true),
            TraceEvent::RemoveDocument { peer, doc } => self.change_content(peer, doc, false),
            TraceEvent::Join(p) => {
                debug_assert!(!ctx.alive[p.index()]);
                ctx.alive[p.index()] = true;
                ctx.alive_count += 1;
                if let Err(pos) = ctx.alive_list.binary_search(&p) {
                    ctx.alive_list.insert(pos, p);
                }
                ctx.load.set_alive(ctx.now_us, ctx.alive_count);
                let degree = ctx.overlay_kind.avg_degree().round() as usize;
                // Borrow dance: attach_* needs &mut overlay and &mut rng.
                // The candidate list (the joiner included, ascending order —
                // same as the old materialized scan) borrows a disjoint field.
                // lint: allow(rng-stream-discipline, reason=derived child stream: seeded from the engine stream's own output, so it inherits the engine salt's lineage deterministically)
                let mut rng = SmallRng::seed_from_u64(ctx.rng.gen());
                match ctx.overlay_kind {
                    OverlayKind::Random => {
                        ctx.overlay
                            .attach_uniform(p, &ctx.alive_list, degree, &mut rng)
                    }
                    OverlayKind::PowerLaw | OverlayKind::Crawled => ctx
                        .overlay
                        .attach_preferential(p, &ctx.alive_list, degree, &mut rng),
                }
                ctx.trace(|| TraceEvt::Join { peer: p });
                ctx.check_overlay();
                self.protocol.on_join(ctx, p);
            }
            TraceEvent::Leave(p) => {
                debug_assert!(ctx.alive[p.index()]);
                ctx.alive[p.index()] = false;
                ctx.alive_count -= 1;
                if let Ok(pos) = ctx.alive_list.binary_search(&p) {
                    ctx.alive_list.remove(pos);
                }
                ctx.load.set_alive(ctx.now_us, ctx.alive_count);
                ctx.overlay.detach(p);
                ctx.trace(|| TraceEvt::Leave { peer: p });
                ctx.check_overlay();
                self.protocol.on_leave(ctx, p);
            }
        }
    }

    /// Apply one content-change trace event; only a change that was not a
    /// no-op reaches the protocol.
    fn change_content(&mut self, peer: PeerId, doc: DocId, added: bool) {
        let ctx = &mut self.ctx;
        let applied = if added {
            ctx.content.add(ctx.model, peer, doc)
        } else {
            ctx.content.remove(ctx.model, peer, doc)
        };
        ctx.trace(|| TraceEvt::ContentChanged {
            peer,
            doc: doc.0,
            added,
            applied,
        });
        if applied {
            self.protocol.on_content_change(ctx, peer, doc, added);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asap_overlay::OverlayConfig;
    use asap_topology::TransitStubConfig;
    use asap_workload::WorkloadConfig;

    /// Oracle protocol: on a query, magically contact a live holder of the
    /// target and get one reply — exercises engine plumbing end to end.
    struct OracleProtocol;

    #[derive(Debug, Clone)]
    enum OracleMsg {
        Ask {
            query: u32,
            terms: Vec<asap_workload::KeywordId>,
        },
        Reply {
            query: u32,
        },
    }

    impl Protocol for OracleProtocol {
        type Msg = OracleMsg;

        fn on_query<C: Transport<Msg = OracleMsg>>(&mut self, ctx: &mut C, q: &QuerySpec) {
            let holder = (0..ctx.model().num_peers() as u32).map(PeerId).find(|&h| {
                h != q.requester && ctx.alive(h) && ctx.content().peer_has_doc(h, q.target)
            });
            if let Some(h) = holder {
                ctx.send(
                    q.requester,
                    h,
                    MsgClass::Query,
                    crate::message::query_size(q.terms.len()),
                    OracleMsg::Ask {
                        query: q.id,
                        terms: q.terms.clone(),
                    },
                );
            }
        }

        fn on_message<C: Transport<Msg = OracleMsg>>(
            &mut self,
            ctx: &mut C,
            to: PeerId,
            from: PeerId,
            msg: OracleMsg,
        ) {
            match msg {
                OracleMsg::Ask { query, terms } => {
                    if ctx.content().peer_matches(ctx.model(), to, &terms) {
                        ctx.send(
                            to,
                            from,
                            MsgClass::QueryHit,
                            crate::message::query_hit_size(1),
                            OracleMsg::Reply { query },
                        );
                    }
                }
                OracleMsg::Reply { query } => {
                    ctx.report_answer(query);
                }
            }
        }
    }

    fn small_world(seed: u64) -> (PhysicalNetwork, Workload, Overlay) {
        let phys = PhysicalNetwork::generate(&TransitStubConfig::reduced(seed));
        let workload = asap_workload::generate(&WorkloadConfig::reduced(200, 300, seed));
        let overlay = OverlayConfig::new(OverlayKind::Random, 200, seed).build();
        (phys, workload, overlay)
    }

    #[test]
    fn oracle_protocol_answers_most_queries() {
        let (phys, workload, overlay) = small_world(1);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            1,
        )
        .run();
        // Every query had a live holder at issue; holders can only die
        // between issue and delivery (rare at this scale).
        assert!(
            report.ledger.success_rate() > 0.95,
            "success {}",
            report.ledger.success_rate()
        );
        // Two messages per answered query.
        assert!(report.messages_sent >= 2 * report.ledger.num_succeeded() as u64);
    }

    #[test]
    fn response_time_is_two_one_way_latencies() {
        let (phys, workload, overlay) = small_world(2);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            2,
        )
        .run();
        let rt = report.ledger.avg_response_time_ms();
        // One-way latencies in the reduced transit-stub span 2–~150 ms, so a
        // round trip must land within [4, 400] ms.
        assert!((4.0..=400.0).contains(&rt), "avg response {rt} ms");
    }

    #[test]
    fn deterministic_replay() {
        let run = |seed| {
            let (phys, workload, overlay) = small_world(7);
            Simulation::builder(
                &phys,
                &workload,
                overlay,
                OverlayKind::Random,
                OracleProtocol,
                seed,
            )
            .run()
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.end_time_us, b.end_time_us);
        assert_eq!(a.load.total_bytes(), b.load.total_bytes());
        assert_eq!(a.ledger.success_rate(), b.ledger.success_rate());
    }

    #[test]
    fn load_is_accounted() {
        let (phys, workload, overlay) = small_world(3);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            3,
        )
        .run();
        assert!(report.load.total_bytes() > 0);
        assert!(report.load.mean_load() > 0.0);
        let totals = report.load.class_totals();
        assert!(totals[MsgClass::Query.index()] > 0);
        assert!(totals[MsgClass::QueryHit.index()] > 0);
        assert_eq!(totals[MsgClass::FullAd.index()], 0);
    }

    #[test]
    fn churn_detaches_dead_peers_and_wires_joiners() {
        let (phys, workload, overlay) = small_world(4);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            4,
        )
        .run();
        let mut dead = 0;
        let mut isolated_alive = 0;
        for p in 0..report.alive.len() {
            let peer = PeerId(p as u32);
            if report.alive[p] {
                // A live peer may end up isolated if every neighbor departed,
                // but that must stay rare.
                if report.overlay.degree(peer) == 0 {
                    isolated_alive += 1;
                }
            } else {
                assert_eq!(report.overlay.degree(peer), 0, "dead peer {p} still wired");
                dead += 1;
            }
        }
        assert!(dead > 0, "trace should leave some peers offline");
        assert!(
            isolated_alive * 20 < report.alive.len(),
            "{isolated_alive} live peers isolated"
        );
    }

    #[test]
    fn audited_oracle_run_is_clean_and_digest_is_stable() {
        let run = || {
            let (phys, workload, overlay) = small_world(9);
            Simulation::builder(
                &phys,
                &workload,
                overlay,
                OverlayKind::Random,
                OracleProtocol,
                9,
            )
            .audit(AuditConfig::default())
            .run()
        };
        let a = run();
        let audit = a.audit.as_ref().expect("audited run carries a report");
        assert!(
            audit.is_clean(),
            "violations: {:?} (+{} suppressed)",
            audit.violations,
            audit.suppressed
        );
        assert!(audit.events > 0);
        assert!(audit.checks > audit.events, "several checks per event");
        let b = run();
        assert_eq!(
            audit.digest,
            b.audit.unwrap().digest,
            "replay digest differs"
        );
    }

    #[test]
    fn unaudited_run_reports_no_audit() {
        let (phys, workload, overlay) = small_world(9);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            9,
        )
        .run();
        assert!(report.audit.is_none());
        assert!(report.trace.is_none());
    }

    #[test]
    fn protocol_audit_hook_lands_in_report() {
        struct Grumpy;
        impl Protocol for Grumpy {
            type Msg = ();
            fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
            fn audit_invariants<C: Transport<Msg = ()>>(&self, _: &C) -> Vec<String> {
                vec!["cache over capacity".into()]
            }
        }
        let (phys, workload, overlay) = small_world(9);
        let report = Simulation::builder(&phys, &workload, overlay, OverlayKind::Random, Grumpy, 9)
            .audit(AuditConfig::default())
            .run();
        let audit = report.audit.unwrap();
        assert!(audit
            .violations
            .iter()
            .any(|v| v == "protocol: cache over capacity"));
    }

    #[test]
    fn cancelled_timer_never_fires() {
        struct CancelProto {
            handle: Option<crate::event::EventHandle>,
            fired: Vec<u64>,
        }
        impl Protocol for CancelProto {
            type Msg = ();
            fn on_init<C: Transport<Msg = ()>>(&mut self, ctx: &mut C) {
                ctx.set_timer(PeerId(0), 1_000, 1);
                self.handle = Some(ctx.set_timer(PeerId(0), 2_000, 2));
                ctx.set_timer(PeerId(0), 3_000, 3);
            }
            fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
            fn on_timer<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, _: PeerId, tag: u64) {
                if tag == 1 {
                    assert!(ctx.cancel_timer(self.handle.take().unwrap()));
                }
                self.fired.push(tag);
            }
        }
        let (phys, workload, overlay) = small_world(5);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            CancelProto {
                handle: None,
                fired: vec![],
            },
            5,
        )
        .audit(AuditConfig::default())
        .run();
        assert_eq!(report.protocol.fired, vec![1, 3], "timer 2 was cancelled");
        assert!(report.audit.unwrap().is_clean());
    }

    #[test]
    fn alive_list_tracks_churn_and_scratch_is_reused() {
        struct ChurnWatcher {
            checked: usize,
        }
        impl ChurnWatcher {
            fn check<C: Transport<Msg = ()>>(&mut self, ctx: &mut C) {
                let list = ctx.alive_peers();
                assert_eq!(list.len(), ctx.alive_count());
                assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                for &p in list {
                    assert!(ctx.alive(p));
                }
                self.checked += 1;
                let mut buf = ctx.scratch();
                assert!(buf.is_empty());
                let peers: Vec<PeerId> = ctx.alive_peers().to_vec();
                buf.extend_from_slice(&peers);
                assert_eq!(buf.len(), ctx.alive_count());
            }
        }
        impl Protocol for ChurnWatcher {
            type Msg = ();
            fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
            fn on_join<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, _: PeerId) {
                self.check(ctx);
            }
            fn on_leave<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, _: PeerId) {
                self.check(ctx);
            }
        }
        let (phys, workload, overlay) = small_world(6);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            ChurnWatcher { checked: 0 },
            6,
        )
        .run();
        assert!(report.protocol.checked > 0, "trace should churn");
    }

    #[test]
    fn timers_fire_in_order_and_respect_death() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        impl Protocol for TimerProto {
            type Msg = ();
            fn on_init<C: Transport<Msg = ()>>(&mut self, ctx: &mut C) {
                ctx.set_timer(PeerId(0), 1_000, 1);
                ctx.set_timer(PeerId(0), 3_000, 3);
                ctx.set_timer(PeerId(0), 2_000, 2);
            }
            fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
            fn on_timer<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, _: PeerId, tag: u64) {
                self.fired.push(tag);
                let _ = ctx.now_us();
            }
        }
        let (phys, workload, overlay) = small_world(5);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            TimerProto { fired: vec![] },
            5,
        )
        .run();
        assert_eq!(report.protocol.fired, vec![1, 2, 3]);
    }

    /// A delay near `u64::MAX` means "never". Armed at `now > 0` the
    /// deadline used to overflow — a panic in debug builds, a wrap into the
    /// past (an immediate firing) in release. It saturates instead: the
    /// timer sits past every horizon, the run halts there as usual, and the
    /// profile counts it among the events left behind.
    #[test]
    fn timer_past_the_end_of_time_never_fires() {
        struct NeverProto {
            fired: Vec<u64>,
        }
        impl Protocol for NeverProto {
            type Msg = ();
            fn on_init<C: Transport<Msg = ()>>(&mut self, ctx: &mut C) {
                ctx.set_timer(PeerId(0), 1_000, 1);
            }
            fn on_query<C: Transport<Msg = ()>>(&mut self, _: &mut C, _: &QuerySpec) {}
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
            fn on_timer<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, node: PeerId, tag: u64) {
                self.fired.push(tag);
                if tag == 1 {
                    assert!(ctx.now_us() > 0);
                    ctx.set_timer(node, u64::MAX, 2);
                    ctx.set_timer(node, u64::MAX - 500, 3);
                }
            }
        }
        let (phys, workload, overlay) = small_world(5);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            NeverProto { fired: vec![] },
            5,
        )
        .run();
        assert_eq!(
            report.protocol.fired,
            vec![1],
            "the saturated timers never fire"
        );
        assert_eq!(
            report.profile.past_horizon, 2,
            "both are left past the horizon"
        );
        assert!(report.end_time_us <= workload.trace.duration_us() + 30_000_000);
    }

    #[test]
    fn tracing_is_passive_and_comes_back_out() {
        use asap_trace::Recorder;
        let run = |traced: bool| {
            let (phys, workload, overlay) = small_world(8);
            let mut b = Simulation::builder(
                &phys,
                &workload,
                overlay,
                OverlayKind::Random,
                OracleProtocol,
                8,
            )
            .audit(AuditConfig::default());
            if traced {
                b = b.trace(Box::new(Recorder::default()));
            }
            b.run()
        };
        let plain = run(false);
        let traced = run(true);
        // A passive sink must not perturb the run: identical audit digest.
        assert_eq!(
            plain.audit.as_ref().map(|a| a.digest),
            traced.audit.as_ref().map(|a| a.digest),
            "tracing changed the event stream"
        );
        assert_eq!(plain.messages_sent, traced.messages_sent);
        let sink = traced.trace.expect("traced run returns its sink");
        let rec = match sink.into_any().downcast::<Recorder>() {
            Ok(r) => r,
            Err(_) => panic!("recorder downcasts back"),
        };
        assert!(rec.total() > 0, "recorder saw events");
        assert_eq!(rec.total(), traced.profile.trace_records);
        assert!(rec.stats().counts().contains_key("send"));
        assert!(rec.stats().counts().contains_key("query-issued"));
    }

    /// The auditor mirrors sends from the tap, so every send must emit
    /// exactly one of `send`, `fault-drop` or `adversary-absorb`, and every
    /// duplication its `fault-dup` — on all three send paths at once.
    #[test]
    fn every_send_emits_exactly_one_send_event() {
        use crate::{AdversaryPlan, FaultPlan};
        use asap_trace::Recorder;
        let (phys, workload, overlay) = small_world(10);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            10,
        )
        .faults(FaultPlan {
            loss_ppm: 100_000,
            duplicate_ppm: 100_000,
            ..FaultPlan::none()
        })
        .adversary(AdversaryPlan {
            free_rider_ppm: 200_000,
            ..AdversaryPlan::none()
        })
        .audit(AuditConfig::default())
        .trace(Box::new(Recorder::default()))
        .run();
        let Ok(rec) = report
            .trace
            .expect("traced")
            .into_any()
            .downcast::<Recorder>()
        else {
            panic!("recorder downcasts back");
        };
        let n = |name: &str| rec.stats().counts().get(name).copied().unwrap_or(0);
        let duplicated = report.faults.expect("fault layer").duplicated;
        assert!(
            n("fault-drop") > 0 && n("adversary-absorb") > 0 && duplicated > 0,
            "every send path is exercised: {:?}",
            rec.stats().counts()
        );
        assert_eq!(
            n("send") + n("fault-drop") + n("adversary-absorb"),
            report.profile.sends
        );
        assert_eq!(n("fault-dup"), duplicated);
        let audit = report.audit.expect("audited");
        assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    #[test]
    fn profile_counts_event_loop_phases() {
        let (phys, workload, overlay) = small_world(1);
        let report = Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            OracleProtocol,
            1,
        )
        .run();
        let p = report.profile;
        assert_eq!(p.sends, report.messages_sent);
        assert!(p.delivers > 0 && p.delivers <= p.sends);
        assert!(p.trace_events > 0, "workload events counted");
        assert!(p.queue_hwm > 0);
        assert_eq!(p.trace_records, 0, "tracing was off");
    }

    #[test]
    fn scratch_guard_returns_capacity_on_drop() {
        struct ScratchProto;
        impl Protocol for ScratchProto {
            type Msg = ();
            fn on_query<C: Transport<Msg = ()>>(&mut self, ctx: &mut C, _: &QuerySpec) {
                {
                    let mut buf = ctx.scratch();
                    assert!(buf.is_empty());
                    buf.push(PeerId(0));
                    buf.reserve(1024);
                    // ctx stays usable while the lease is held.
                    let _ = ctx.now_us();
                }
                let buf = ctx.scratch();
                assert!(buf.is_empty(), "next lease starts cleared");
                assert!(buf.capacity() >= 1024, "capacity was recycled");
            }
            fn on_message<C: Transport<Msg = ()>>(
                &mut self,
                _: &mut C,
                _: PeerId,
                _: PeerId,
                _: (),
            ) {
            }
        }
        let (phys, workload, overlay) = small_world(2);
        Simulation::builder(
            &phys,
            &workload,
            overlay,
            OverlayKind::Random,
            ScratchProto,
            2,
        )
        .run();
    }
}
