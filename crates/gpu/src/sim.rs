//! The event-driven simulation driver.
//!
//! Execution model recap (see crate docs): warps advance in *rounds* (one
//! work item per active lane per round). The SMX issue scheduler grants
//! `issue_width` round-issues per cycle; a round's duration is its compute
//! cost plus the latency of its coalesced memory transactions. Parent
//! threads consult the [`LaunchController`] exactly once, at warp start
//! (the top-of-kernel launch site of Fig. 3), and either spawn a child
//! kernel (paying the `A·x + b` arrival delay into the GMU), push
//! aggregated CTAs (DTBL), or keep their items and loop over them inline.

use std::sync::Arc;

use dynapar_engine::json::Json;
use dynapar_engine::metrics::{MetricsLevel, MetricsRegistry};
use dynapar_engine::profile::Profiler;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::stats::TimeWeighted;
use dynapar_engine::{Cycle, TimingWheel};

use crate::artifact::{CcqsSample, RunArtifact, RunOutcome};
use crate::config::{CtaPlacement, GpuConfig, StreamPolicy};
use crate::controller::{
    ChildRequest, ControllerEvent, InlineAll, LaunchController, LaunchDecision,
};
use crate::gmu::Gmu;
use crate::ids::{KernelId, SmxId, StreamId};
use crate::kernel::{AggCta, CtaDirectory, DpParams, KernelKind, KernelRt, SpecTable};
use crate::mem::{coalesce_lines_parts, MemSystem};
use crate::profile as ph;
use crate::snap::{get_opt_cycle, put_opt_cycle};
use crate::smx::{CtaRt, Smx, WarpRt};
use crate::stats::{KernelRole, KernelSummary, SimReport, TimelineSample};
use crate::telemetry::SimSeries;
use crate::trace::{Trace, TraceEvent};
use crate::work::{KernelDesc, ThreadSource, ThreadWork};
#[cfg(test)]
use crate::work::DpSpec;

/// Simulator events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A kernel (host or child) arrives in the GMU pending pool.
    KernelArrive(KernelId),
    /// DTBL-aggregated CTAs become dispatchable.
    AggArrive { kernel: KernelId, count: u32 },
    /// Run the CTA dispatcher.
    Dispatch,
    /// A dispatched CTA begins on its SMX.
    CtaStart { smx: SmxId, cta_slot: u32 },
    /// Anchor: one SMX has work at this cycle — local wakeups to drain
    /// and/or ready warps to issue. Per-warp wakeups themselves live in
    /// the SMX's local wheel and never enter the global queue; at most one
    /// anchor per SMX is pending for any given cycle.
    SmxWork(SmxId),
    /// A completed kernel's HWQ slot frees after the turnaround floor.
    HwqRelease(KernelId),
    /// Periodic timeline sample.
    Sample,
}

fn put_ev(w: &mut ByteWriter, ev: Ev) {
    match ev {
        Ev::KernelArrive(k) => {
            w.put_u8(0);
            w.put_u32(k.0);
        }
        Ev::AggArrive { kernel, count } => {
            w.put_u8(1);
            w.put_u32(kernel.0);
            w.put_u32(count);
        }
        Ev::Dispatch => w.put_u8(2),
        Ev::CtaStart { smx, cta_slot } => {
            w.put_u8(3);
            w.put_u8(smx.0);
            w.put_u32(cta_slot);
        }
        Ev::SmxWork(s) => {
            w.put_u8(4);
            w.put_u8(s.0);
        }
        Ev::HwqRelease(k) => {
            w.put_u8(5);
            w.put_u32(k.0);
        }
        Ev::Sample => w.put_u8(6),
    }
}

fn get_ev(r: &mut ByteReader<'_>) -> Result<Ev, SnapError> {
    Ok(match r.get_u8()? {
        0 => Ev::KernelArrive(KernelId(r.get_u32()?)),
        1 => Ev::AggArrive {
            kernel: KernelId(r.get_u32()?),
            count: r.get_u32()?,
        },
        2 => Ev::Dispatch,
        3 => Ev::CtaStart {
            smx: SmxId(r.get_u8()?),
            cta_slot: r.get_u32()?,
        },
        4 => Ev::SmxWork(SmxId(r.get_u8()?)),
        5 => Ev::HwqRelease(KernelId(r.get_u32()?)),
        6 => Ev::Sample,
        tag => return Err(SnapError::BadTag { what: "Ev", tag }),
    })
}

/// One recorded controller interaction, kept (only while a snapshot is
/// armed) so a resumed run can rebuild the policy's internal state by
/// replaying the exact decide/observe sequence into a fresh controller.
/// Controllers are deterministic functions of this sequence — the trait
/// passes values only, never references into simulator state — so the
/// replayed controller is indistinguishable from the original.
#[derive(Debug, Clone)]
enum ReplayEntry {
    /// A `decide` call with the full request plus the returned decision.
    /// The decision is stored for *verification only*: resume replays the
    /// request into the fresh controller and rejects the snapshot if the
    /// result diverges — which catches a controller that shares its name
    /// with the snapshot's but carries different parameters (e.g. two
    /// `Fixed-Threshold` instances with different thresholds).
    Decide(ChildRequest, LaunchDecision),
    /// An `observe` call with the delivered event.
    Observe(ControllerEvent),
}

fn put_decision(w: &mut ByteWriter, d: LaunchDecision) {
    w.put_u8(match d {
        LaunchDecision::Kernel => 0,
        LaunchDecision::Aggregated => 1,
        LaunchDecision::Redistribute => 2,
        LaunchDecision::Inline => 3,
    });
}

fn get_decision(r: &mut ByteReader<'_>) -> Result<LaunchDecision, SnapError> {
    Ok(match r.get_u8()? {
        0 => LaunchDecision::Kernel,
        1 => LaunchDecision::Aggregated,
        2 => LaunchDecision::Redistribute,
        3 => LaunchDecision::Inline,
        tag => return Err(SnapError::BadTag { what: "LaunchDecision", tag }),
    })
}

fn put_replay(w: &mut ByteWriter, e: &ReplayEntry) {
    match e {
        ReplayEntry::Decide(req, decision) => {
            w.put_u8(0);
            w.put_u64(req.now.as_u64());
            w.put_u32(req.parent_kernel.0);
            w.put_u8(req.depth);
            w.put_u32(req.items);
            w.put_u32(req.child_ctas);
            w.put_u32(req.child_threads);
            w.put_u32(req.child_warps_per_cta);
            w.put_u32(req.warp_prior_launches);
            w.put_u32(req.default_threshold);
            w.put_u32(req.pending_kernels);
            put_decision(w, *decision);
        }
        ReplayEntry::Observe(ev) => {
            w.put_u8(1);
            match *ev {
                ControllerEvent::ChildCtaStart { now } => {
                    w.put_u8(0);
                    w.put_u64(now.as_u64());
                }
                ControllerEvent::ChildCtaFinish { now, exec_cycles } => {
                    w.put_u8(1);
                    w.put_u64(now.as_u64());
                    w.put_u64(exec_cycles);
                }
                ControllerEvent::ChildWarpFinish { now, exec_cycles } => {
                    w.put_u8(2);
                    w.put_u64(now.as_u64());
                    w.put_u64(exec_cycles);
                }
            }
        }
    }
}

fn get_replay(r: &mut ByteReader<'_>) -> Result<ReplayEntry, SnapError> {
    Ok(match r.get_u8()? {
        0 => ReplayEntry::Decide(
            ChildRequest {
                now: Cycle(r.get_u64()?),
                parent_kernel: KernelId(r.get_u32()?),
                depth: r.get_u8()?,
                items: r.get_u32()?,
                child_ctas: r.get_u32()?,
                child_threads: r.get_u32()?,
                child_warps_per_cta: r.get_u32()?,
                warp_prior_launches: r.get_u32()?,
                default_threshold: r.get_u32()?,
                pending_kernels: r.get_u32()?,
            },
            get_decision(r)?,
        ),
        1 => ReplayEntry::Observe(match r.get_u8()? {
            0 => ControllerEvent::ChildCtaStart {
                now: Cycle(r.get_u64()?),
            },
            1 => ControllerEvent::ChildCtaFinish {
                now: Cycle(r.get_u64()?),
                exec_cycles: r.get_u64()?,
            },
            2 => ControllerEvent::ChildWarpFinish {
                now: Cycle(r.get_u64()?),
                exec_cycles: r.get_u64()?,
            },
            tag => return Err(SnapError::BadTag { what: "ControllerEvent", tag }),
        }),
        tag => return Err(SnapError::BadTag { what: "ReplayEntry", tag }),
    })
}

/// One periodic observation handed to a [`WatchHook`] at every sampling
/// tick (`GpuConfig::sample_period` cycles apart) — the same quantities
/// the windowed telemetry records, surfaced live so a daemon can stream
/// them while the run is still in flight. Pure observation: installing
/// a hook never changes simulated behavior or artifact bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchSample {
    /// Simulated cycle of the sample.
    pub now: u64,
    /// GMU pending-pool depth plus approved-but-not-arrived launches.
    pub queue_depth: f64,
    /// Occupied fraction of the hardware queues.
    pub hwq_utilization: f64,
    /// Device utilization (max of thread/register/shared-memory use).
    pub utilization: f64,
    /// Parent CTAs resident across all SMXs.
    pub parent_ctas: u32,
    /// Child CTAs resident across all SMXs.
    pub child_ctas: u32,
}

/// A shared sampling callback, invoked from the event loop; see
/// [`SimulationBuilder::watch`].
pub type WatchHook = std::sync::Arc<dyn Fn(WatchSample) + Send + Sync>;

/// Upper bound on each recycled-buffer free-list (`warp_mem_pool`,
/// `lane_pool`). Steady state needs at most one buffer per resident
/// warp/CTA — far below this — so the cap never bites in practice; it
/// exists so a pathological burst cannot pin memory for the rest of a
/// long run. Pinned by the `buffer_pools_are_bounded` test.
const POOL_CAP: usize = 1024;

/// Configures and seals a [`Simulation`].
///
/// The builder is the only way to construct a simulation: start from
/// the hardware configuration, plug in a
/// [`controller`](SimulationBuilder::controller) (default:
/// [`InlineAll`]), and opt into observability with
/// [`trace`](SimulationBuilder::trace) and
/// [`metrics`](SimulationBuilder::metrics). Everything chosen here is
/// fixed for the simulation's lifetime; the only mutation left on the
/// sealed [`Simulation`] is enqueueing host kernels before
/// [`run`](Simulation::run).
///
/// # Examples
///
/// ```
/// use dynapar_gpu::{GpuConfig, MetricsLevel, Simulation};
///
/// let sim = Simulation::builder(GpuConfig::test_small())
///     .metrics(MetricsLevel::Summary)
///     .trace(10_000)
///     .build();
/// let outcome = sim.run(); // empty run: terminates immediately
/// assert!(outcome.artifact.is_some());
/// assert!(outcome.trace.is_some());
/// ```
pub struct SimulationBuilder {
    cfg: GpuConfig,
    controller: Box<dyn LaunchController>,
    trace_capacity: Option<usize>,
    metrics: MetricsLevel,
    profile: bool,
    snapshot_at: Option<u64>,
    snapshot_meta: Option<Json>,
    watch: Option<WatchHook>,
}

impl SimulationBuilder {
    /// Starts a builder for `cfg` with the defaults: [`InlineAll`]
    /// controller, no trace, metrics [`Off`](MetricsLevel::Off).
    pub fn new(cfg: GpuConfig) -> Self {
        SimulationBuilder {
            cfg,
            controller: Box::new(InlineAll),
            trace_capacity: None,
            metrics: MetricsLevel::default(),
            profile: false,
            snapshot_at: None,
            snapshot_meta: None,
            watch: None,
        }
    }

    /// Installs the launch policy consulted at every device-launch site.
    pub fn controller(mut self, controller: Box<dyn LaunchController>) -> Self {
        self.controller = controller;
        self
    }

    /// Enables structured tracing, keeping at most `capacity` events;
    /// the log comes back in [`RunOutcome::trace`].
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Sets the observability level; anything above
    /// [`Off`](MetricsLevel::Off) makes [`Simulation::run`] produce a
    /// [`RunArtifact`].
    pub fn metrics(mut self, level: MetricsLevel) -> Self {
        self.metrics = level;
        self
    }

    /// Enables the host-side self-profiler: wall time and counts are
    /// attributed to simulator phases and come back in
    /// [`RunOutcome::profile`]. Profiling never influences simulated
    /// behavior — reports and artifacts stay byte-identical with it on.
    ///
    /// Requires the `profile` cargo feature; without it this is a no-op
    /// and `RunOutcome::profile` is always `None` (the instrumentation
    /// compiles down to nothing, which is the point of the gate).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = on;
        self
    }

    /// Arms a snapshot: the run simulates every event up to and
    /// including cycle `cycle`, then serializes its full deterministic
    /// state into [`RunOutcome::snapshot`] and keeps running to
    /// completion. Resuming the snapshot (on an identically configured
    /// builder) continues the run as if it had never been interrupted —
    /// every report and artifact byte matches the uninterrupted run.
    ///
    /// If the run completes before reaching `cycle`, no snapshot is
    /// produced and [`RunOutcome::snapshot`] is `None`.
    ///
    /// Snapshots are incompatible with [`trace`](Self::trace):
    /// [`build`](Self::build) panics when both are requested.
    pub fn snapshot_at(mut self, cycle: u64) -> Self {
        self.snapshot_at = Some(cycle);
        self
    }

    /// Attaches caller metadata (e.g. the canonical run identity) to the
    /// snapshot container's header under the `meta` key. Purely
    /// informational: resume never interprets it.
    pub fn snapshot_meta(mut self, meta: Json) -> Self {
        self.snapshot_meta = Some(meta);
        self
    }

    /// Installs a live sampling hook: `hook` receives one
    /// [`WatchSample`] per sampling tick while the run is in flight.
    /// Works at every metrics level (the sampler always runs — it also
    /// feeds the report timeline). Pure observation: reports and
    /// artifacts are byte-identical with or without a hook, which is
    /// what lets the daemon stream telemetry from a memoizable run.
    pub fn watch(mut self, hook: WatchHook) -> Self {
        self.watch = Some(hook);
        self
    }

    /// Seals the builder into a runnable [`Simulation`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`], the
    /// trace capacity is zero, or a snapshot is armed together with
    /// tracing (snapshots do not capture trace logs).
    pub fn build(self) -> Simulation {
        assert!(
            self.snapshot_at.is_none() || self.trace_capacity.is_none(),
            "snapshots do not support tracing: disable .trace() or .snapshot_at()"
        );
        let mut sim = Simulation::new(self.cfg, self.controller);
        sim.trace = self.trace_capacity.map(Trace::new);
        sim.metrics_level = self.metrics;
        if self.metrics.timeseries() {
            sim.timeseries = Some(Box::new(SimSeries::new(&sim.cfg)));
        }
        sim.prof.set_enabled(self.profile);
        sim.snapshot_at = self.snapshot_at.map(Cycle);
        sim.snapshot_meta = self.snapshot_meta;
        sim.watch = self.watch;
        if sim.snapshot_at.is_some() {
            sim.replay = Some(Vec::new());
        }
        sim
    }

    /// Seals the builder into a [`Simulation`] resumed from `container`
    /// — bytes previously produced by an armed run's
    /// [`RunOutcome::snapshot`] (or read back from a snapshot file).
    ///
    /// The builder must describe the same run: identical [`GpuConfig`],
    /// identical metrics level, and a fresh controller of the same
    /// policy (its state is rebuilt by replaying the snapshot's recorded
    /// decide/observe log). A snapshot whose warm-up made *no* launch
    /// decisions is **policy-pristine** and may instead be resumed under
    /// any controller — that is the warm-start fork the sweep drivers
    /// build on. Do not call
    /// [`launch_host`](Simulation::launch_host) on a resumed simulation;
    /// the snapshot already contains every kernel.
    ///
    /// # Errors
    ///
    /// Rejects malformed or corrupted containers, geometry or metrics
    /// mismatches between the builder and the snapshot, cross-policy
    /// resume of non-pristine snapshots, and tracing (unsupported).
    pub fn build_resumed(self, container: &[u8]) -> Result<Simulation, SnapError> {
        if self.trace_capacity.is_some() {
            return Err(SnapError::Invalid(
                "resumed simulations do not support tracing",
            ));
        }
        let (job, state) = crate::snap::parse_snapshot(container)?;
        // Re-arming a later snapshot on the resumed run is allowed; the
        // decoded replay log seeds the new one so controller rebuild
        // stays possible across chained snapshots.
        let mut sim = self.build();
        sim.decode_state(&job, state)?;
        sim.resumed = true;
        Ok(sim)
    }
}

/// A complete simulated execution of one DP program under one launch
/// policy. Built via [`Simulation::builder`]; consumed by
/// [`run`](Simulation::run), which returns a [`RunOutcome`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dynapar_gpu::{
///     GpuConfig, InlineAll, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass,
/// };
///
/// let mut sim = Simulation::builder(GpuConfig::test_small())
///     .controller(Box::new(InlineAll))
///     .build();
/// sim.launch_host(KernelDesc {
///     name: "demo".into(),
///     cta_threads: 64,
///     regs_per_thread: 16,
///     shmem_per_cta: 0,
///     class: Arc::new(WorkClass::compute_only("demo", 4)),
///     source: ThreadSource::Derived {
///         origin: ThreadWork::with_items(256),
///         items_per_thread: 1,
///     },
///     dp: None,
/// });
/// let report = sim.run().report;
/// assert!(report.total_cycles > 0);
/// assert_eq!(report.items_total(), 256);
/// ```
pub struct Simulation {
    cfg: GpuConfig,
    events: TimingWheel<Ev>,
    gmu: Gmu,
    smxs: Vec<Smx>,
    mem: MemSystem,
    /// Coalescing buffer of the round in flight: sequential addresses,
    /// then the merged lines.
    addr_buf: Vec<u64>,
    /// Merge target for the two-block coalescer.
    scratch_buf: Vec<u64>,
    kernels: Vec<KernelRt>,
    controller: Box<dyn LaunchController>,
    now: Cycle,
    live_kernels: u32,
    next_stream: u32,
    warp_seq: u64,
    rr_smx: usize,
    dispatch_at: Option<Cycle>,
    /// Child kernels whose launch was approved but which have not yet
    /// arrived at the GMU (they already occupy pending-pool slots — the
    /// API allocates the slot when it is invoked).
    inflight_launches: u32,
    trace: Option<Trace>,
    metrics_level: MetricsLevel,
    /// Windowed telemetry series; allocated only at
    /// [`MetricsLevel::Timeseries`], so every other level pays one
    /// `Option` check per sample/decision and nothing else.
    timeseries: Option<Box<SimSeries>>,
    // --- statistics ---
    occupancy: TimeWeighted,
    parent_ctas_running: u32,
    child_ctas_running: u32,
    timeline: Vec<(u64, TimelineSample)>,
    child_cta_exec: Vec<u64>,
    child_launch_times: Vec<u64>,
    queue_lat_sum: u128,
    queue_lat_count: u64,
    items_inline: u64,
    items_child: u64,
    launch_requests: u64,
    inlined_requests: u64,
    redistributed_requests: u64,
    aggregated_launches: u64,
    aggregated_cta_count: u64,
    child_ctas_executed: u64,
    child_kernels: u64,
    events_global: u64,
    dead_wakeups: u64,
    peak_queue_depth: u64,
    peak_local_backlog: u64,
    /// Wall-clock duration of `run_to_completion` (host time, reporting
    /// only — never feeds back into simulated behavior).
    wall_ms: f64,
    /// Recycled `outstanding_mem` buffers from finished warps, so the
    /// steady-state warp churn performs no per-warp allocations. Bounded
    /// by [`POOL_CAP`] like every free-list here.
    warp_mem_pool: Vec<std::collections::VecDeque<Cycle>>,
    /// Recycled CTA lane tables (see [`CtaRt::lanes`]); bounded by
    /// [`POOL_CAP`].
    lane_pool: Vec<Vec<ThreadWork>>,
    /// Host-side self-profiler (a no-op ZST unless the `profile` cargo
    /// feature is on; runtime-disabled unless the builder asked for it).
    prof: Profiler,
    /// Interned work classes and DP specs (see [`SpecTable`]); kernels
    /// hold plain ids into this table.
    specs: SpecTable,
    /// Reused across dispatch rounds for the GMU's candidate list.
    dispatch_buf: Vec<KernelId>,
    /// Reused across warp starts for the per-lane launch candidates.
    cand_buf: Vec<(u32, ThreadWork)>,
    /// Arm a snapshot capture once all events with time ≤ this cycle
    /// have been processed (see [`SimulationBuilder::snapshot_at`]).
    snapshot_at: Option<Cycle>,
    /// User metadata echoed into the snapshot header's `meta` member.
    snapshot_meta: Option<Json>,
    /// The captured container, moved into [`RunOutcome::snapshot`].
    snapshot: Option<Vec<u8>>,
    /// Controller decide/observe log, recorded only while a snapshot is
    /// armed; serialized so resume can rebuild the (opaque) controller
    /// by replaying the exact sequence it saw.
    replay: Option<Vec<ReplayEntry>>,
    /// True for simulations built by
    /// [`SimulationBuilder::build_resumed`]: skips the time-zero
    /// bootstrap (`Ev::Sample`) that the restored queue already carries.
    resumed: bool,
    /// Live per-tick observation callback (see
    /// [`SimulationBuilder::watch`]); read-only, byte-invisible.
    watch: Option<WatchHook>,
}

impl Simulation {
    /// Starts a [`SimulationBuilder`] for `cfg`.
    pub fn builder(cfg: GpuConfig) -> SimulationBuilder {
        SimulationBuilder::new(cfg)
    }

    /// Creates a simulator for `cfg` driven by `controller`; reached only
    /// through [`SimulationBuilder::build`], which validates upfront.
    fn new(cfg: GpuConfig, controller: Box<dyn LaunchController>) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        let smxs = (0..cfg.smx_count)
            .map(|i| Smx::new(SmxId(i as u8), &cfg))
            .collect();
        let mem = MemSystem::new(&cfg.mem, cfg.smx_count as usize);
        let gmu = Gmu::new(cfg.num_hwqs);
        Simulation {
            cfg,
            events: TimingWheel::new(),
            gmu,
            smxs,
            mem,
            addr_buf: Vec::with_capacity(128),
            scratch_buf: Vec::with_capacity(128),
            kernels: Vec::new(),
            controller,
            now: Cycle::ZERO,
            live_kernels: 0,
            next_stream: 0,
            warp_seq: 0,
            rr_smx: 0,
            dispatch_at: None,
            inflight_launches: 0,
            trace: None,
            metrics_level: MetricsLevel::default(),
            timeseries: None,
            occupancy: TimeWeighted::new(),
            parent_ctas_running: 0,
            child_ctas_running: 0,
            timeline: Vec::new(),
            child_cta_exec: Vec::new(),
            child_launch_times: Vec::new(),
            queue_lat_sum: 0,
            queue_lat_count: 0,
            items_inline: 0,
            items_child: 0,
            launch_requests: 0,
            inlined_requests: 0,
            redistributed_requests: 0,
            aggregated_launches: 0,
            aggregated_cta_count: 0,
            child_ctas_executed: 0,
            child_kernels: 0,
            events_global: 0,
            dead_wakeups: 0,
            peak_queue_depth: 0,
            peak_local_backlog: 0,
            wall_ms: 0.0,
            warp_mem_pool: Vec::new(),
            lane_pool: Vec::new(),
            prof: Profiler::new(ph::NAMES),
            specs: SpecTable::default(),
            dispatch_buf: Vec::new(),
            cand_buf: Vec::new(),
            snapshot_at: None,
            snapshot_meta: None,
            snapshot: None,
            replay: None,
            resumed: false,
            watch: None,
        }
    }

    #[inline]
    fn trace(&mut self, ev: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.record(ev());
        }
    }

    /// Enqueues a host-side kernel launch at time zero on the default
    /// stream: successive host launches serialize, exactly like CUDA's
    /// NULL stream (the level-synchronous BFS driver depends on this).
    /// Use [`launch_host_on_stream`](Simulation::launch_host_on_stream)
    /// for concurrent host kernels.
    pub fn launch_host(&mut self, desc: KernelDesc) {
        self.launch_host_on_stream(desc, Self::DEFAULT_STREAM);
    }

    /// The host-side default (NULL) stream.
    pub const DEFAULT_STREAM: StreamId = StreamId(0);

    /// Enqueues a host-side kernel launch at time zero on an explicit
    /// stream; kernels on distinct streams may execute concurrently.
    ///
    /// # Panics
    ///
    /// Panics if the description fails [`KernelDesc::validate`].
    pub fn launch_host_on_stream(&mut self, desc: KernelDesc, stream: StreamId) {
        desc.validate().expect("invalid kernel description");
        let id = KernelId(self.kernels.len() as u32);
        self.next_stream = self.next_stream.max(stream.0 + 1);
        let total_threads = desc.thread_count();
        let grid = desc.grid_ctas();
        // Intern the class and the DP spec chain once, here at
        // registration time; the launch hot path then deals in copyable
        // ids instead of cloning `Arc`s per child kernel.
        let class = self.specs.intern_class(&desc.class);
        let dp = desc.dp.as_ref().map(|d| self.specs.intern_dp(d));
        self.kernels.push(KernelRt {
            id,
            name: desc.name,
            kind: KernelKind::Host,
            parent: None,
            depth: 0,
            stream,
            origin_smx: None,
            cta_threads: desc.cta_threads,
            regs_per_thread: desc.regs_per_thread,
            shmem_per_cta: desc.shmem_per_cta,
            class,
            dp,
            dir: CtaDirectory::Uniform {
                source: desc.source,
                total_threads,
            },
            grid_ctas: grid,
            dispatchable_ctas: 0,
            next_cta: 0,
            live_ctas: 0,
            live_children: 0,
            agg_children: Vec::new(),
            own_done: false,
            fully_done: false,
            created_at: Cycle::ZERO,
            arrived_at: None,
            first_dispatch: None,
            own_done_at: None,
        });
        self.live_kernels += 1;
        self.trace(|| TraceEvent::KernelCreated {
            at: Cycle::ZERO,
            kernel: id,
            parent: None,
        });
        self.events.push(Cycle::ZERO, Ev::KernelArrive(id));
    }

    /// Runs to completion and returns the [`RunOutcome`]: the report,
    /// the trace (if the builder enabled one), the controller, and the
    /// JSON [`RunArtifact`] (unless metrics were
    /// [`Off`](MetricsLevel::Off)).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds `cfg.max_cycles` (a stall/runaway
    /// guard) or deadlocks with live kernels and no pending events — both
    /// indicate an internal invariant violation or a malformed workload.
    pub fn run(mut self) -> RunOutcome {
        self.run_to_completion();
        let profile = self.prof.report();
        let report = self.build_report();
        let artifact = if self.metrics_level.enabled() {
            Some(self.build_artifact(&report))
        } else {
            None
        };
        RunOutcome {
            report,
            trace: self.trace,
            controller: self.controller,
            artifact,
            profile,
            snapshot: self.snapshot,
        }
    }

    fn run_to_completion(&mut self) {
        let started = std::time::Instant::now();
        if !self.resumed {
            self.events.push(Cycle::ZERO, Ev::Sample);
        }
        // The whole loop runs under the outer "sched" phase; `handle`
        // nests the per-event phases inside it, so "sched" is left
        // holding exactly the queue-pop and loop overhead and the
        // phases sum to the loop's wall time (coverage ≈ 1).
        self.prof.enter(ph::SCHED);
        self.run_loop();
        self.prof.exit();
        assert!(
            self.live_kernels == 0,
            "simulation stalled with {} live kernels and no events",
            self.live_kernels
        );
        self.occupancy.finish(self.now);
        self.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    }

    /// The event loop: pops events in time order until no kernel is
    /// live. An armed snapshot is captured between whole events, once
    /// every event at time ≤ `snapshot_at` has been handled; if the run
    /// finishes first, no snapshot is captured and
    /// `RunOutcome::snapshot` stays `None`.
    fn run_loop(&mut self) {
        loop {
            self.peak_queue_depth = self.peak_queue_depth.max(self.events.len() as u64);
            if let Some(at) = self.snapshot_at {
                if self.events.peek_time().is_some_and(|t| t > at) {
                    self.capture_snapshot();
                    self.snapshot_at = None;
                    self.replay = None;
                }
            }
            let Some((t, ev)) = self.events.pop() else { break };
            assert!(
                t.as_u64() <= self.cfg.max_cycles,
                "simulation exceeded max_cycles={} (stall or runaway workload)",
                self.cfg.max_cycles
            );
            debug_assert!(t >= self.now, "event time went backwards");
            self.now = t;
            self.events_global += 1;
            self.handle(t, ev);
            if self.live_kernels == 0 {
                break;
            }
        }
    }

    // ----- snapshot / resume --------------------------------------------

    /// Serializes the full deterministic state into a container image
    /// (see [`crate::snap`]) and parks it for [`RunOutcome::snapshot`].
    /// Runs between events, so every transient buffer is empty.
    fn capture_snapshot(&mut self) {
        let mut w = ByteWriter::new();
        self.encode_state(&mut w);
        let state = w.into_bytes();
        let mut members: Vec<(&str, Json)> = vec![
            ("cycle", Json::U64(self.snapshot_at.expect("armed").as_u64())),
            ("now", Json::U64(self.now.as_u64())),
            ("controller", Json::str(self.controller.name())),
            ("metrics", Json::str(self.metrics_level.as_str())),
            // No decisions yet ⇒ no child work ⇒ the ramp is identical
            // under every launch policy, so a pristine snapshot may be
            // resumed with a *different* controller (warm-start forks).
            ("pristine", Json::Bool(self.launch_requests == 0)),
            (
                "config_fnv",
                Json::U64(crate::config::canonical_json_hash(&self.cfg.to_json())),
            ),
        ];
        if let Some(meta) = self.snapshot_meta.take() {
            members.push(("meta", meta));
        }
        let job = Json::obj(members);
        self.snapshot = Some(crate::snap::write_snapshot(&job, &state));
    }

    /// Writes every field of dynamic simulation state, in declaration
    /// order. The config, tracing, profiling, and the buffer free-lists
    /// are deliberately excluded: the config is rebuilt by the resuming
    /// builder, the rest are observability/allocation concerns that
    /// leave no trace in results.
    fn encode_state(&mut self, w: &mut ByteWriter) {
        w.put_u64(self.now.as_u64());
        w.put_u32(self.live_kernels);
        w.put_u32(self.next_stream);
        w.put_u64(self.warp_seq);
        w.put_u64(self.rr_smx as u64);
        put_opt_cycle(w, self.dispatch_at);
        w.put_u32(self.inflight_launches);
        // Global event queue, in pop order.
        w.put_u64(self.events.total_pushed());
        let entries = self.events.snapshot_entries();
        w.put_len(entries.len());
        for (t, ev) in entries {
            w.put_u64(t);
            put_ev(w, ev);
        }
        self.gmu.encode_state(w);
        w.put_len(self.smxs.len());
        // Per SMX: its state, its L1, then its local-event count.
        for smx in &mut self.smxs {
            smx.encode_state(w);
            self.mem.encode_l1(smx.id, w);
            w.put_u64(smx.events_local);
        }
        self.mem.encode_state(w);
        w.put_len(self.kernels.len());
        for k in &self.kernels {
            k.encode_state(w);
        }
        self.specs.encode_state(w);
        // Statistics.
        self.occupancy.encode_state(w);
        w.put_u32(self.parent_ctas_running);
        w.put_u32(self.child_ctas_running);
        w.put_len(self.timeline.len());
        for &(t, s) in &self.timeline {
            w.put_u64(t);
            w.put_u32(s.parent_ctas);
            w.put_u32(s.child_ctas);
            w.put_f64(s.utilization);
            w.put_u32(s.concurrent_kernels);
            w.put_f64(s.peak_smx_utilization);
        }
        w.put_len(self.child_cta_exec.len());
        for &v in &self.child_cta_exec {
            w.put_u64(v);
        }
        w.put_len(self.child_launch_times.len());
        for &v in &self.child_launch_times {
            w.put_u64(v);
        }
        w.put_u128(self.queue_lat_sum);
        w.put_u64(self.queue_lat_count);
        w.put_u64(self.items_inline);
        w.put_u64(self.items_child);
        w.put_u64(self.launch_requests);
        w.put_u64(self.inlined_requests);
        w.put_u64(self.redistributed_requests);
        w.put_u64(self.aggregated_launches);
        w.put_u64(self.aggregated_cta_count);
        w.put_u64(self.child_ctas_executed);
        w.put_u64(self.child_kernels);
        w.put_u64(self.events_global);
        w.put_u64(self.dead_wakeups);
        w.put_u64(self.peak_queue_depth);
        w.put_u64(self.peak_local_backlog);
        match self.timeseries.as_deref() {
            Some(ts) => {
                w.put_bool(true);
                ts.encode_state(w);
            }
            None => w.put_bool(false),
        }
        // Controller decide/observe log since run start (the capture
        // point is mid-run, so the log covers exactly the ramp).
        let log = self.replay.as_deref().expect("armed snapshots keep a log");
        w.put_len(log.len());
        for e in log {
            put_replay(w, e);
        }
    }

    /// Restores [`encode_state`](Simulation::encode_state) bytes into a
    /// freshly built simulation and rebuilds the controller by replaying
    /// the recorded decide/observe log.
    ///
    /// # Errors
    ///
    /// Rejects a config that differs from the snapshot's, geometry
    /// mismatches in any component, dangling cross-references (kernel /
    /// class / DP / SMX ids), and — for a controller other than the one
    /// that took the snapshot — a non-pristine snapshot or one recorded
    /// at [`MetricsLevel::Timeseries`] (the monitored series make even a
    /// pristine timeseries artifact policy-dependent).
    fn decode_state(&mut self, job: &Json, state: &[u8]) -> Result<(), SnapError> {
        let want_cfg = job
            .get("config_fnv")
            .and_then(Json::as_u64)
            .ok_or(SnapError::Invalid("snapshot job lacks config_fnv"))?;
        if want_cfg != crate::config::canonical_json_hash(&self.cfg.to_json()) {
            return Err(SnapError::Invalid(
                "snapshot was taken under a different GPU configuration",
            ));
        }
        let snap_metrics = job
            .get("metrics")
            .and_then(Json::as_str)
            .and_then(MetricsLevel::parse)
            .ok_or(SnapError::Invalid("snapshot job lacks a metrics level"))?;
        if snap_metrics != self.metrics_level {
            return Err(SnapError::Invalid(
                "snapshot was recorded at a different metrics level",
            ));
        }
        let snap_controller = job
            .get("controller")
            .and_then(Json::as_str)
            .ok_or(SnapError::Invalid("snapshot job lacks a controller name"))?;
        let same_policy = snap_controller == self.controller.name();
        let pristine = job.get("pristine").and_then(Json::as_bool).unwrap_or(false);
        if !same_policy {
            if !pristine {
                return Err(SnapError::Invalid(
                    "cross-policy resume requires a pristine snapshot (no launch decisions yet)",
                ));
            }
            if self.metrics_level == MetricsLevel::Timeseries {
                return Err(SnapError::Invalid(
                    "cross-policy resume is unsupported at timeseries metrics \
                     (monitored series are policy-specific)",
                ));
            }
        }
        let mut reader = ByteReader::new(state);
        let r = &mut reader;
        self.now = Cycle(r.get_u64()?);
        self.live_kernels = r.get_u32()?;
        self.next_stream = r.get_u32()?;
        self.warp_seq = r.get_u64()?;
        self.rr_smx = r.get_u64()? as usize;
        self.dispatch_at = get_opt_cycle(r)?;
        self.inflight_launches = r.get_u32()?;
        let pushed = r.get_u64()?;
        let n = r.get_len()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.get_u64()?;
            if t < self.now.as_u64() {
                return Err(SnapError::Invalid("queued event before the snapshot cycle"));
            }
            entries.push((t, get_ev(r)?));
        }
        self.gmu.decode_state(r)?;
        let n = r.get_len()?;
        if n != self.smxs.len() {
            return Err(SnapError::Invalid("SMX count differs from configuration"));
        }
        for smx in &mut self.smxs {
            smx.decode_state(r)?;
            self.mem.decode_l1(smx.id, r)?;
            smx.events_local = r.get_u64()?;
        }
        self.mem.decode_state(r)?;
        let n = r.get_len()?;
        let mut kernels = Vec::with_capacity(n);
        for i in 0..n {
            let k = KernelRt::decode_state(r)?;
            if k.id.index() != i {
                return Err(SnapError::Invalid("kernel id does not match its slot"));
            }
            kernels.push(k);
        }
        self.kernels = kernels;
        self.specs = SpecTable::decode_state(r)?;
        for k in &self.kernels {
            let parent_ok = k.parent.is_none_or(|p| p.index() < self.kernels.len());
            let class_ok = (k.class.0 as usize) < self.specs.class_count();
            let dp_ok = k.dp.is_none_or(|d| (d.0 as usize) < self.specs.dp_count());
            let smx_ok = k.origin_smx.is_none_or(|s| s.index() < self.smxs.len());
            if !(parent_ok && class_ok && dp_ok && smx_ok) {
                return Err(SnapError::Invalid("kernel holds a dangling reference"));
            }
        }
        for &(_, ev) in &entries {
            let ok = match ev {
                Ev::KernelArrive(k) | Ev::HwqRelease(k) => k.index() < self.kernels.len(),
                Ev::AggArrive { kernel, .. } => kernel.index() < self.kernels.len(),
                Ev::CtaStart { smx, .. } | Ev::SmxWork(smx) => smx.index() < self.smxs.len(),
                Ev::Dispatch | Ev::Sample => true,
            };
            if !ok {
                return Err(SnapError::Invalid("queued event holds a dangling reference"));
            }
        }
        // Safe to restore now that every entry is known to be ≥ now: the
        // wheel requires its frontier ≤ every entry time.
        self.events = TimingWheel::restore_entries(self.now.as_u64(), pushed, entries);
        self.occupancy = TimeWeighted::decode_state(r)?;
        self.parent_ctas_running = r.get_u32()?;
        self.child_ctas_running = r.get_u32()?;
        let n = r.get_len()?;
        self.timeline = Vec::with_capacity(n);
        for _ in 0..n {
            let t = r.get_u64()?;
            self.timeline.push((
                t,
                TimelineSample {
                    parent_ctas: r.get_u32()?,
                    child_ctas: r.get_u32()?,
                    utilization: r.get_f64()?,
                    concurrent_kernels: r.get_u32()?,
                    peak_smx_utilization: r.get_f64()?,
                },
            ));
        }
        let n = r.get_len()?;
        self.child_cta_exec = Vec::with_capacity(n);
        for _ in 0..n {
            self.child_cta_exec.push(r.get_u64()?);
        }
        let n = r.get_len()?;
        self.child_launch_times = Vec::with_capacity(n);
        for _ in 0..n {
            self.child_launch_times.push(r.get_u64()?);
        }
        self.queue_lat_sum = r.get_u128()?;
        self.queue_lat_count = r.get_u64()?;
        self.items_inline = r.get_u64()?;
        self.items_child = r.get_u64()?;
        self.launch_requests = r.get_u64()?;
        self.inlined_requests = r.get_u64()?;
        self.redistributed_requests = r.get_u64()?;
        self.aggregated_launches = r.get_u64()?;
        self.aggregated_cta_count = r.get_u64()?;
        self.child_ctas_executed = r.get_u64()?;
        self.child_kernels = r.get_u64()?;
        self.events_global = r.get_u64()?;
        self.dead_wakeups = r.get_u64()?;
        self.peak_queue_depth = r.get_u64()?;
        self.peak_local_backlog = r.get_u64()?;
        let has_ts = r.get_bool()?;
        if has_ts != self.timeseries.is_some() {
            return Err(SnapError::Invalid(
                "timeseries presence differs from the builder's metrics level",
            ));
        }
        if let Some(ts) = self.timeseries.as_deref_mut() {
            ts.decode_state(r)?;
        }
        if !same_policy && self.launch_requests != 0 {
            return Err(SnapError::Invalid(
                "snapshot claims pristine but records launch decisions",
            ));
        }
        let n = r.get_len()?;
        let mut log = Vec::with_capacity(n);
        for _ in 0..n {
            log.push(get_replay(r)?);
        }
        reader.finish()?;
        if same_policy {
            // Rebuild the controller's internal state (thresholds, CCQS
            // predictions, …) by replaying the exact call sequence the
            // original controller saw during the ramp. Every replayed
            // decision must reproduce the recorded one — a divergence
            // means this controller is not the one that took the
            // snapshot (same name, different parameters).
            for e in &log {
                match e {
                    ReplayEntry::Decide(req, recorded) => {
                        if self.controller.decide(req) != *recorded {
                            return Err(SnapError::Invalid(
                                "controller replay diverged from the snapshot's decisions",
                            ));
                        }
                    }
                    ReplayEntry::Observe(ev) => self.controller.observe(ev),
                }
            }
        }
        // If this resumed run arms its own (later) snapshot, seed the new
        // log with the decoded one so the chained snapshot still carries
        // the full history from cycle zero.
        if let Some(replay) = self.replay.as_mut() {
            *replay = log;
        }
        Ok(())
    }

    /// Delivers `ev` to the controller, recording it first when a
    /// snapshot is armed (see [`ReplayEntry`]).
    fn observe_controller(&mut self, ev: ControllerEvent) {
        if let Some(log) = self.replay.as_mut() {
            log.push(ReplayEntry::Observe(ev));
        }
        self.controller.observe(&ev);
    }

    fn handle(&mut self, now: Cycle, ev: Ev) {
        let phase = match ev {
            Ev::KernelArrive(_) | Ev::AggArrive { .. } | Ev::HwqRelease(_) => ph::GMU,
            Ev::Dispatch => ph::DISPATCH,
            Ev::CtaStart { .. } => ph::CTA_START,
            Ev::SmxWork(_) => ph::WAKEUP,
            Ev::Sample => ph::SAMPLE,
        };
        self.prof.enter(phase);
        match ev {
            Ev::KernelArrive(k) => self.on_kernel_arrive(now, k),
            Ev::AggArrive { kernel, count } => {
                self.kernels[kernel.index()].dispatchable_ctas += count;
                self.schedule_dispatch(now);
            }
            Ev::Dispatch => {
                if self.dispatch_at == Some(now) {
                    self.dispatch_at = None;
                }
                self.do_dispatch(now);
            }
            Ev::CtaStart { smx, cta_slot } => self.on_cta_start(now, smx, cta_slot),
            Ev::SmxWork(smx) => self.on_smx_work(now, smx),
            Ev::HwqRelease(kernel) => {
                let stream = self.kernels[kernel.index()].stream;
                self.gmu.kernel_complete(kernel, stream);
                self.schedule_dispatch(now);
            }
            Ev::Sample => self.on_sample(now),
        }
        self.prof.exit();
    }

    // ----- kernel arrival & dispatch ------------------------------------

    fn on_kernel_arrive(&mut self, now: Cycle, id: KernelId) {
        let k = &mut self.kernels[id.index()];
        debug_assert!(k.arrived_at.is_none(), "kernel arrived twice");
        if matches!(k.kind, KernelKind::Child) {
            debug_assert!(self.inflight_launches > 0);
            self.inflight_launches -= 1;
        }
        k.arrived_at = Some(now);
        if let Some(t) = self.trace.as_mut() {
            t.record(TraceEvent::KernelArrived { at: now, kernel: id });
        }
        if let CtaDirectory::Uniform { .. } = k.dir {
            k.dispatchable_ctas = k.grid_ctas;
        }
        let stream = k.stream;
        self.gmu.enqueue(id, stream);
        self.schedule_dispatch(now);
    }

    fn schedule_dispatch(&mut self, at: Cycle) {
        if self.dispatch_at.is_none_or(|t| t > at) {
            self.dispatch_at = Some(at);
            self.events.push(at, Ev::Dispatch);
        }
    }

    fn do_dispatch(&mut self, now: Cycle) {
        let mut candidates = std::mem::take(&mut self.dispatch_buf);
        self.gmu.dispatch_candidates_into(&mut candidates);
        loop {
            let mut placed_any = false;
            for &kid in &candidates {
                let k = &self.kernels[kid.index()];
                if k.next_cta >= k.dispatchable_ctas {
                    continue;
                }
                let threads = k.cta_threads;
                let regs = threads * k.regs_per_thread;
                let shmem = k.shmem_per_cta;
                let warps_needed = threads.div_ceil(self.cfg.warp_size);
                let n = self.smxs.len();
                let mut placed = None;
                // Locality-aware placement: try the parent's SMX first so
                // the child's reads hit the parent-warmed L1.
                if self.cfg.cta_placement == CtaPlacement::ParentAffinity {
                    if let Some(home) = k.origin_smx {
                        let s = home.index();
                        if self.smxs[s].can_fit(threads, regs, shmem, warps_needed) {
                            placed = Some(s);
                        }
                    }
                }
                if placed.is_none() {
                    for i in 0..n {
                        let s = (self.rr_smx + i) % n;
                        if self.smxs[s].can_fit(threads, regs, shmem, warps_needed) {
                            placed = Some(s);
                            break;
                        }
                    }
                    if let Some(s) = placed {
                        self.rr_smx = (s + 1) % n;
                    }
                }
                let Some(s) = placed else { continue };
                let k = &mut self.kernels[kid.index()];
                let cta_index = k.next_cta;
                k.next_cta += 1;
                k.live_ctas += 1;
                let is_child = k.is_child_work();
                if k.first_dispatch.is_none() {
                    k.first_dispatch = Some(now);
                    if matches!(k.kind, KernelKind::Child) {
                        let waited = now - k.arrived_at.expect("dispatched after arrival");
                        self.queue_lat_sum += waited.as_u64() as u128;
                        self.queue_lat_count += 1;
                    }
                }
                let cta_slot = self.smxs[s].reserve_cta(CtaRt {
                    kernel: kid,
                    cta_index,
                    live_warps: 0,
                    start_cycle: now,
                    lanes: Vec::new(),
                    threads,
                    regs,
                    shmem,
                    is_child_work: is_child,
                    cta_stream: None,
                });
                self.trace(|| TraceEvent::CtaDispatched {
                    at: now,
                    kernel: kid,
                    cta: cta_index,
                    smx: SmxId(s as u8),
                });
                self.events.push(
                    now + self.cfg.cta_dispatch_latency,
                    Ev::CtaStart {
                        smx: SmxId(s as u8),
                        cta_slot,
                    },
                );
                placed_any = true;
            }
            if !placed_any {
                break;
            }
        }
        self.dispatch_buf = candidates;
    }

    // ----- CTA & warp lifecycle -----------------------------------------

    fn on_cta_start(&mut self, now: Cycle, smx: SmxId, cta_slot: u32) {
        let si = smx.index();
        let (kernel_id, cta_index) = {
            let cta = self.smxs[si].cta(cta_slot);
            (cta.kernel, cta.cta_index)
        };
        // Fill the CTA's flat lane table (immutable borrow of kernels).
        // The work class and DP spec stay interned in the kernel table —
        // warps hold only `kernel_id` and look them up, so no Arc clones
        // happen here; the table buffer itself is recycled through
        // `lane_pool` and warps view `(lane_start, lane_count)` slices of
        // it, so the whole CTA start performs no steady-state allocation.
        let mut lanes = self.lane_pool.pop().unwrap_or_default();
        debug_assert!(lanes.is_empty());
        let (is_child, depth, class) = {
            let k = &self.kernels[kernel_id.index()];
            let ct = k.cta_threads(cta_index);
            let stride = self.specs.class(k.class).seq_bytes_per_item;
            lanes.extend((0..ct.count).map(|t| ct.source.thread(ct.base_tid + t, stride)));
            (k.is_child_work(), k.depth, k.class)
        };
        let ws = self.cfg.warp_size;
        let total = lanes.len() as u32;
        let warp_count = total.div_ceil(ws);
        {
            let cta = self.smxs[si].cta_mut(cta_slot);
            cta.start_cycle = now;
            cta.live_warps = warp_count;
            cta.is_child_work = is_child;
            cta.lanes = lanes;
        }
        let mut lane_start = 0;
        while lane_start < total {
            let lane_count = ws.min(total - lane_start);
            let age = self.warp_seq;
            self.warp_seq += 1;
            let outstanding_mem = self.warp_mem_pool.pop().unwrap_or_default();
            let slot = self.smxs[si].add_warp(WarpRt {
                cta_slot,
                kernel: kernel_id,
                class,
                is_child_work: is_child,
                depth,
                lane_start,
                lane_count,
                rounds_done: 0,
                rounds_total: 0,
                started: false,
                launches: 0,
                start_cycle: now,
                age,
                outstanding_mem,
            });
            self.smxs[si].mark_ready(slot);
            lane_start += lane_count;
        }
        self.occupancy.add(now, warp_count as i64);
        if is_child {
            self.child_ctas_running += 1;
            self.prof.enter(ph::CCQS);
            self.observe_controller(ControllerEvent::ChildCtaStart { now });
            self.prof.exit();
        } else {
            self.parent_ctas_running += 1;
        }
        if warp_count == 0 {
            // Degenerate empty CTA: complete immediately.
            self.finish_cta(now, si, cta_slot);
        } else {
            self.ensure_anchor(si, now);
        }
    }

    /// Guarantees a global `SmxWork` anchor covers cycle `at` for SMX
    /// `si`: one is pushed only when `at` precedes every pending anchor.
    /// An anchor at `a ≤ at` already covers `at` — its handler re-anchors
    /// the SMX's next interesting cycle before returning — so the anchor
    /// set stays strictly decreasing on insert and never holds two events
    /// for the same cycle. This is what the old per-cycle `SmxTick` dedupe
    /// could not do: lowering `tick_at` leaked the superseded event into
    /// the queue as a dead pop.
    fn ensure_anchor(&mut self, si: usize, at: Cycle) {
        if self.smxs[si].try_anchor(at) {
            self.events.push(at, Ev::SmxWork(SmxId(si as u8)));
        }
    }

    /// Schedules a warp wakeup on the SMX's local wheel and makes sure a
    /// global anchor will fire by then.
    fn schedule_wakeup(&mut self, si: usize, at: Cycle, slot: u32) {
        self.smxs[si].local.push(at, slot);
        let backlog = self.smxs[si].local.len() as u64;
        self.peak_local_backlog = self.peak_local_backlog.max(backlog);
        self.ensure_anchor(si, at);
    }

    /// The per-SMX anchor handler: drain local wakeups due this cycle,
    /// run the issue loop, then re-anchor the SMX's next interesting
    /// cycle (pending ready warps → `now + 1`, else the next local
    /// wakeup). An anchor always finds work or a future wakeup to relay:
    /// local entries drain only at their own cycle, and a drained ready
    /// set implies freshly scheduled wakeups — `dead_wakeups` counts the
    /// remaining "fired with nothing at all" case, which is structurally
    /// impossible and pinned at zero by the determinism tests.
    fn on_smx_work(&mut self, now: Cycle, smx: SmxId) {
        let si = smx.index();
        let anchors = &mut self.smxs[si].anchors;
        let pos = anchors
            .iter()
            .position(|&a| a == now)
            .expect("anchor fired without registration");
        anchors.swap_remove(pos);
        let mut idle = true;
        while self.smxs[si].local.peek_time() == Some(now) {
            let (_, slot) = self.smxs[si].local.pop().expect("peeked wakeup");
            self.smxs[si].events_local += 1;
            idle = false;
            let w = self.smxs[si].warp(slot);
            if w.started && w.rounds_done >= w.rounds_total {
                self.finish_warp(now, si, slot);
            } else {
                self.smxs[si].mark_ready(slot);
            }
        }
        if self.smxs[si].has_ready() {
            idle = false;
            for _ in 0..self.cfg.issue_width {
                let Some(slot) = self.smxs[si].select_ready() else {
                    break;
                };
                if self.smxs[si].warp(slot).started {
                    self.run_round(now, si, slot);
                } else {
                    self.start_warp(now, si, slot);
                }
            }
            if self.smxs[si].has_ready() {
                self.ensure_anchor(si, now + 1);
            }
        }
        if let Some(next) = self.smxs[si].local.peek_time() {
            debug_assert!(next > now, "undrained wakeup at the anchor cycle");
            self.ensure_anchor(si, next);
        } else if idle {
            self.dead_wakeups += 1;
        }
    }

    /// First issue of a warp: make the launch decisions for every
    /// candidate lane, then charge the prologue (init + API calls).
    fn start_warp(&mut self, now: Cycle, si: usize, slot: u32) {
        self.prof.enter(ph::LAUNCH);
        let (kernel_id, cta_slot, depth) = {
            let w = self.smxs[si].warp(slot);
            (w.kernel, w.cta_slot, w.depth)
        };
        let dp_opt = self.kernels[kernel_id.index()].dp;
        let mut api_cost: u64 = 0;
        // CUDA bounds device-launch nesting; sites past the limit fail
        // at the API and fall back to in-thread execution.
        let dp_opt = dp_opt.filter(|_| depth < self.cfg.max_nesting_depth);
        if let Some(dp_id) = dp_opt {
            // All-`Copy` params: the per-lane loop below touches no `Arc`
            // refcount at all.
            let dp = self.specs.dp(dp_id);
            let min_items = dp.min_items.max(1);
            let mut candidates = std::mem::take(&mut self.cand_buf);
            candidates.clear();
            candidates.extend(
                self.smxs[si]
                    .warp_lanes(slot)
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.items >= min_items)
                    .map(|(i, l)| (i as u32, *l)),
            );
            for (lane_idx, work) in candidates.drain(..) {
                let lane_idx = lane_idx as usize;
                let (ctas, threads) = dp.child_geometry(work.items);
                let prior = self.smxs[si].warp(slot).launches;
                let req = ChildRequest {
                    now,
                    parent_kernel: kernel_id,
                    depth: depth + 1,
                    items: work.items,
                    child_ctas: ctas,
                    child_threads: threads,
                    child_warps_per_cta: dp.child_warps_per_cta(self.cfg.warp_size),
                    warp_prior_launches: prior,
                    default_threshold: dp.default_threshold,
                    pending_kernels: self.gmu.pending() + self.inflight_launches,
                };
                self.launch_requests += 1;
                self.prof.enter(ph::CCQS);
                let mut decision = self.controller.decide(&req);
                self.prof.exit();
                if let Some(log) = self.replay.as_mut() {
                    log.push(ReplayEntry::Decide(req.clone(), decision));
                }
                self.trace(|| TraceEvent::Decision {
                    at: now,
                    parent: kernel_id,
                    items: work.items,
                    decision,
                });
                let pool_occupancy = self.gmu.pending() + self.inflight_launches;
                if decision == LaunchDecision::Kernel && pool_occupancy >= self.cfg.pending_pool_cap {
                    // The device launch API returns "fail": compute inline
                    // (the §IV-B translated-source contract).
                    decision = LaunchDecision::Inline;
                }
                if let Some(ts) = self.timeseries.as_deref_mut() {
                    ts.decision(now.as_u64(), decision);
                }
                match decision {
                    LaunchDecision::Kernel => {
                        let x = {
                            let w = self.smxs[si].warp_mut(slot);
                            w.launches += 1;
                            w.launches as u64
                        };
                        self.smxs[si].warp_lanes_mut(slot)[lane_idx].items = 0;
                        api_cost += self.cfg.launch.api_call_cycles;
                        let stream = self.child_stream(si, cta_slot);
                        let child = self.create_child_kernel(
                            kernel_id,
                            dp,
                            work,
                            ctas,
                            threads,
                            stream,
                            now,
                            depth + 1,
                            Some(SmxId(si as u8)),
                        );
                        self.trace(|| TraceEvent::KernelCreated {
                            at: now,
                            kernel: child,
                            parent: Some(kernel_id),
                        });
                        let delay = self.cfg.launch.kernel_latency(x);
                        self.inflight_launches += 1;
                        self.events.push(now + delay, Ev::KernelArrive(child));
                        self.child_launch_times.push(now.as_u64());
                        self.child_kernels += 1;
                    }
                    LaunchDecision::Aggregated => {
                        self.smxs[si].warp_lanes_mut(slot)[lane_idx].items = 0;
                        api_cost += self.cfg.launch.api_call_cycles;
                        let agg = self.agg_kernel_for(kernel_id, dp, now);
                        let source = ThreadSource::Derived {
                            origin: work,
                            items_per_thread: dp.child_items_per_thread,
                        };
                        let k = &mut self.kernels[agg.index()];
                        if let CtaDirectory::Aggregated { entries } = &mut k.dir {
                            for local in 0..ctas {
                                entries.push(AggCta {
                                    source: source.clone(),
                                    local_cta: local,
                                    child_threads: threads,
                                });
                            }
                        }
                        k.grid_ctas += ctas;
                        self.events.push(
                            now + self.cfg.launch.dtbl_per_cta_cycles,
                            Ev::AggArrive { kernel: agg, count: ctas },
                        );
                        self.aggregated_launches += 1;
                        self.aggregated_cta_count += ctas as u64;
                    }
                    LaunchDecision::Redistribute => {
                        // Free-Launch: spread the items across the whole
                        // warp. Work is conserved exactly; the first
                        // `items % n` lanes take the remainder.
                        let lanes = self.smxs[si].warp_lanes_mut(slot);
                        let n = lanes.len() as u32;
                        let items = lanes[lane_idx].items;
                        lanes[lane_idx].items = 0;
                        let share = items / n;
                        let rem = (items % n) as usize;
                        for (i, lane) in lanes.iter_mut().enumerate() {
                            lane.items += share + u32::from(i < rem);
                        }
                        self.redistributed_requests += 1;
                    }
                    LaunchDecision::Inline => {
                        self.inlined_requests += 1;
                    }
                }
            }
            self.cand_buf = candidates;
        }
        let init_cycles = {
            let k = &self.kernels[kernel_id.index()];
            self.specs.class(k.class).init_cycles
        };
        let rounds_total = self.smxs[si]
            .warp_lanes(slot)
            .iter()
            .map(|l| l.items)
            .max()
            .unwrap_or(0);
        let w = self.smxs[si].warp_mut(slot);
        w.started = true;
        w.rounds_total = rounds_total;
        let busy = init_cycles as u64 + api_cost + 1;
        self.schedule_wakeup(si, now + busy, slot);
        self.prof.exit();
    }

    fn child_stream(&mut self, si: usize, cta_slot: u32) -> StreamId {
        match self.cfg.stream_policy {
            StreamPolicy::PerChildKernel => {
                let s = StreamId(self.next_stream);
                self.next_stream += 1;
                s
            }
            StreamPolicy::PerParentCta => {
                let next = &mut self.next_stream;
                let cta = self.smxs[si].cta_mut(cta_slot);
                *cta.cta_stream.get_or_insert_with(|| {
                    let s = StreamId(*next);
                    *next += 1;
                    s
                })
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn create_child_kernel(
        &mut self,
        parent: KernelId,
        dp: DpParams,
        work: ThreadWork,
        ctas: u32,
        threads: u32,
        stream: StreamId,
        now: Cycle,
        depth: u8,
        origin_smx: Option<SmxId>,
    ) -> KernelId {
        let id = KernelId(self.kernels.len() as u32);
        self.kernels.push(KernelRt {
            id,
            name: Arc::clone(self.specs.child_name(dp.id)),
            kind: KernelKind::Child,
            parent: Some(parent),
            depth,
            stream,
            origin_smx,
            cta_threads: dp.child_cta_threads,
            regs_per_thread: dp.child_regs_per_thread,
            shmem_per_cta: dp.child_shmem_per_cta,
            class: dp.class,
            dp: dp.nested,
            dir: CtaDirectory::Uniform {
                source: ThreadSource::Derived {
                    origin: work,
                    items_per_thread: dp.child_items_per_thread,
                },
                total_threads: threads,
            },
            grid_ctas: ctas,
            dispatchable_ctas: 0,
            next_cta: 0,
            live_ctas: 0,
            live_children: 0,
            agg_children: Vec::new(),
            own_done: false,
            fully_done: false,
            created_at: now,
            arrived_at: None,
            first_dispatch: None,
            own_done_at: None,
        });
        self.kernels[parent.index()].live_children += 1;
        self.live_kernels += 1;
        id
    }

    /// Returns (creating on first use) the DTBL aggregation kernel that
    /// collects coalesced child CTAs of `parent`.
    fn agg_kernel_for(&mut self, parent: KernelId, dp: DpParams, now: Cycle) -> KernelId {
        if let Some(&agg) = self.kernels[parent.index()].agg_children.first() {
            return agg;
        }
        let id = KernelId(self.kernels.len() as u32);
        let depth = self.kernels[parent.index()].depth + 1;
        self.kernels.push(KernelRt {
            id,
            name: Arc::clone(self.specs.agg_name(dp.id)),
            kind: KernelKind::Aggregated,
            parent: Some(parent),
            depth,
            stream: StreamId(u32::MAX - id.0), // never enters an HWQ
            origin_smx: None,
            cta_threads: dp.child_cta_threads,
            regs_per_thread: dp.child_regs_per_thread,
            shmem_per_cta: dp.child_shmem_per_cta,
            class: dp.class,
            dp: dp.nested,
            dir: CtaDirectory::Aggregated {
                entries: Vec::new(),
            },
            grid_ctas: 0,
            dispatchable_ctas: 0,
            next_cta: 0,
            live_ctas: 0,
            live_children: 0,
            agg_children: Vec::new(),
            own_done: false,
            fully_done: false,
            created_at: now,
            arrived_at: Some(now),
            first_dispatch: None,
            own_done_at: None,
        });
        self.kernels[parent.index()].agg_children.push(id);
        self.kernels[parent.index()].live_children += 1;
        self.live_kernels += 1;
        self.gmu.register_aggregated(id);
        id
    }

    /// Executes one round of a started warp.
    fn run_round(&mut self, now: Cycle, si: usize, slot: u32) {
        self.prof.enter(ph::ROUND);
        let addrs = &mut self.addr_buf;
        let scratch = &mut self.scratch_buf;
        addrs.clear();
        scratch.clear();
        self.prof.enter(ph::COALESCE);
        let (compute, active, write_line, is_child, seq_len) = {
            let (w, lanes) = self.smxs[si].warp_and_lanes(slot);
            let r = w.rounds_done;
            // Disjoint immutable borrows: warp state from the SMX, the
            // interned work class from the spec table (mirrored onto the
            // warp at install time).
            let class = self.specs.class(w.class);
            let mut active = 0u32;
            let mut first_seed = None;
            // Block-ordered generation in one pass over the lanes:
            // sequential addresses to `addrs`, random references to
            // `scratch`, concatenated below. Coalescing canonicalizes to
            // a sorted unique set, so the set is identical to lane-major
            // order — but the block split lets the coalescer skip sorting
            // the (already ascending) sequential run.
            for lane in lanes {
                if lane.items > r {
                    active += 1;
                    if first_seed.is_none() {
                        first_seed = Some(lane.rand_seed);
                    }
                    if class.seq_bytes_per_item > 0 {
                        addrs.push(lane.seq_base + r as u64 * class.seq_bytes_per_item as u64);
                    }
                    for k in 0..class.rand_refs_per_item {
                        scratch.push(class.rand_addr(lane.rand_seed, r, k));
                    }
                }
            }
            let seq_len = addrs.len();
            addrs.extend_from_slice(scratch);
            let write_line = if class.writes_per_item > 0 && class.rand_region_bytes > 0 {
                first_seed.map(|s| {
                    class.rand_addr(s ^ 0x5757_5757, r, 0)
                        >> self.cfg.mem.line_bytes.trailing_zeros()
                })
            } else {
                None
            };
            (class.compute_per_item as u64, active, write_line, w.is_child_work, seq_len)
        };
        coalesce_lines_parts(addrs, seq_len, scratch, self.cfg.mem.line_bytes);
        self.prof.exit(); // coalesce
        self.prof.enter(ph::CACHE);
        let mem_done = if self.addr_buf.is_empty() {
            now
        } else {
            let smx = self.smxs[si].id;
            self.mem.warp_read(now, smx, &self.addr_buf, &mut self.prof)
        };
        if let Some(line) = write_line {
            self.mem.warp_write(now, line, &mut self.prof);
        }
        self.prof.exit(); // cache
        self.finish_round(now, si, slot, compute, active, is_child, mem_done);
        self.prof.exit(); // round
    }

    /// The tail of a round: items accounting, the MLP window, and the
    /// wakeup at the round's completion time.
    #[allow(clippy::too_many_arguments)]
    fn finish_round(
        &mut self,
        now: Cycle,
        si: usize,
        slot: u32,
        compute: u64,
        active: u32,
        is_child: bool,
        mem_done: Cycle,
    ) {
        if is_child {
            self.items_child += active as u64;
        } else {
            self.items_inline += active as u64;
        }
        let mlp = self.cfg.mlp_depth as usize;
        let w = self.smxs[si].warp_mut(slot);
        w.rounds_done += 1;
        // Loop-level memory pipelining: the warp only stalls on a round's
        // memory once `mlp_depth` requests are in flight, except at its
        // final round where everything must drain (results are consumed).
        let mut done = now + compute + 1;
        if mem_done > now {
            w.outstanding_mem.push_back(mem_done);
        }
        if w.rounds_done >= w.rounds_total {
            for &d in &w.outstanding_mem {
                done = done.max(d);
            }
            w.outstanding_mem.clear();
        } else {
            while w.outstanding_mem.len() > mlp.saturating_sub(1) {
                let oldest = w.outstanding_mem.pop_front().expect("non-empty");
                done = done.max(oldest);
            }
        }
        self.schedule_wakeup(si, done, slot);
    }

    /// Returns a finished warp's MLP buffer to the free-list, unless the
    /// list is already at its [`POOL_CAP`] bound (then the buffer drops).
    fn recycle_mem_buf(&mut self, buf: &mut std::collections::VecDeque<Cycle>) {
        buf.clear();
        if self.warp_mem_pool.len() < POOL_CAP {
            self.warp_mem_pool.push(std::mem::take(buf));
        }
    }

    /// Returns a finished CTA's lane table to the free-list, unless the
    /// list is already at its [`POOL_CAP`] bound (then the buffer drops).
    fn recycle_lane_buf(&mut self, mut buf: Vec<ThreadWork>) {
        if self.lane_pool.len() < POOL_CAP {
            buf.clear();
            self.lane_pool.push(buf);
        }
    }

    fn finish_warp(&mut self, now: Cycle, si: usize, slot: u32) {
        let mut w = self.smxs[si].take_warp(slot);
        self.recycle_mem_buf(&mut w.outstanding_mem);
        self.occupancy.add(now, -1);
        if w.is_child_work {
            self.prof.enter(ph::CCQS);
            self.observe_controller(ControllerEvent::ChildWarpFinish {
                now,
                exec_cycles: (now - w.start_cycle).as_u64(),
            });
            self.prof.exit();
        }
        let cta_slot = w.cta_slot;
        let cta = self.smxs[si].cta_mut(cta_slot);
        debug_assert!(cta.live_warps > 0);
        cta.live_warps -= 1;
        if cta.live_warps == 0 {
            self.finish_cta(now, si, cta_slot);
        }
    }

    fn finish_cta(&mut self, now: Cycle, si: usize, cta_slot: u32) {
        let mut cta = self.smxs[si].release_cta(cta_slot);
        let lanes = std::mem::take(&mut cta.lanes);
        self.recycle_lane_buf(lanes);
        if cta.is_child_work {
            debug_assert!(self.child_ctas_running > 0);
            self.child_ctas_running -= 1;
            self.child_ctas_executed += 1;
            let exec = (now - cta.start_cycle).as_u64();
            self.child_cta_exec.push(exec);
            self.prof.enter(ph::CCQS);
            self.observe_controller(ControllerEvent::ChildCtaFinish {
                now,
                exec_cycles: exec,
            });
            self.prof.exit();
        } else {
            debug_assert!(self.parent_ctas_running > 0);
            self.parent_ctas_running -= 1;
        }
        let kid = cta.kernel;
        self.kernels[kid.index()].live_ctas -= 1;
        self.maybe_complete_kernel(now, kid);
        self.schedule_dispatch(now);
    }

    // ----- completion cascade -------------------------------------------

    fn maybe_complete_kernel(&mut self, now: Cycle, kid: KernelId) {
        if !self.kernels[kid.index()].own_done {
            let own = {
                let k = &self.kernels[kid.index()];
                match k.kind {
                    KernelKind::Aggregated => {
                        let parent_done = self.kernels
                            [k.parent.expect("agg kernels have parents").index()]
                        .own_done;
                        parent_done && k.own_work_drained()
                    }
                    _ => k.arrived_at.is_some() && k.own_work_drained(),
                }
            };
            if !own {
                return;
            }
            let (kind, stream, agg_children) = {
                let k = &mut self.kernels[kid.index()];
                k.own_done = true;
                k.own_done_at = Some(now);
                (k.kind, k.stream, k.agg_children.clone())
            };
            self.trace(|| TraceEvent::KernelCompleted { at: now, kernel: kid });
            match kind {
                KernelKind::Aggregated => self.gmu.aggregated_complete(kid),
                _ => {
                    // The HWQ slot stays occupied until the turnaround
                    // floor elapses, bounding back-to-back kernel rate.
                    let floor = self.kernels[kid.index()]
                        .first_dispatch
                        .expect("own-complete implies dispatched")
                        + self.cfg.launch.hwq_turnaround_cycles;
                    if floor > now {
                        self.events.push(floor, Ev::HwqRelease(kid));
                    } else {
                        self.gmu.kernel_complete(kid, stream);
                    }
                }
            }
            self.schedule_dispatch(now);
            // Our own completion may unblock our aggregation kernels.
            for agg in agg_children {
                self.maybe_complete_kernel(now, agg);
            }
        }
        self.try_fully_complete(kid);
    }

    fn try_fully_complete(&mut self, kid: KernelId) {
        let k = &self.kernels[kid.index()];
        if k.fully_done || !k.own_done || k.live_children > 0 {
            return;
        }
        let parent = k.parent;
        self.kernels[kid.index()].fully_done = true;
        debug_assert!(self.live_kernels > 0);
        self.live_kernels -= 1;
        if let Some(p) = parent {
            let pk = &mut self.kernels[p.index()];
            debug_assert!(pk.live_children > 0);
            pk.live_children -= 1;
            self.try_fully_complete(p);
        }
    }

    // ----- sampling & report --------------------------------------------

    fn utilization_now(&self) -> f64 {
        let mut used_t = 0u64;
        let mut used_r = 0u64;
        let mut used_m = 0u64;
        for s in &self.smxs {
            used_t += s.used_threads as u64;
            used_r += s.used_regs as u64;
            used_m += s.used_shmem as u64;
        }
        let n = self.smxs.len() as u64;
        let t = used_t as f64 / (n * self.cfg.max_threads_per_smx as u64) as f64;
        let r = used_r as f64 / (n * self.cfg.regs_per_smx as u64) as f64;
        let m = used_m as f64 / (n * self.cfg.shmem_per_smx as u64) as f64;
        t.max(r).max(m)
    }

    fn on_sample(&mut self, now: Cycle) {
        let peak = self
            .smxs
            .iter()
            .map(|s| {
                let (t, r, m) = s.utilization();
                t.max(r).max(m)
            })
            .fold(0.0f64, f64::max);
        let utilization = self.utilization_now();
        self.timeline.push((
            now.as_u64(),
            TimelineSample {
                parent_ctas: self.parent_ctas_running,
                child_ctas: self.child_ctas_running,
                utilization,
                concurrent_kernels: self.gmu.concurrent_kernels(),
                peak_smx_utilization: peak,
            },
        ));
        if let Some(hook) = &self.watch {
            hook(WatchSample {
                now: now.as_u64(),
                queue_depth: (self.gmu.pending() + self.inflight_launches) as f64,
                hwq_utilization: self.gmu.concurrent_kernels() as f64
                    / self.cfg.num_hwqs as f64,
                utilization,
                parent_ctas: self.parent_ctas_running,
                child_ctas: self.child_ctas_running,
            });
        }
        if let Some(ts) = self.timeseries.as_deref_mut() {
            ts.sample(
                now.as_u64(),
                (self.gmu.pending() + self.inflight_launches) as f64,
                self.gmu.concurrent_kernels() as f64 / self.cfg.num_hwqs as f64,
                self.controller.monitored(),
                &self.smxs,
            );
        }
        if self.live_kernels > 0 {
            self.events.push(now + self.cfg.sample_period, Ev::Sample);
        }
    }

    fn build_report(&mut self) -> SimReport {
        let events_local: u64 = self.smxs.iter().map(|s| s.events_local).sum();
        let kernels = self
            .kernels
            .iter()
            .map(|k| KernelSummary {
                id: k.id.0,
                name: k.name.clone(),
                role: match k.kind {
                    KernelKind::Host => KernelRole::Host,
                    KernelKind::Child => KernelRole::Child,
                    KernelKind::Aggregated => KernelRole::Aggregated,
                },
                depth: k.depth,
                grid_ctas: k.grid_ctas,
                created_at: k.created_at.as_u64(),
                arrived_at: k.arrived_at.map(Cycle::as_u64),
                first_dispatch: k.first_dispatch.map(Cycle::as_u64),
                own_done_at: k.own_done_at.map(Cycle::as_u64),
            })
            .collect();
        let total = self.now;
        let warp_capacity =
            self.cfg.smx_count as u64 * self.cfg.max_warps_per_smx() as u64;
        let occupancy = if total == Cycle::ZERO {
            0.0
        } else {
            self.occupancy.mean(Cycle::ZERO, total) / warp_capacity as f64
        };
        SimReport {
            controller: self.controller.name().to_string(),

            total_cycles: total.as_u64(),
            child_kernels_launched: self.child_kernels,
            launch_requests: self.launch_requests,
            inlined_requests: self.inlined_requests,
            redistributed_requests: self.redistributed_requests,
            aggregated_launches: self.aggregated_launches,
            aggregated_ctas: self.aggregated_cta_count,
            child_ctas_executed: self.child_ctas_executed,
            items_inline: self.items_inline,
            items_child: self.items_child,
            occupancy,
            mem: self.mem.stats(),
            dram_row_hit_rate: self.mem.dram_row_hit_rate(),
            avg_child_queue_latency: if self.queue_lat_count == 0 {
                0.0
            } else {
                self.queue_lat_sum as f64 / self.queue_lat_count as f64
            },
            max_pending_kernels: self.gmu.max_pending_seen(),
            timeline: std::mem::take(&mut self.timeline),
            child_cta_exec_cycles: std::mem::take(&mut self.child_cta_exec),
            child_launch_cycles: std::mem::take(&mut self.child_launch_times),
            events_processed: self.events_global + events_local,
            events_global: self.events_global,
            events_local,
            dead_wakeups: self.dead_wakeups,
            peak_queue_depth: self.peak_queue_depth,
            peak_local_backlog: self.peak_local_backlog,
            wall_ms: self.wall_ms,
            kernels,
        }
    }

    /// Assembles the JSON run artifact: config echo, report, component
    /// metrics (GMU, SMXs, memory, controller), CCQS estimate-vs-actual
    /// samples, and the trace (when enabled).
    fn build_artifact(&self, report: &SimReport) -> RunArtifact {
        let mut reg = MetricsRegistry::new(self.metrics_level);
        reg.counter("sim.events_processed", report.events_processed);
        reg.counter("sim.events_global", report.events_global);
        reg.counter("sim.events_local", report.events_local);
        reg.counter("sim.dead_wakeups", self.dead_wakeups);
        reg.counter("sim.peak_queue_depth", self.peak_queue_depth);
        reg.counter("sim.peak_local_backlog", self.peak_local_backlog);
        reg.gauge("sim.occupancy", report.occupancy);
        reg.histogram("sim.child_cta_exec_cycles", &report.child_cta_exec_cycles);
        reg.histogram("sim.child_launch_cycles", &report.child_launch_cycles);
        self.gmu.export_metrics(&mut reg);
        let per_smx: Vec<u64> = self.smxs.iter().map(|s| s.ctas_executed).collect();
        reg.histogram("smx.ctas_executed", &per_smx);
        let peak = self
            .smxs
            .iter()
            .map(|s| s.peak_resident_warps)
            .max()
            .unwrap_or(0);
        reg.gauge("smx.peak_resident_warps", peak as f64);
        if self.metrics_level.at_least_full() {
            for s in &self.smxs {
                s.export_metrics(&mut reg);
            }
        }
        self.controller.export_metrics(&mut reg);
        let samples = self.ccqs_samples(report);
        RunArtifact::build(
            self.metrics_level,
            &self.cfg,
            report,
            &reg,
            &samples,
            self.timeseries.as_deref().map(SimSeries::to_json),
            self.trace.as_ref(),
        )
    }

    /// Pairs the controller's Eq. 1 completion-time predictions (decision
    /// order) with the child kernels' observed completion latencies
    /// (creation order) — the artifact's estimate-vs-actual samples.
    fn ccqs_samples(&self, report: &SimReport) -> Vec<CcqsSample> {
        let Some(preds) = self.controller.predictions() else {
            return Vec::new();
        };
        let children = report
            .kernels
            .iter()
            .filter(|k| k.role == KernelRole::Child);
        preds
            .iter()
            .zip(children)
            .map(|(&estimate, k)| CcqsSample {
                kernel: k.id,
                estimate,
                actual: k.own_done_at.map(|done| done - k.created_at),
            })
            .collect()
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("live_kernels", &self.live_kernels)
            .field("kernels", &self.kernels.len())
            .field("events", &self.events)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use crate::work::WorkClass;

    /// Test policy: launch a kernel whenever the workload exceeds the
    /// app threshold (what Baseline-DP does; re-implemented here so the
    /// gpu crate's tests do not depend on dynapar-core).
    struct LaunchOverThreshold;
    impl LaunchController for LaunchOverThreshold {
        fn name(&self) -> &str {
            "test-threshold"
        }
        fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
            if req.items > req.default_threshold {
                LaunchDecision::Kernel
            } else {
                LaunchDecision::Inline
            }
        }
    }

    /// Test policy: DTBL-style aggregation over the threshold.
    struct AggregateOverThreshold;
    impl LaunchController for AggregateOverThreshold {
        fn name(&self) -> &str {
            "test-dtbl"
        }
        fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
            if req.items > req.default_threshold {
                LaunchDecision::Aggregated
            } else {
                LaunchDecision::Inline
            }
        }
    }

    fn mem_class(label: &'static str, compute: u32) -> Arc<WorkClass> {
        Arc::new(WorkClass {
            label,
            compute_per_item: compute,
            init_cycles: 10,
            seq_bytes_per_item: 8,
            rand_refs_per_item: 1,
            rand_region_base: 0x1000_0000,
            rand_region_bytes: 1 << 22,
            writes_per_item: 1,
        })
    }

    fn dp_spec(threshold: u32) -> Arc<DpSpec> {
        Arc::new(DpSpec {
            child_class: mem_class("child", 20),
            child_cta_threads: 64,
            child_items_per_thread: 1,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 32,
            default_threshold: threshold,
            nested: None,
        })
    }

    /// Imbalanced parent: most threads have 2 items, every 64th has 500.
    fn imbalanced_kernel(dp: Option<Arc<DpSpec>>) -> KernelDesc {
        let threads: Vec<ThreadWork> = (0..512u32)
            .map(|t| ThreadWork {
                items: if t % 64 == 0 { 500 } else { 2 },
                seq_base: t as u64 * 8192,
                rand_seed: t as u64,
            })
            .collect();
        KernelDesc {
            name: "imbalanced".into(),
            cta_threads: 128,
            regs_per_thread: 24,
            shmem_per_cta: 0,
            class: mem_class("parent", 24),
            source: ThreadSource::Explicit(threads.into()),
            dp,
        }
    }

    fn total_items() -> u64 {
        (0..512u64).map(|t| if t % 64 == 0 { 500 } else { 2 }).sum()
    }

    fn run_with(controller: Box<dyn LaunchController>, dp: Option<Arc<DpSpec>>) -> SimReport {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(controller)
            .build();
        sim.launch_host(imbalanced_kernel(dp));
        sim.run().report
    }

    #[test]
    fn flat_run_executes_every_item_inline() {
        let r = run_with(Box::new(crate::InlineAll), Some(dp_spec(64)));
        assert_eq!(r.items_total(), total_items());
        assert_eq!(r.items_child, 0);
        assert_eq!(r.child_kernels_launched, 0);
        assert!(r.total_cycles > 0);
        assert!(r.occupancy > 0.0 && r.occupancy <= 1.0);
    }

    #[test]
    fn dp_run_conserves_work_and_offloads() {
        let r = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        assert_eq!(r.items_total(), total_items());
        // 8 heavy threads (every 64th of 512) launch children.
        assert_eq!(r.child_kernels_launched, 8);
        assert_eq!(r.items_child, 8 * 500);
        assert!(r.child_ctas_executed > 0);
        assert_eq!(r.child_ctas_executed as usize, r.child_cta_exec_cycles.len());
        assert_eq!(r.child_launch_cycles.len(), 8);
    }

    #[test]
    fn dp_beats_flat_on_imbalanced_workload() {
        let flat = run_with(Box::new(crate::InlineAll), Some(dp_spec(64)));
        let dp = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        assert!(
            dp.total_cycles < flat.total_cycles,
            "DP {} should beat flat {} on heavy imbalance",
            dp.total_cycles,
            flat.total_cycles
        );
    }

    #[test]
    fn launch_overhead_delays_children() {
        let r = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        // Child kernels cannot start before b = 20210 cycles of overhead.
        assert!(r.avg_child_queue_latency >= 0.0);
        let first_launch = *r.child_launch_cycles.iter().min().expect("launches");
        assert!(first_launch < 20_210, "launch call happens early");
        // The run must outlast the launch overhead.
        assert!(r.total_cycles > 20_210);
    }

    #[test]
    fn aggregated_path_avoids_kernels() {
        let r = run_with(Box::new(AggregateOverThreshold), Some(dp_spec(64)));
        assert_eq!(r.child_kernels_launched, 0);
        assert_eq!(r.aggregated_launches, 8);
        assert!(r.aggregated_ctas >= 8);
        assert_eq!(r.items_total(), total_items());
        assert_eq!(r.items_child, 8 * 500);
    }

    #[test]
    fn dtbl_starts_children_sooner_than_kernel_launch() {
        let kern = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        let dtbl = run_with(Box::new(AggregateOverThreshold), Some(dp_spec(64)));
        // DTBL pays no A*x+b overhead, so on this launch-bound workload it
        // should not be slower.
        assert!(dtbl.total_cycles <= kern.total_cycles);
    }

    #[test]
    fn determinism_same_inputs_same_report() {
        let a = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        let b = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.child_kernels_launched, b.child_kernels_launched);
        assert_eq!(a.items_inline, b.items_inline);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn no_dp_spec_means_no_requests() {
        let r = run_with(Box::new(LaunchOverThreshold), None);
        assert_eq!(r.launch_requests, 0);
        assert_eq!(r.items_total(), total_items());
    }

    #[test]
    fn timeline_and_samples_are_recorded() {
        let r = run_with(Box::new(LaunchOverThreshold), Some(dp_spec(64)));
        assert!(!r.timeline.is_empty());
        // Samples are time-ordered and CTAs bounded by the hardware limit.
        let cfg = GpuConfig::test_small();
        let max = cfg.max_concurrent_ctas();
        for w in r.timeline.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for (_, s) in &r.timeline {
            assert!(s.total_ctas() <= max);
            assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        }
    }

    #[test]
    fn schedulers_both_complete_with_same_work() {
        for sched in [SchedulerKind::Gto, SchedulerKind::RoundRobin] {
            let mut cfg = GpuConfig::test_small();
            cfg.scheduler = sched;
            let mut sim = Simulation::builder(cfg)
                .controller(Box::new(LaunchOverThreshold))
                .build();
            sim.launch_host(imbalanced_kernel(Some(dp_spec(64))));
            let r = sim.run().report;
            assert_eq!(r.items_total(), total_items(), "{sched:?}");
        }
    }

    #[test]
    fn stream_policies_both_complete() {
        // Many children per parent CTA, and more HWQs than parent CTAs, so
        // per-parent-CTA streams actually serialize children (Fig. 8).
        let threads: Arc<[ThreadWork]> = (0..512u32)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 300 } else { 2 },
                seq_base: t as u64 * 8192,
                rand_seed: t as u64,
            })
            .collect();
        let expected: u64 = (0..512u64).map(|t| if t % 8 == 0 { 300 } else { 2 }).sum();
        let mk = || KernelDesc {
            name: "streams".into(),
            cta_threads: 128,
            regs_per_thread: 24,
            shmem_per_cta: 0,
            class: mem_class("parent", 24),
            source: ThreadSource::Explicit(threads.clone()),
            dp: Some(dp_spec(64)),
        };
        let mut totals = Vec::new();
        for policy in [StreamPolicy::PerChildKernel, StreamPolicy::PerParentCta] {
            let mut cfg = GpuConfig::test_small();
            cfg.num_hwqs = 32;
            cfg.stream_policy = policy;
            let mut sim = Simulation::builder(cfg)
                .controller(Box::new(LaunchOverThreshold))
                .build();
            sim.launch_host(mk());
            let r = sim.run().report;
            assert_eq!(r.items_total(), expected, "{policy:?}");
            totals.push(r.total_cycles);
        }
        // Per-child streams should be at least as fast (Fig. 8 direction).
        assert!(
            totals[0] <= totals[1],
            "per-child {} vs per-CTA {}",
            totals[0],
            totals[1]
        );
    }

    #[test]
    fn nested_launch_executes_grandchildren() {
        let grandchild = Arc::new(DpSpec {
            child_class: mem_class("grandchild", 10),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 16,
            default_threshold: 32,
            nested: None,
        });
        let spec = Arc::new(DpSpec {
            child_class: mem_class("child", 20),
            child_cta_threads: 64,
            // Child threads get 64 items each so they can re-offload.
            child_items_per_thread: 64,
            child_regs_per_thread: 16,
            child_shmem_per_cta: 0,
            min_items: 64,
            default_threshold: 128,
            nested: Some(grandchild),
        });
        let threads: Vec<ThreadWork> = (0..64u32)
            .map(|t| ThreadWork {
                items: 1024,
                seq_base: t as u64 * 65536,
                rand_seed: t as u64,
            })
            .collect();
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(Box::new(LaunchOverThreshold))
            .build();
        sim.launch_host(KernelDesc {
            name: "nested".into(),
            cta_threads: 64,
            regs_per_thread: 24,
            shmem_per_cta: 0,
            class: mem_class("parent", 24),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(spec),
        });
        let r = sim.run().report;
        assert_eq!(r.items_total(), 64 * 1024);
        // Parent threads (1024 items > 128) launch children; child threads
        // (64 items > 32) launch grandchildren, so launches > 64.
        assert!(
            r.child_kernels_launched > 64,
            "expected nested launches, got {}",
            r.child_kernels_launched
        );
    }

    #[test]
    fn empty_simulation_terminates() {
        let sim = Simulation::builder(GpuConfig::test_small()).build();
        let r = sim.run().report;
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.items_total(), 0);
    }

    #[test]
    fn multiple_host_kernels_all_complete() {
        let mut sim = Simulation::builder(GpuConfig::test_small()).build();
        for _ in 0..3 {
            sim.launch_host(imbalanced_kernel(None));
        }
        let r = sim.run().report;
        assert_eq!(r.items_total(), 3 * total_items());
    }

    #[test]
    fn divergence_penalizes_imbalanced_warps() {
        // Same total items, balanced vs one hot lane per warp.
        let balanced: Vec<ThreadWork> = (0..256u32)
            .map(|t| ThreadWork {
                items: 32,
                seq_base: t as u64 * 4096,
                rand_seed: t as u64,
            })
            .collect();
        let imbalanced: Vec<ThreadWork> = (0..256u32)
            .map(|t| ThreadWork {
                items: if t % 32 == 0 { 32 * 32 } else { 0 },
                seq_base: t as u64 * 4096,
                rand_seed: t as u64,
            })
            .collect();
        let mk = |threads: Vec<ThreadWork>| KernelDesc {
            name: "div".into(),
            cta_threads: 128,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("div", 16)),
            source: ThreadSource::Explicit(threads.into()),
            dp: None,
        };
        let mut s1 = Simulation::builder(GpuConfig::test_small()).build();
        s1.launch_host(mk(balanced));
        let r1 = s1.run().report;
        let mut s2 = Simulation::builder(GpuConfig::test_small()).build();
        s2.launch_host(mk(imbalanced));
        let r2 = s2.run().report;
        assert_eq!(r1.items_total(), r2.items_total());
        assert!(
            r2.total_cycles > r1.total_cycles * 3 / 2,
            "imbalanced {} should be much slower than balanced {}",
            r2.total_cycles,
            r1.total_cycles
        );
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::stats::KernelRole;
    use crate::work::WorkClass;

    struct LaunchAll;
    impl LaunchController for LaunchAll {
        fn name(&self) -> &str {
            "launch-all"
        }
        fn decide(&mut self, _req: &ChildRequest) -> LaunchDecision {
            LaunchDecision::Kernel
        }
    }

    fn spec(threshold: u32) -> Arc<DpSpec> {
        Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("c", 8)),
            child_cta_threads: 32,
            child_items_per_thread: 1,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 8,
            default_threshold: threshold,
            nested: None,
        })
    }

    fn kernel_with(dp: Option<Arc<DpSpec>>, threads: impl Into<Arc<[ThreadWork]>>) -> KernelDesc {
        KernelDesc {
            name: "t".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("p", 8)),
            source: ThreadSource::Explicit(threads.into()),
            dp,
        }
    }

    #[test]
    fn pending_pool_overflow_forces_inline() {
        let mut cfg = GpuConfig::test_small();
        cfg.pending_pool_cap = 2; // absurdly small pool
        let threads: Vec<ThreadWork> = (0..256)
            .map(|t| ThreadWork {
                items: 64,
                seq_base: t as u64 * 1024,
                rand_seed: t as u64,
            })
            .collect();
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(kernel_with(Some(spec(8)), threads));
        let r = sim.run().report;
        // The controller said "launch" every time, but the pool cap turned
        // most of those into inline execution (API returns "fail").
        assert!(r.inlined_requests > 0, "pool-full path never exercised");
        assert_eq!(r.items_total(), 256 * 64);
        assert!(r.max_pending_kernels <= 2);
    }

    #[test]
    fn hwq_turnaround_defers_queue_release() {
        // One stream, two kernels: the second cannot arrive at the SMX
        // before the first's HWQ seat is released at the turnaround floor.
        let mk = || kernel_with(None, vec![ThreadWork::with_items(1); 32]);
        let run_with_turnaround = |ta: u64| {
            let mut cfg = GpuConfig::test_small();
            cfg.num_hwqs = 1; // force both host kernels onto one HWQ
            cfg.launch.hwq_turnaround_cycles = ta;
            let mut sim = Simulation::builder(cfg).build();
            sim.launch_host(mk());
            sim.launch_host(mk());
            sim.run().report.total_cycles
        };
        let fast = run_with_turnaround(0);
        let slow = run_with_turnaround(50_000);
        assert!(
            slow >= fast + 40_000,
            "turnaround floor must delay the second kernel: {fast} vs {slow}"
        );
    }

    #[test]
    fn kernel_summaries_describe_the_run() {
        let threads: Vec<ThreadWork> = (0..64)
            .map(|t| ThreadWork {
                items: if t == 0 { 100 } else { 2 },
                seq_base: 0,
                rand_seed: t as u64,
            })
            .collect();
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(kernel_with(Some(spec(8)), threads));
        let r = sim.run().report;
        assert_eq!(r.kernels.len(), 1 + r.child_kernels_launched as usize);
        let host = &r.kernels[0];
        assert_eq!(host.role, KernelRole::Host);
        assert_eq!(host.depth, 0);
        assert_eq!(host.created_at, 0);
        assert!(host.own_done_at.is_some());
        for child in &r.kernels[1..] {
            assert_eq!(child.role, KernelRole::Child);
            assert_eq!(child.depth, 1);
            // Launch latency covers at least the fixed overhead b.
            let lat = child.launch_latency().expect("child arrived");
            assert!(lat >= GpuConfig::test_small().launch.b, "latency {lat}");
            assert!(child.queue_latency().is_some());
            assert!(child.own_done_at.is_some());
        }
    }

    #[test]
    fn per_warp_launch_latency_grows() {
        // One warp whose lanes all launch: the i-th child's launch latency
        // must grow by `a` per prior launch (A·x + b).
        let threads: Vec<ThreadWork> = (0..8)
            .map(|t| ThreadWork {
                items: 64,
                seq_base: 0,
                rand_seed: t as u64,
            })
            .collect();
        let cfg = GpuConfig::test_small();
        let (a, b) = (cfg.launch.a, cfg.launch.b);
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(kernel_with(Some(spec(8)), threads));
        let r = sim.run().report;
        assert_eq!(r.child_kernels_launched, 8);
        let lats: Vec<u64> = r.kernels[1..]
            .iter()
            .map(|k| k.launch_latency().expect("arrived"))
            .collect();
        for (i, &lat) in lats.iter().enumerate() {
            assert_eq!(lat, a * (i as u64 + 1) + b, "launch {i}");
        }
    }

    #[test]
    fn timeline_tracks_concurrent_kernels_within_hwq_limit() {
        let mut cfg = GpuConfig::test_small();
        cfg.num_hwqs = 4;
        let threads: Vec<ThreadWork> = (0..512)
            .map(|t| ThreadWork {
                items: 40,
                seq_base: t as u64 * 512,
                rand_seed: t as u64,
            })
            .collect();
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(kernel_with(Some(spec(8)), threads));
        let r = sim.run().report;
        assert!(r.timeline.iter().any(|(_, s)| s.concurrent_kernels > 0));
        for (_, s) in &r.timeline {
            assert!(s.concurrent_kernels <= 4, "HWQ limit violated");
            assert!(s.peak_smx_utilization >= s.utilization - 1e-9);
        }
    }

    #[test]
    fn queue_latency_reflects_contention() {
        // Many kernels, few HWQs: average queue latency grows vs many HWQs.
        let threads: Arc<[ThreadWork]> = (0..512)
            .map(|t| ThreadWork {
                items: 40,
                seq_base: t as u64 * 512,
                rand_seed: t as u64,
            })
            .collect();
        let run_with_hwqs = |n: u32| {
            let mut cfg = GpuConfig::test_small();
            cfg.num_hwqs = n;
            let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
            sim.launch_host(kernel_with(Some(spec(8)), threads.clone()));
            sim.run().report.avg_child_queue_latency
        };
        let narrow = run_with_hwqs(1);
        let wide = run_with_hwqs(32);
        assert!(
            narrow > wide,
            "1 HWQ ({narrow}) must queue longer than 32 ({wide})"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;
    use crate::work::WorkClass;

    struct LaunchAll;
    impl LaunchController for LaunchAll {
        fn name(&self) -> &str {
            "launch-all"
        }
        fn decide(&mut self, _req: &ChildRequest) -> LaunchDecision {
            LaunchDecision::Kernel
        }
    }

    fn traced_run() -> (SimReport, crate::trace::Trace) {
        let threads: Vec<ThreadWork> = (0..64)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 100 } else { 2 },
                seq_base: 0,
                rand_seed: t as u64,
            })
            .collect();
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(Box::new(LaunchAll))
            .trace(100_000)
            .build();
        sim.launch_host(KernelDesc {
            name: "traced".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("p", 8)),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("c", 8)),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 8,
                default_threshold: 8,
                nested: None,
            })),
        });
        let out = sim.run();
        (out.report, out.trace.expect("trace enabled on builder"))
    }

    #[test]
    fn trace_correlates_with_report() {
        let (report, trace) = traced_run();
        assert_eq!(trace.dropped(), 0);
        assert_eq!(
            trace.decisions().count() as u64,
            report.launch_requests,
            "one Decision event per request"
        );
        let created = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::KernelCreated { parent: Some(_), .. }))
            .count() as u64;
        assert_eq!(created, report.child_kernels_launched);
        let dispatched = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CtaDispatched { .. }))
            .count() as u64;
        assert!(dispatched >= report.child_ctas_executed);
    }

    #[test]
    fn trace_events_are_time_ordered() {
        let (_, trace) = traced_run();
        for w in trace.events().windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    #[test]
    fn kernel_lifecycle_is_complete_in_trace() {
        let (report, trace) = traced_run();
        // Every child kernel has create -> arrive -> dispatch -> complete.
        for k in &report.kernels {
            let evs = trace.kernel_events(crate::KernelId(k.id));
            assert!(
                evs.len() >= 3,
                "kernel {} has only {} events",
                k.id,
                evs.len()
            );
            assert!(evs
                .iter()
                .any(|e| matches!(e, TraceEvent::KernelCompleted { .. })));
        }
    }

    #[test]
    fn run_without_trace_opt_in_yields_none() {
        let mut sim = Simulation::builder(GpuConfig::test_small()).build();
        sim.launch_host(KernelDesc {
            name: "mini".into(),
            cta_threads: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("p", 2)),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(32),
                items_per_thread: 1,
            },
            dp: None,
        });
        let out = sim.run();
        assert!(out.report.total_cycles > 0);
        // Tracing is strictly opt-in on the builder.
        assert!(out.trace.is_none());
        // Metrics default to Off: no artifact either.
        assert!(out.artifact.is_none());
    }
}

#[cfg(test)]
mod placement_tests {
    use super::*;
    use crate::config::CtaPlacement;
    use crate::work::WorkClass;

    struct LaunchAll;
    impl LaunchController for LaunchAll {
        fn name(&self) -> &str {
            "launch-all"
        }
        fn decide(&mut self, _req: &ChildRequest) -> LaunchDecision {
            LaunchDecision::Kernel
        }
    }

    fn dp_kernel() -> KernelDesc {
        // Purely sequential streams: the child re-reads exactly the
        // parent's lines, so co-placement's L1 benefit is the dominant
        // signal rather than being diluted by random-region misses (which
        // would leave the comparison at the mercy of same-cycle memory
        // interleaving noise at this tiny scale).
        let mk = |label: &'static str| WorkClass {
            label,
            compute_per_item: 10,
            init_cycles: 10,
            seq_bytes_per_item: 8,
            rand_refs_per_item: 0,
            rand_region_base: 0x8000_0000,
            rand_region_bytes: 1 << 18,
            writes_per_item: 0,
        };
        let threads: Vec<ThreadWork> = (0..256)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 200 } else { 4 },
                seq_base: 0x1000_0000 + t as u64 * 8192,
                rand_seed: t as u64,
            })
            .collect();
        KernelDesc {
            name: "aff".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(mk("aff-parent")),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(mk("aff-child")),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 8,
                default_threshold: 8,
                nested: None,
            })),
        }
    }

    fn run_with_placement(p: CtaPlacement) -> SimReport {
        let mut cfg = GpuConfig::test_small();
        cfg.cta_placement = p;
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(dp_kernel());
        sim.run().report
    }

    #[test]
    fn parent_affinity_improves_l1_reuse() {
        let rr = run_with_placement(CtaPlacement::RoundRobin);
        let aff = run_with_placement(CtaPlacement::ParentAffinity);
        assert_eq!(rr.items_total(), aff.items_total());
        // Children re-read the parent's streams: placing them on the
        // parent's SMX must not reduce L1 hit rate, and typically raises it.
        assert!(
            aff.mem.l1_hit_rate() >= rr.mem.l1_hit_rate() - 1e-9,
            "affinity L1 {} vs RR {}",
            aff.mem.l1_hit_rate(),
            rr.mem.l1_hit_rate()
        );
    }

    #[test]
    fn host_kernels_on_default_stream_serialize() {
        // Two host kernels on the default stream: the second cannot start
        // before the first's own work completes.
        let mk = || KernelDesc {
            name: "seq".into(),
            cta_threads: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("seq", 50)),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(32 * 20),
                items_per_thread: 20,
            },
            dp: None,
        };
        let mut sim = Simulation::builder(GpuConfig::test_small()).build();
        sim.launch_host(mk());
        sim.launch_host(mk());
        let r = sim.run().report;
        let k0_done = r.kernels[0].own_done_at.expect("done");
        let k1_start = r.kernels[1].first_dispatch.expect("dispatched");
        assert!(
            k1_start >= k0_done,
            "K1 started at {k1_start} before K0 finished at {k0_done}"
        );

        // Distinct streams run concurrently.
        let mut sim = Simulation::builder(GpuConfig::test_small()).build();
        sim.launch_host_on_stream(mk(), StreamId(0));
        sim.launch_host_on_stream(mk(), StreamId(1));
        let r = sim.run().report;
        let k0_done = r.kernels[0].own_done_at.expect("done");
        let k1_start = r.kernels[1].first_dispatch.expect("dispatched");
        assert!(
            k1_start < k0_done,
            "independent streams should overlap: K1 at {k1_start}, K0 done {k0_done}"
        );
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::work::WorkClass;

    #[test]
    #[should_panic(expected = "max_cycles")]
    fn runaway_guard_fires() {
        let mut cfg = GpuConfig::test_small();
        cfg.max_cycles = 50; // absurdly small budget
        let mut sim = Simulation::builder(cfg).build();
        sim.launch_host(KernelDesc {
            name: "busy".into(),
            cta_threads: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("busy", 50)),
            source: ThreadSource::Derived {
                origin: ThreadWork::with_items(32 * 100),
                items_per_thread: 100,
            },
            dp: None,
        });
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "invalid GPU configuration")]
    fn invalid_config_rejected_at_construction() {
        let mut cfg = GpuConfig::test_small();
        cfg.smx_count = 0;
        let _ = Simulation::builder(cfg).build();
    }
}

#[cfg(test)]
mod pool_tests {
    use super::*;

    /// The recycled-buffer free-lists must stop growing at [`POOL_CAP`]:
    /// a burst that retires more warps/CTAs than the cap drops the
    /// excess buffers instead of pinning them for the rest of the run.
    #[test]
    fn buffer_pools_are_bounded() {
        let mut sim = Simulation::builder(GpuConfig::test_small()).build();
        for i in 0..2 * POOL_CAP {
            let mut mem = std::collections::VecDeque::with_capacity(4);
            mem.push_back(Cycle(i as u64));
            sim.recycle_mem_buf(&mut mem);
            sim.recycle_lane_buf(vec![ThreadWork::with_items(1); 4]);
        }
        assert_eq!(sim.warp_mem_pool.len(), POOL_CAP);
        assert_eq!(sim.lane_pool.len(), POOL_CAP);
        // Recycled buffers come back empty, ready for reuse.
        assert!(sim.warp_mem_pool.iter().all(|b| b.is_empty()));
        assert!(sim.lane_pool.iter().all(|b| b.is_empty()));
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::*;
    use crate::work::WorkClass;

    struct LaunchAll;
    impl LaunchController for LaunchAll {
        fn name(&self) -> &str {
            "la"
        }
        fn decide(&mut self, _r: &ChildRequest) -> LaunchDecision {
            LaunchDecision::Kernel
        }
    }

    /// A self-similar spec: children carry the same nested spec, so an
    /// unbounded launch-everything policy would recurse forever without
    /// the depth limit.
    fn recursive_spec(levels: u8) -> Arc<DpSpec> {
        let mut spec = Arc::new(DpSpec {
            child_class: Arc::new(WorkClass::compute_only("leaf", 4)),
            child_cta_threads: 32,
            child_items_per_thread: 32,
            child_regs_per_thread: 8,
            child_shmem_per_cta: 0,
            min_items: 32,
            default_threshold: 0,
            nested: None,
        });
        for _ in 0..levels {
            spec = Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("mid", 4)),
                child_cta_threads: 32,
                child_items_per_thread: 64,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 32,
                default_threshold: 0,
                nested: Some(spec),
            });
        }
        spec
    }

    fn run_with_depth_limit(limit: u8) -> SimReport {
        let mut cfg = GpuConfig::test_small();
        cfg.max_nesting_depth = limit;
        let mut sim = Simulation::builder(cfg)
            .controller(Box::new(LaunchAll))
            .build();
        sim.launch_host(KernelDesc {
            name: "nest".into(),
            cta_threads: 32,
            regs_per_thread: 8,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("root", 4)),
            source: ThreadSource::Explicit(vec![ThreadWork::with_items(256); 8].into()),
            dp: Some(recursive_spec(8)),
        });
        sim.run().report
    }

    #[test]
    fn nesting_depth_limit_caps_recursion() {
        let shallow = run_with_depth_limit(1);
        let deep = run_with_depth_limit(4);
        // Work is conserved either way.
        assert_eq!(shallow.items_total(), 8 * 256);
        assert_eq!(deep.items_total(), 8 * 256);
        // A deeper limit admits strictly more kernels.
        assert!(
            deep.child_kernels_launched > shallow.child_kernels_launched,
            "deep {} vs shallow {}",
            deep.child_kernels_launched,
            shallow.child_kernels_launched
        );
        // The deepest kernels respect the limit.
        let max_depth = deep.kernels.iter().map(|k| k.depth).max().unwrap_or(0);
        assert!(max_depth <= 4, "depth {max_depth} exceeds limit");
    }
}

#[cfg(test)]
mod artifact_tests {
    use super::*;
    use crate::work::WorkClass;
    use dynapar_engine::json::Json;

    /// Launches everything and logs a fake Eq. 1 prediction per decision,
    /// exercising the artifact's estimate-vs-actual pairing without
    /// depending on `dynapar-core`.
    struct PredictAll {
        preds: Vec<u64>,
    }

    impl LaunchController for PredictAll {
        fn name(&self) -> &str {
            "predict-all"
        }
        fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
            self.preds.push(20_210 + req.items as u64);
            LaunchDecision::Kernel
        }
        fn predictions(&self) -> Option<&[u64]> {
            Some(&self.preds)
        }
        fn export_metrics(&self, reg: &mut MetricsRegistry) {
            reg.counter("policy.decisions", self.preds.len() as u64);
        }
    }

    fn dp_kernel() -> KernelDesc {
        let threads: Vec<ThreadWork> = (0..64)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 100 } else { 2 },
                seq_base: 0,
                rand_seed: t as u64,
            })
            .collect();
        KernelDesc {
            name: "artifact".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass::compute_only("p", 8)),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("c", 8)),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 8,
                default_threshold: 8,
                nested: None,
            })),
        }
    }

    fn run_at(level: MetricsLevel) -> RunOutcome {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(Box::new(PredictAll { preds: Vec::new() }))
            .metrics(level)
            .trace(100_000)
            .build();
        sim.launch_host(dp_kernel());
        sim.run()
    }

    #[test]
    fn metrics_off_produces_no_artifact() {
        let out = run_at(MetricsLevel::Off);
        assert!(out.artifact.is_none());
        assert!(out.trace.is_some(), "trace is independent of metrics");
    }

    #[test]
    fn artifact_carries_every_section_and_round_trips() {
        let out = run_at(MetricsLevel::Full);
        let artifact = out.artifact.expect("metrics enabled");
        assert_eq!(artifact.level(), MetricsLevel::Full);

        // Byte-stable round trip through the in-house parser.
        let text = artifact.to_string();
        let back = RunArtifact::parse(&text).expect("self-emitted artifact parses");
        assert_eq!(back, artifact);
        assert_eq!(back.to_string(), text);

        let json = artifact.json();
        // Config echo.
        let cfg = json.get("config").expect("config section");
        assert_eq!(
            cfg.get("smx_count").unwrap().as_u64(),
            Some(GpuConfig::test_small().smx_count as u64)
        );
        // Report, without the nondeterministic wall-clock field.
        let report = json.get("report").expect("report section");
        assert!(report.get("wall_ms").is_none());
        assert_eq!(
            report.get("total_cycles").unwrap().as_u64(),
            Some(out.report.total_cycles)
        );
        assert_eq!(
            report.get("kernels").unwrap().as_array().unwrap().len(),
            out.report.kernels.len()
        );
        // Component metrics from the GMU, the SMXs, and the policy.
        let metrics = json.get("metrics").expect("metrics section");
        assert!(metrics.get("gmu.kernels_enqueued").unwrap().as_u64().unwrap() > 0);
        assert!(metrics.get("smx.ctas_executed").is_some());
        assert_eq!(
            metrics.get("policy.decisions").unwrap().as_u64(),
            Some(out.report.launch_requests)
        );
        // Trace export rides along.
        assert!(json.get("trace").unwrap().get("events").is_some());
    }

    #[test]
    fn ccqs_samples_pair_estimates_with_child_kernels() {
        let out = run_at(MetricsLevel::Summary);
        let artifact = out.artifact.expect("metrics enabled");
        let samples = artifact.ccqs_samples();
        assert_eq!(samples.len() as u64, out.report.child_kernels_launched);
        assert!(!samples.is_empty(), "workload must launch children");
        for s in &samples {
            let k = out
                .report
                .kernels
                .iter()
                .find(|k| k.id == s.kernel)
                .expect("sample references a real kernel");
            assert_eq!(k.role, KernelRole::Child);
            let actual = s.actual.expect("children completed");
            assert_eq!(actual, k.own_done_at.unwrap() - k.created_at);
            assert!(s.estimate > 20_210);
        }
    }

    #[test]
    fn summary_level_omits_bulk_sections() {
        let full = run_at(MetricsLevel::Full);
        let summary = run_at(MetricsLevel::Summary);
        let f = full.artifact.unwrap();
        let s = summary.artifact.unwrap();
        assert!(f.json().get("report").unwrap().get("timeline").is_some());
        assert!(s.json().get("report").unwrap().get("timeline").is_none());
        // Per-SMX entries only appear at Full.
        let has_per_smx = |a: &RunArtifact| {
            a.json()
                .get("metrics")
                .unwrap()
                .as_object()
                .unwrap()
                .iter()
                .any(|(k, _)| k.starts_with("smx.0."))
        };
        assert!(has_per_smx(&f));
        assert!(!has_per_smx(&s));
    }

    #[test]
    fn artifact_json_is_deterministic_across_runs() {
        let a = run_at(MetricsLevel::Full).artifact.unwrap().to_string();
        let b = run_at(MetricsLevel::Full).artifact.unwrap().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn timeseries_level_adds_the_telemetry_section() {
        let out = run_at(MetricsLevel::Timeseries);
        let artifact = out.artifact.expect("metrics enabled");
        let ts = artifact.timeseries().expect("timeseries section");
        assert_eq!(
            ts.get("schema").unwrap().as_str(),
            Some(crate::telemetry::TIMESERIES_SCHEMA)
        );
        let series = ts.get("series").unwrap().as_array().unwrap();
        let names: Vec<&str> = series
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect();
        for required in ["queue_depth", "n_con", "t_cta", "decisions_allowed"] {
            assert!(names.contains(&required), "missing series {required}");
        }
        // The run samples periodically, so the gauges carry data.
        let depth = series
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some("queue_depth"))
            .unwrap();
        assert!(depth.get("samples").unwrap().as_u64().unwrap() > 0);
        // Every launch decision lands in exactly one rate series.
        let total_of = |name: &str| -> u64 {
            series
                .iter()
                .find(|s| s.get("name").unwrap().as_str() == Some(name))
                .and_then(|s| s.get("values"))
                .and_then(Json::as_array)
                .map(|v| v.iter().filter_map(Json::as_u64).sum())
                .unwrap_or(0)
        };
        let counted = total_of("decisions_allowed")
            + total_of("decisions_denied")
            + total_of("decisions_deferred");
        assert_eq!(counted, out.report.launch_requests);
        // The section survives a parse round trip byte-for-byte.
        let text = artifact.to_string();
        let back = RunArtifact::parse(&text).expect("parses");
        assert_eq!(back.to_string(), text);
        assert!(back.timeseries().is_some());
    }

    #[test]
    fn lower_levels_omit_the_telemetry_section() {
        for level in [MetricsLevel::Summary, MetricsLevel::Full] {
            let artifact = run_at(level).artifact.unwrap();
            assert!(
                artifact.timeseries().is_none(),
                "level {level:?} must not carry timeseries"
            );
            assert!(!artifact.to_string().contains("\"timeseries\""));
        }
    }

    #[test]
    fn timeseries_report_matches_full_report() {
        // Timeseries is "Full plus telemetry": the report and metrics
        // sections are identical between the two levels except for the
        // level tag itself and the extra section.
        let f = run_at(MetricsLevel::Full).artifact.unwrap();
        let t = run_at(MetricsLevel::Timeseries).artifact.unwrap();
        assert_eq!(
            f.json().get("report").unwrap(),
            t.json().get("report").unwrap()
        );
        assert_eq!(
            f.json().get("metrics").unwrap(),
            t.json().get("metrics").unwrap()
        );
    }

    #[test]
    fn over_capacity_trace_reports_drops_in_artifact() {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(Box::new(PredictAll { preds: Vec::new() }))
            .metrics(MetricsLevel::Summary)
            .trace(4)
            .build();
        sim.launch_host(dp_kernel());
        let out = sim.run();
        let trace = out.trace.as_ref().expect("tracing enabled");
        assert!(trace.dropped() > 0, "workload must overflow 4 slots");
        let json = out.artifact.expect("metrics enabled");
        let t = json.json().get("trace").expect("trace section");
        assert_eq!(t.get("events").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(t.get("capacity").unwrap().as_u64(), Some(4));
        assert_eq!(t.get("dropped").unwrap().as_u64(), Some(trace.dropped()));
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::work::WorkClass;

    /// Stateful launch-everything policy: the predictions vector makes
    /// the artifact's `ccqs_samples` depend on the decide sequence, so a
    /// resumed run only matches if the controller replay is exact.
    struct PredictAll {
        preds: Vec<u64>,
    }

    impl LaunchController for PredictAll {
        fn name(&self) -> &str {
            "predict-all"
        }
        fn decide(&mut self, req: &ChildRequest) -> LaunchDecision {
            self.preds.push(20_210 + req.items as u64);
            LaunchDecision::Kernel
        }
        fn predictions(&self) -> Option<&[u64]> {
            Some(&self.preds)
        }
        fn export_metrics(&self, reg: &mut MetricsRegistry) {
            reg.counter("policy.decisions", self.preds.len() as u64);
        }
    }

    fn launcher() -> Box<dyn LaunchController> {
        Box::new(PredictAll { preds: Vec::new() })
    }

    fn dp_kernel() -> KernelDesc {
        let threads: Vec<ThreadWork> = (0..64)
            .map(|t| ThreadWork {
                items: if t % 8 == 0 { 80 } else { 2 },
                seq_base: 64 * t as u64,
                rand_seed: t as u64,
            })
            .collect();
        KernelDesc {
            name: "snap".into(),
            cta_threads: 64,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            class: Arc::new(WorkClass {
                label: "snap-p",
                compute_per_item: 8,
                init_cycles: 20,
                seq_bytes_per_item: 8,
                rand_refs_per_item: 1,
                rand_region_base: 1 << 30,
                rand_region_bytes: 1 << 20,
                writes_per_item: 1,
            }),
            source: ThreadSource::Explicit(threads.into()),
            dp: Some(Arc::new(DpSpec {
                child_class: Arc::new(WorkClass::compute_only("snap-c", 8)),
                child_cta_threads: 32,
                child_items_per_thread: 1,
                child_regs_per_thread: 8,
                child_shmem_per_cta: 0,
                min_items: 8,
                default_threshold: 8,
                nested: None,
            })),
        }
    }

    fn cold_run(level: MetricsLevel) -> RunOutcome {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(level)
            .build();
        sim.launch_host(dp_kernel());
        sim.run()
    }

    fn armed_run(level: MetricsLevel, at: u64) -> RunOutcome {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(level)
            .snapshot_at(at)
            .build();
        sim.launch_host(dp_kernel());
        sim.run()
    }

    #[test]
    fn armed_run_is_byte_identical_and_resume_continues_it() {
        for level in [MetricsLevel::Full, MetricsLevel::Timeseries] {
            let cold = cold_run(level);
            let cold_art = cold.artifact.as_ref().unwrap().to_string();
            for at in [0, cold.report.total_cycles / 2] {
                let out = armed_run(level, at);
                assert_eq!(
                    out.artifact.unwrap().to_string(),
                    cold_art,
                    "arming a snapshot must not change the run (at={at})"
                );
                let snap = out.snapshot.expect("snapshot captured");
                let resumed = Simulation::builder(GpuConfig::test_small())
                    .controller(launcher())
                    .metrics(level)
                    .build_resumed(&snap)
                    .expect("valid snapshot");
                let back = resumed.run();
                assert_eq!(
                    back.artifact.unwrap().to_string(),
                    cold_art,
                    "resumed artifact must match the uninterrupted run (at={at})"
                );
                assert_eq!(back.report.total_cycles, cold.report.total_cycles);
            }
        }
    }

    #[test]
    fn chained_snapshots_preserve_the_replay_history() {
        let cold = cold_run(MetricsLevel::Full);
        let cold_art = cold.artifact.as_ref().unwrap().to_string();
        let third = cold.report.total_cycles / 3;
        let snap1 = armed_run(MetricsLevel::Full, third).snapshot.unwrap();
        let resumed = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Full)
            .snapshot_at(2 * third)
            .build_resumed(&snap1)
            .expect("valid snapshot");
        let out = resumed.run();
        assert_eq!(out.artifact.unwrap().to_string(), cold_art);
        let snap2 = out.snapshot.expect("second snapshot captured");
        let resumed2 = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Full)
            .build_resumed(&snap2)
            .expect("valid chained snapshot");
        assert_eq!(resumed2.run().artifact.unwrap().to_string(), cold_art);
    }

    #[test]
    fn pristine_snapshot_resumes_under_a_different_policy() {
        // Cycle 0 precedes every launch decision, so the ramp is
        // policy-independent and the fork may switch controllers.
        let snap = armed_run(MetricsLevel::Summary, 0).snapshot.unwrap();
        let job = crate::snap::parse_snapshot(&snap).unwrap().0;
        assert_eq!(job.get("pristine").and_then(Json::as_bool), Some(true));
        let forked = Simulation::builder(GpuConfig::test_small())
            .metrics(MetricsLevel::Summary)
            .build_resumed(&snap)
            .expect("pristine cross-policy resume");
        let flat = forked.run();
        let mut cold_flat = Simulation::builder(GpuConfig::test_small())
            .metrics(MetricsLevel::Summary)
            .build();
        cold_flat.launch_host(dp_kernel());
        assert_eq!(
            flat.artifact.unwrap().to_string(),
            cold_flat.run().artifact.unwrap().to_string()
        );
    }

    #[test]
    fn non_pristine_snapshot_rejects_other_policies() {
        let cold = cold_run(MetricsLevel::Summary);
        let snap = armed_run(MetricsLevel::Summary, cold.report.total_cycles / 2)
            .snapshot
            .unwrap();
        let job = crate::snap::parse_snapshot(&snap).unwrap().0;
        assert_eq!(job.get("pristine").and_then(Json::as_bool), Some(false));
        let err = Simulation::builder(GpuConfig::test_small())
            .metrics(MetricsLevel::Summary)
            .build_resumed(&snap)
            .err()
            .expect("cross-policy resume of a non-pristine snapshot");
        assert!(err.to_string().contains("pristine"), "{err}");
    }

    #[test]
    fn resume_validates_config_metrics_and_integrity() {
        let cold = cold_run(MetricsLevel::Summary);
        let snap = armed_run(MetricsLevel::Summary, cold.report.total_cycles / 2)
            .snapshot
            .unwrap();
        // Different hardware configuration.
        let err = Simulation::builder(GpuConfig::kepler_k20m())
            .controller(launcher())
            .metrics(MetricsLevel::Summary)
            .build_resumed(&snap)
            .err()
            .expect("config mismatch");
        assert!(err.to_string().contains("configuration"), "{err}");
        // Different metrics level.
        let err = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Full)
            .build_resumed(&snap)
            .err()
            .expect("metrics mismatch");
        assert!(err.to_string().contains("metrics"), "{err}");
        // Tracing is unsupported on resumed runs.
        assert!(Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Summary)
            .trace(1000)
            .build_resumed(&snap)
            .is_err());
        // Truncation and corruption are rejected by the container layer.
        assert!(Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Summary)
            .build_resumed(&snap[..snap.len() - 7])
            .is_err());
        let mut bad = snap.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Summary)
            .build_resumed(&bad)
            .is_err());
    }

    #[test]
    fn run_finishing_before_the_cycle_yields_no_snapshot() {
        let out = armed_run(MetricsLevel::Summary, u64::MAX);
        assert!(out.snapshot.is_none());
    }

    #[test]
    fn snapshot_meta_lands_in_the_header() {
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Summary)
            .snapshot_at(0)
            .snapshot_meta(Json::obj([("tag", Json::str("warm-42"))]))
            .build();
        sim.launch_host(dp_kernel());
        let snap = sim.run().snapshot.unwrap();
        let job = crate::snap::parse_snapshot(&snap).unwrap().0;
        assert_eq!(
            job.get("meta").and_then(|m| m.get("tag")).and_then(Json::as_str),
            Some("warm-42")
        );
        assert!(job.get("cycle").and_then(Json::as_u64).is_some());
        assert!(job.get("controller").and_then(Json::as_str).is_some());
    }

    #[test]
    #[should_panic(expected = "snapshots do not support tracing")]
    fn arming_a_snapshot_with_tracing_panics() {
        let _ = Simulation::builder(GpuConfig::test_small())
            .trace(1000)
            .snapshot_at(5)
            .build();
    }

    #[test]
    fn watch_hook_sees_samples_and_stays_byte_invisible() {
        let cold = cold_run(MetricsLevel::Full);
        let cold_art = cold.artifact.as_ref().unwrap().to_string();
        let samples = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = samples.clone();
        let mut sim = Simulation::builder(GpuConfig::test_small())
            .controller(launcher())
            .metrics(MetricsLevel::Full)
            .watch(std::sync::Arc::new(move |s: WatchSample| {
                sink.lock().unwrap().push(s);
            }))
            .build();
        sim.launch_host(dp_kernel());
        let out = sim.run();
        assert_eq!(out.artifact.unwrap().to_string(), cold_art);
        let seen = samples.lock().unwrap();
        assert!(!seen.is_empty(), "hook never fired");
        for w in seen.windows(2) {
            assert!(w[0].now < w[1].now, "samples must be time-ordered");
        }
        assert!(
            seen.iter().any(|s| s.parent_ctas > 0 || s.utilization > 0.0),
            "samples should observe a busy device"
        );
    }
}
