//! The daemon's resumable job registry: per-job lifecycle records,
//! config-hash memoization, in-flight coalescing, and lifetime
//! statistics.
//!
//! The registry is the single source of truth the worker pool and every
//! client connection share. Its invariants:
//!
//! * **Memoization** — once a job with canonical hash `h` completes,
//!   its artifact is cached under `h`; any later submit with the same
//!   hash is answered from the cache without re-simulating (sound
//!   because artifacts are a pure function of the canonical config —
//!   the identity [`CanonicalConfig`](dynapar_gpu::CanonicalConfig)
//!   captures, pinned by the determinism suite).
//! * **Coalescing** — while a job with hash `h` is queued or running,
//!   further submits of `h` do not enqueue duplicate work; they become
//!   *followers* that complete (or fail) together with the primary. The
//!   followers are kept with the primary's in-flight entry, so a
//!   terminal transition touches only that group.
//! * **FIFO fairness** — primaries execute in submission order
//!   regardless of which client connection submitted them (the worker
//!   queue underneath is FIFO).
//! * **Panic isolation** — a worker that panics mid-simulation fails
//!   only its own job; the registry records the failure and the daemon
//!   keeps serving (the queue's workers survive unwinds).

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dynapar_engine::json::Json;
use dynapar_engine::log::Logger;
use dynapar_gpu::RunArtifact;

/// Cap on each job's pending watch-sample ring; a stalled watcher drops
/// the oldest samples instead of growing without bound.
const SAMPLE_RING_CAP: usize = 4096;

/// Life-cycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker (or for its coalesced primary).
    Queued,
    /// Executing on a worker.
    Running,
    /// Finished; the artifact is available.
    Done,
    /// The simulation errored or panicked.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Canonical wire spelling.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Cancelled)
    }
}

/// A point-in-time snapshot of one job, as reported to clients.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id (unique per daemon lifetime, FIFO-ordered).
    pub id: u64,
    /// Current state.
    pub state: JobState,
    /// Canonical config hash.
    pub hash: u64,
    /// Whether the result came from the memo cache (or a coalesced
    /// primary) instead of a dedicated simulation.
    pub cached: bool,
    /// Latest simulated cycle the run has reached (0 until running).
    pub progress_cycles: u64,
    /// Failure message, when `state` is `Failed`.
    pub error: Option<String>,
    /// The artifact, when `state` is `Done`.
    pub artifact: Option<Arc<RunArtifact>>,
}

/// Lifetime counters, reported by the `stats` request. Doubles as the
/// observable proof of memoization: a memo hit bumps `memo_hits`
/// without bumping `executed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Jobs accepted (including cached and coalesced ones).
    pub submitted: u64,
    /// Jobs that ran a simulation to completion.
    pub executed: u64,
    /// Submits answered straight from the memo cache.
    pub memo_hits: u64,
    /// Submits coalesced onto an in-flight identical job.
    pub coalesced: u64,
    /// Jobs that failed (error or panic).
    pub failed: u64,
    /// Jobs cancelled before completion.
    pub cancelled: u64,
    /// Sweep points answered by forking a shared warm-up snapshot
    /// instead of simulating their ramp from cycle zero.
    pub forked: u64,
}

/// Shared ring of pending watch samples for one job. The simulation's
/// watch hook pushes; the `watch` streamer drains. Bounded: beyond
/// [`SAMPLE_RING_CAP`] pending samples the oldest are dropped.
#[derive(Clone, Default)]
pub struct SampleRing(Arc<Mutex<VecDeque<Json>>>);

impl SampleRing {
    /// Appends one sample, evicting the oldest at capacity.
    pub fn push(&self, sample: Json) {
        let mut g = self.0.lock().expect("sample ring poisoned");
        if g.len() == SAMPLE_RING_CAP {
            g.pop_front();
        }
        g.push_back(sample);
    }

    /// Takes every pending sample, oldest first.
    pub fn drain(&self) -> Vec<Json> {
        let mut g = self.0.lock().expect("sample ring poisoned");
        g.drain(..).collect()
    }
}

/// The handles a worker gets when it starts a job: progress
/// counter, cancellation flag, and the watch-sample ring.
#[derive(Clone, Default)]
pub struct JobHandles {
    /// Latest simulated cycle, stored by the run's watch hook.
    pub progress: Arc<AtomicU64>,
    /// Raised by `cancel` requests; the run unwinds at its next sampler
    /// tick.
    pub cancel: Arc<AtomicBool>,
    /// Ring the run's watch hook feeds for `watch` streaming.
    pub samples: SampleRing,
}

/// One job's lifecycle record: how it was admitted and when it moved.
/// The registry keeps the only copy; the daemon's trace and latency
/// histograms are views of it. Host time only — simulations never read
/// it, so determinism is untouched.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// How the submit was admitted (carries the job id).
    pub admission: Admission,
    /// Canonical config hash.
    pub hash: u64,
    /// Job class: the policy label.
    pub class: String,
    /// Current state.
    pub state: JobState,
    /// Whether the job resumed a shared fork-sweep warm-up snapshot.
    pub forked: bool,
    /// Admission instant.
    pub queued_at: Instant,
    /// Worker pickup, once running.
    pub started_at: Option<Instant>,
    /// Terminal transition, once terminal.
    pub ended_at: Option<Instant>,
}

struct Job {
    record: JobRecord,
    error: Option<String>,
    artifact: Option<Arc<RunArtifact>>,
    handles: JobHandles,
}

impl Job {
    fn snapshot(&self) -> JobSnapshot {
        JobSnapshot {
            id: self.record.admission.id(),
            state: self.record.state,
            hash: self.record.hash,
            cached: self.record.admission.cached(),
            progress_cycles: self.handles.progress.load(Ordering::Relaxed),
            error: self.error.clone(),
            artifact: self.artifact.clone(),
        }
    }
}

#[derive(Default)]
struct Inner {
    /// Every job ever admitted, indexed by id.
    jobs: Vec<Job>,
    memo: HashMap<u64, Arc<RunArtifact>>,
    /// hash → the in-flight group while its primary is queued or
    /// running: the primary's id first, then its followers'.
    inflight: HashMap<u64, Vec<u64>>,
    stats: RegistryStats,
    store_lru: StoreLru,
}

impl Inner {
    fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(usize::try_from(id).ok()?)
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut Job> {
        self.jobs.get_mut(usize::try_from(id).ok()?)
    }

    /// Moves job `id` to the terminal `state` — with its followers when
    /// it leads an in-flight group, which then leaves the table — and
    /// stamps one `ended_at` on every job that moved. `each` fills in
    /// the outcome per job. Touches only that group, never the whole
    /// job table. Returns how many jobs moved.
    fn end_group(&mut self, id: u64, state: JobState, mut each: impl FnMut(&mut Job)) -> u64 {
        let Some(hash) = self.job(id).map(|job| job.record.hash) else {
            return 0;
        };
        let group = match self.inflight.get(&hash) {
            Some(group) if group[0] == id => self.inflight.remove(&hash).unwrap_or_default(),
            _ => vec![id],
        };
        let now = Instant::now();
        let mut moved = 0;
        for member in group {
            let Some(job) = self.job_mut(member) else { continue };
            if !job.record.state.is_terminal() {
                job.record.state = state;
                job.record.ended_at = Some(now);
                each(job);
                moved += 1;
            }
        }
        moved
    }
}

/// Disk-budget accounting for the artifact store: per-entry file sizes
/// plus a monotone last-use stamp, so persisted bytes can be capped by
/// evicting the least-recently-used entries first.
#[derive(Default)]
struct StoreLru {
    clock: u64,
    /// Total persisted bytes currently accounted for.
    total: u64,
    /// hash → (file size in bytes, last-use stamp).
    entries: HashMap<u64, (u64, u64)>,
}

impl StoreLru {
    /// Records (or refreshes) one persisted entry of `size` bytes.
    fn record(&mut self, hash: u64, size: u64) {
        self.clock += 1;
        if let Some((old, _)) = self.entries.insert(hash, (size, self.clock)) {
            self.total -= old;
        }
        self.total += size;
    }

    /// Marks an entry as just-used (memo hit), if it is persisted.
    fn touch(&mut self, hash: u64) {
        if let Some(entry) = self.entries.get_mut(&hash) {
            self.clock += 1;
            entry.1 = self.clock;
        }
    }

    /// The least-recently-used entry, as `(hash, size)`.
    fn lru(&self) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .min_by_key(|&(_, &(_, stamp))| stamp)
            .map(|(&hash, &(size, _))| (hash, size))
    }

    /// Drops an entry from the accounting (not from disk).
    fn remove(&mut self, hash: u64) {
        if let Some((size, _)) = self.entries.remove(&hash) {
            self.total -= size;
        }
    }
}

/// What [`Registry::submit`] decided to do with a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// New work: the caller must enqueue job `id` on the worker queue.
    Execute {
        /// The job id to enqueue.
        id: u64,
    },
    /// Answered from the memo cache; the job is already `Done`.
    Cached {
        /// The (already terminal) job id.
        id: u64,
    },
    /// Coalesced onto an in-flight identical job; completes with it.
    Coalesced {
        /// The follower job id.
        id: u64,
        /// The primary it rides on.
        primary: u64,
    },
}

impl Admission {
    /// The submitted job's id, whatever the admission path.
    pub fn id(&self) -> u64 {
        match *self {
            Admission::Execute { id }
            | Admission::Cached { id }
            | Admission::Coalesced { id, .. } => id,
        }
    }

    /// Whether the submit was answered without new simulation work.
    pub fn cached(&self) -> bool {
        !matches!(self, Admission::Execute { .. })
    }
}

/// The shared job table (see the module docs for invariants).
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// When set, completed artifacts are persisted to this directory
    /// (`<hash:016x>.json`) and reloaded into the memo cache on
    /// construction, so the cache survives daemon restarts.
    store: Option<PathBuf>,
    /// Byte budget for the persisted store. When the total size of
    /// persisted artifacts exceeds this, least-recently-used entries
    /// are deleted from disk. Entries evicted at preload never enter
    /// the memo; ones evicted later stay in it for this process (after
    /// a restart their configs simply re-execute).
    store_max_bytes: Option<u64>,
    /// Structured sink for store lifecycle events (preload, persist
    /// failures, evictions). Disabled by default; the daemon threads
    /// its `--log-file` logger through.
    log: Logger,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry whose lifecycle events go to `log` (the daemon's
    /// `--log-file` sink), optionally backed by an on-disk artifact
    /// store in `dir`. With a store, `dir` is created if missing and
    /// every previously persisted artifact is preloaded into the memo
    /// cache, so a restarted daemon answers repeat submits from cache
    /// without re-simulating. `max_bytes` caps the persisted store
    /// (`dynapar serve --store-max-bytes N`): whenever the persisted
    /// total exceeds it — at preload and after each new artifact —
    /// least-recently-used entries are deleted from disk until the
    /// store fits.
    ///
    /// # Errors
    ///
    /// Creating or scanning the store directory.
    pub fn open(dir: Option<PathBuf>, max_bytes: Option<u64>, log: Logger) -> std::io::Result<Self> {
        if let Some(dir) = &dir {
            std::fs::create_dir_all(dir)?;
        }
        let registry = Registry {
            store: dir,
            store_max_bytes: max_bytes,
            log,
            ..Registry::default()
        };
        registry.preload()?;
        Ok(registry)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry poisoned")
    }

    /// Scans the store directory and fills the memo cache from every
    /// well-formed `<hash:016x>.json` artifact that fits the store cap.
    /// The cap is applied before entries enter the memo, so an entry
    /// evicted here re-executes on its next submit. Unparseable or
    /// misnamed files are skipped with a warning — a corrupt entry must
    /// not take the daemon down. Returns the number loaded.
    fn preload(&self) -> std::io::Result<usize> {
        let Some(dir) = &self.store else { return Ok(0) };
        let mut found: Vec<(u64, PathBuf, u64, std::time::SystemTime)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") || stem.len() != 16 {
                continue;
            }
            let Ok(hash) = u64::from_str_radix(stem, 16) else {
                continue;
            };
            let meta = entry.metadata()?;
            let mtime = meta
                .modified()
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((hash, path, meta.len(), mtime));
        }
        // Oldest files first, so the restarted daemon's LRU order
        // matches the previous run's write order.
        found.sort_by_key(|&(_, _, _, mtime)| mtime);
        let mut parsed = Vec::with_capacity(found.len());
        for (hash, path, size, _) in found {
            let artifact = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| RunArtifact::parse(&text).map_err(|e| e.to_string()));
            match artifact {
                Ok(artifact) => {
                    let mut g = self.lock();
                    g.store_lru.record(hash, size);
                    parsed.push((hash, artifact));
                }
                Err(err) => {
                    eprintln!(
                        "dynapar-server: skipping corrupt store entry {}: {err}",
                        path.display()
                    );
                    self.log.warn(
                        "store_corrupt_entry",
                        [
                            ("path", Json::str(path.display().to_string())),
                            ("error", Json::str(err)),
                        ],
                    );
                }
            }
        }
        self.evict_over_budget();
        let mut loaded = 0;
        {
            let mut g = self.lock();
            // Entries the cap just evicted stay out of the memo.
            for (hash, artifact) in parsed {
                if g.store_lru.entries.contains_key(&hash) {
                    g.memo.insert(hash, Arc::new(artifact));
                    loaded += 1;
                }
            }
        }
        let bytes = self.store_bytes();
        self.log.info(
            "store_preload",
            [
                ("loaded", Json::U64(loaded as u64)),
                ("bytes", Json::U64(bytes)),
            ],
        );
        Ok(loaded)
    }

    /// Persists one completed artifact to the store (write-temp-then-
    /// rename, so a crash never leaves a half-written entry under the
    /// canonical name). Persistence failure degrades to an in-memory
    /// cache entry — it must not fail the job.
    fn persist(&self, hash: u64, artifact: &RunArtifact) {
        let Some(dir) = &self.store else { return };
        let tmp = dir.join(format!(".{hash:016x}.json.tmp"));
        let path = dir.join(format!("{hash:016x}.json"));
        let text = format!("{artifact}\n");
        let size = text.len() as u64;
        let written = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.lock().store_lru.record(hash, size);
                self.evict_over_budget();
            }
            Err(err) => {
                eprintln!("dynapar-server: failed to persist artifact {hash:016x}: {err}");
                self.log.warn(
                    "store_persist_failed",
                    [
                        ("hash", Json::str(format!("{hash:016x}"))),
                        ("error", Json::str(err.to_string())),
                    ],
                );
            }
        }
    }

    /// Deletes least-recently-used persisted entries until the store
    /// fits `--store-max-bytes`. After preload the cap is a disk
    /// budget: the in-memory memo keeps evicted artifacts for this
    /// process, but after a restart an evicted config re-executes from
    /// scratch.
    fn evict_over_budget(&self) {
        let (Some(dir), Some(max)) = (&self.store, self.store_max_bytes) else {
            return;
        };
        loop {
            let (hash, size) = {
                let mut g = self.lock();
                if g.store_lru.total <= max {
                    return;
                }
                let Some((hash, size)) = g.store_lru.lru() else {
                    return;
                };
                g.store_lru.remove(hash);
                (hash, size)
            };
            let path = dir.join(format!("{hash:016x}.json"));
            if let Err(err) = std::fs::remove_file(&path) {
                eprintln!(
                    "dynapar-server: failed to evict store entry {}: {err}",
                    path.display()
                );
                self.log.warn(
                    "store_evict_failed",
                    [
                        ("hash", Json::str(format!("{hash:016x}"))),
                        ("error", Json::str(err.to_string())),
                    ],
                );
            } else {
                eprintln!(
                    "dynapar-server: evicted store entry {hash:016x} ({size} bytes, over --store-max-bytes)"
                );
                self.log.info(
                    "store_evict",
                    [
                        ("hash", Json::str(format!("{hash:016x}"))),
                        ("bytes", Json::U64(size)),
                    ],
                );
            }
        }
    }

    /// Admits one job with canonical hash `hash` and job class `class`
    /// (its policy label). Decides between the three admission paths
    /// (execute / memo hit / coalesce); the caller enqueues worker-side
    /// execution only for [`Admission::Execute`].
    pub fn submit(&self, hash: u64, class: &str) -> Admission {
        let mut g = self.lock();
        let inner = &mut *g;
        inner.stats.submitted += 1;
        let id = inner.jobs.len() as u64;
        let now = Instant::now();
        let mut job = Job {
            record: JobRecord {
                admission: Admission::Execute { id },
                hash,
                class: class.to_string(),
                state: JobState::Queued,
                forked: false,
                queued_at: now,
                started_at: None,
                ended_at: None,
            },
            error: None,
            artifact: None,
            handles: JobHandles::default(),
        };
        if let Some(artifact) = inner.memo.get(&hash).cloned() {
            inner.stats.memo_hits += 1;
            inner.store_lru.touch(hash);
            job.record.admission = Admission::Cached { id };
            job.record.state = JobState::Done;
            job.record.ended_at = Some(now);
            job.artifact = Some(artifact);
        } else if let Some(group) = inner.inflight.get_mut(&hash) {
            inner.stats.coalesced += 1;
            job.record.admission = Admission::Coalesced {
                id,
                primary: group[0],
            };
            group.push(id);
        } else {
            inner.inflight.insert(hash, vec![id]);
        }
        let admission = job.record.admission;
        inner.jobs.push(job);
        drop(g);
        self.cv.notify_all();
        admission
    }

    /// Transitions a queued primary to `Running` and hands back its
    /// observation handles. Returns `None` if the job was cancelled
    /// while queued — the worker must skip it.
    pub fn start(&self, id: u64) -> Option<JobHandles> {
        let mut g = self.lock();
        let job = g.job_mut(id)?;
        if job.record.state != JobState::Queued {
            return None;
        }
        job.record.state = JobState::Running;
        job.record.started_at = Some(Instant::now());
        let handles = job.handles.clone();
        drop(g);
        self.cv.notify_all();
        Some(handles)
    }

    /// Takes every pending watch sample for job `id`, oldest first
    /// (empty for unknown ids).
    pub fn drain_samples(&self, id: u64) -> Vec<Json> {
        let ring = match self.lock().job(id) {
            Some(job) => job.handles.samples.clone(),
            None => return Vec::new(),
        };
        ring.drain()
    }

    /// Records that job `id`, a sweep point, was answered by forking a
    /// shared warm-up snapshot: sets its record's flag and bumps the
    /// `forked` counter.
    pub fn note_forked(&self, id: u64) {
        let mut g = self.lock();
        if let Some(job) = g.job_mut(id) {
            job.record.forked = true;
            g.stats.forked += 1;
        }
    }

    /// Records a completed simulation: memoizes the artifact and
    /// completes the primary *and every follower* coalesced onto it.
    pub fn complete(&self, id: u64, artifact: RunArtifact) {
        let artifact = Arc::new(artifact);
        let Some(hash) = self.lock().job(id).map(|job| job.record.hash) else {
            return;
        };
        // Persist before publishing: once a waiter observes `Done`, the
        // store entry (if any) is already in place.
        self.persist(hash, &artifact);
        let mut g = self.lock();
        g.stats.executed += 1;
        g.memo.insert(hash, artifact.clone());
        g.end_group(id, JobState::Done, |job| job.artifact = Some(artifact.clone()));
        drop(g);
        self.cv.notify_all();
    }

    /// Records a failed simulation. Followers fail with the primary:
    /// they represent the same run, and re-running a config that just
    /// failed deterministically would fail the same way.
    pub fn fail(&self, id: u64, error: String) {
        let mut g = self.lock();
        g.stats.failed += g.end_group(id, JobState::Failed, |job| job.error = Some(error.clone()));
        drop(g);
        self.cv.notify_all();
    }

    /// Requests cancellation. A queued job (or follower) is cancelled
    /// immediately — a queued primary takes its followers with it: they
    /// are the same run, and nothing else will ever complete them. A
    /// running job has its cancel flag raised and unwinds at its next
    /// sampler tick. Returns the state after the request, or `None`
    /// for an unknown id.
    pub fn cancel(&self, id: u64) -> Option<JobState> {
        let mut g = self.lock();
        let job = g.job(id)?;
        let state = match job.record.state {
            JobState::Queued => {
                g.stats.cancelled += g.end_group(id, JobState::Cancelled, |_| {});
                JobState::Cancelled
            }
            JobState::Running => {
                job.handles.cancel.store(true, Ordering::Relaxed);
                JobState::Running
            }
            terminal => terminal,
        };
        drop(g);
        self.cv.notify_all();
        Some(state)
    }

    /// Marks a job cancelled after its worker unwound on the cancel
    /// flag (the running→cancelled transition), with its followers.
    pub fn finish_cancelled(&self, id: u64) {
        let mut g = self.lock();
        g.stats.cancelled += g.end_group(id, JobState::Cancelled, |_| {});
        drop(g);
        self.cv.notify_all();
    }

    /// A point-in-time snapshot of one job.
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        self.lock().job(id).map(Job::snapshot)
    }

    /// A copy of job `id`'s lifecycle record.
    pub fn record(&self, id: u64) -> Option<JobRecord> {
        self.lock().job(id).map(|job| job.record.clone())
    }

    /// Copies of every job's lifecycle record, in id order — what the
    /// daemon's trace renders.
    pub fn records(&self) -> Vec<JobRecord> {
        self.lock().jobs.iter().map(|job| job.record.clone()).collect()
    }

    /// Blocks until job `id` reaches a terminal state, then returns its
    /// snapshot. Returns `None` for an unknown id.
    pub fn wait_terminal(&self, id: u64) -> Option<JobSnapshot> {
        let mut g = self.lock();
        loop {
            let job = g.job(id)?;
            if job.record.state.is_terminal() {
                return Some(job.snapshot());
            }
            g = self.cv.wait(g).expect("registry poisoned");
        }
    }

    /// Like [`wait_terminal`](Registry::wait_terminal) but wakes at
    /// least every `tick` to let the caller stream progress (the
    /// `watch` request) or notice daemon shutdown. Returns the current
    /// snapshot each wake-up.
    pub fn wait_tick(&self, id: u64, tick: std::time::Duration) -> Option<JobSnapshot> {
        let g = self.lock();
        let job = g.job(id)?;
        if !job.record.state.is_terminal() {
            let (g2, _timeout) = self
                .cv
                .wait_timeout(g, tick)
                .expect("registry poisoned");
            drop(g2);
        } else {
            drop(g);
        }
        self.snapshot(id)
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        self.lock().stats
    }

    /// Distinct configs currently queued or running (the in-flight
    /// coalescing table's size) — a live gauge for `metrics`/`stats`.
    pub fn inflight_now(&self) -> usize {
        self.lock().inflight.len()
    }

    /// Bytes currently persisted in the artifact store (0 without a
    /// store) — a live gauge for `metrics`/`stats`.
    pub fn store_bytes(&self) -> u64 {
        self.lock().store_lru.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_artifact() -> RunArtifact {
        // The smallest document RunArtifact::parse accepts — a real run
        // is overkill for registry state-machine tests.
        RunArtifact::parse(concat!(
            r#"{"schema":"dynapar.run_artifact/v1","metrics_level":"summary","#,
            r#""config":{},"report":{"controller":"Flat","total_cycles":1,"kernels":0},"#,
            r#""metrics":{},"ccqs_samples":[]}"#,
        ))
        .expect("valid minimal artifact")
    }

    #[test]
    fn memo_hit_after_complete() {
        let r = Registry::new();
        let a = r.submit(42, "flat");
        assert_eq!(a, Admission::Execute { id: 0 });
        r.start(0).expect("queued");
        r.complete(0, fake_artifact());
        let b = r.submit(42, "flat");
        assert!(matches!(b, Admission::Cached { .. }));
        let snap = r.snapshot(b.id()).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.cached);
        assert!(snap.artifact.is_some());
        let s = r.stats();
        assert_eq!((s.submitted, s.executed, s.memo_hits), (2, 1, 1));
    }

    #[test]
    fn inflight_submits_coalesce_and_complete_together() {
        let r = Registry::new();
        let a = r.submit(7, "flat");
        let b = r.submit(7, "flat");
        assert!(matches!(b, Admission::Coalesced { primary: 0, .. }));
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let snap = r.snapshot(b.id()).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.cached, "follower counts as cached");
        assert_eq!(r.stats().coalesced, 1);
        assert_eq!(r.stats().executed, 1, "only the primary simulated");
    }

    #[test]
    fn failure_fails_followers_and_clears_inflight() {
        let r = Registry::new();
        let a = r.submit(9, "flat");
        let b = r.submit(9, "flat");
        r.start(a.id()).expect("queued");
        r.fail(a.id(), "boom".into());
        for id in [a.id(), b.id()] {
            let snap = r.snapshot(id).unwrap();
            assert_eq!(snap.state, JobState::Failed);
            assert_eq!(snap.error.as_deref(), Some("boom"));
        }
        // The hash is free again: a new submit executes fresh.
        assert!(matches!(r.submit(9, "flat"), Admission::Execute { .. }));
    }

    #[test]
    fn cancel_queued_is_immediate_and_skipped_by_workers() {
        let r = Registry::new();
        let a = r.submit(1, "flat");
        assert_eq!(r.cancel(a.id()), Some(JobState::Cancelled));
        assert!(r.start(a.id()).is_none(), "worker must skip");
        assert_eq!(r.stats().cancelled, 1);
        assert!(r.cancel(999).is_none(), "unknown id");
    }

    #[test]
    fn cancel_running_raises_flag_then_finishes() {
        let r = Registry::new();
        let a = r.submit(2, "flat");
        let handles = r.start(a.id()).expect("queued");
        assert_eq!(r.cancel(a.id()), Some(JobState::Running));
        assert!(handles.cancel.load(Ordering::Relaxed), "flag raised");
        r.finish_cancelled(a.id());
        assert_eq!(r.snapshot(a.id()).unwrap().state, JobState::Cancelled);
    }

    #[test]
    fn sample_ring_drains_in_order_and_bounds_memory() {
        let r = Registry::new();
        let a = r.submit(3, "flat");
        let handles = r.start(a.id()).expect("queued");
        for i in 0..(SAMPLE_RING_CAP + 5) {
            handles.samples.push(Json::U64(i as u64));
        }
        let drained = r.drain_samples(a.id());
        assert_eq!(drained.len(), SAMPLE_RING_CAP, "oldest evicted at cap");
        assert_eq!(drained[0], Json::U64(5), "drop-oldest order");
        assert!(r.drain_samples(a.id()).is_empty(), "drain empties the ring");
        assert!(r.drain_samples(999).is_empty(), "unknown id is empty");
    }

    #[test]
    fn store_persists_and_preloads_across_registries() {
        let dir = std::env::temp_dir().join(format!(
            "dynapar-registry-store-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let r = Registry::open(Some(dir.clone()), None, Logger::disabled()).expect("store dir");
            let a = r.submit(0xabcd, "flat");
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
        }
        let path = dir.join(format!("{:016x}.json", 0xabcd_u64));
        assert!(path.exists(), "artifact persisted under its hash");
        // Corrupt entries are skipped, valid ones preloaded.
        std::fs::write(dir.join("0000000000000001.json"), "not json").unwrap();
        let r2 = Registry::open(Some(dir.clone()), None, Logger::disabled()).expect("store dir");
        let b = r2.submit(0xabcd, "flat");
        assert!(matches!(b, Admission::Cached { .. }), "preloaded memo hit");
        assert_eq!(r2.stats().memo_hits, 1);
        assert!(
            matches!(r2.submit(1, "flat"), Admission::Execute { .. }),
            "corrupt entry not preloaded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_cap_evicts_lru_entries_and_they_reexecute() {
        let dir = std::env::temp_dir().join(format!("dynapar-registry-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Measure how large one persisted fake artifact is, so the cap
        // below budgets an exact number of entries.
        let entry_size = {
            let r = Registry::open(Some(dir.clone()), None, Logger::disabled()).expect("store dir");
            let a = r.submit(1, "flat");
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
            std::fs::metadata(dir.join(format!("{:016x}.json", 1u64)))
                .expect("persisted")
                .len()
        };
        let _ = std::fs::remove_dir_all(&dir);

        // Budget for exactly three entries.
        let r = Registry::open(Some(dir.clone()), Some(3 * entry_size), Logger::disabled()).expect("store dir");
        for hash in [1u64, 2, 3] {
            let a = r.submit(hash, "flat");
            r.start(a.id()).expect("queued");
            r.complete(a.id(), fake_artifact());
        }
        // A memo hit refreshes hash 1, leaving hash 2 least recently used.
        assert!(matches!(r.submit(1, "flat"), Admission::Cached { .. }));
        let a = r.submit(4, "flat");
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let exists = |hash: u64| dir.join(format!("{hash:016x}.json")).exists();
        assert!(exists(1), "recently touched entry survives");
        assert!(!exists(2), "least-recently-used entry evicted");
        assert!(exists(3) && exists(4), "newer entries survive");

        // A restarted daemon re-executes the evicted config cleanly
        // and still answers surviving entries from the preloaded cache.
        let r2 = Registry::open(Some(dir.clone()), Some(3 * entry_size), Logger::disabled()).expect("store dir");
        assert!(
            matches!(r2.submit(2, "flat"), Admission::Execute { .. }),
            "evicted entry re-executes"
        );
        assert!(matches!(r2.submit(1, "flat"), Admission::Cached { .. }));
        drop(r2);

        // Restarting under a tighter cap trims the preloaded store too,
        // and an entry evicted at preload is not answered from the memo.
        let r3 = Registry::open(Some(dir.clone()), Some(entry_size), Logger::disabled()).expect("store dir");
        let remaining = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref().unwrap().path().extension().and_then(|x| x.to_str()) == Some("json")
            })
            .count();
        assert_eq!(remaining, 1, "preload enforces the cap");
        for hash in [1u64, 3, 4] {
            if exists(hash) {
                assert!(matches!(r3.submit(hash, "flat"), Admission::Cached { .. }), "{hash} kept");
            } else {
                assert!(
                    matches!(r3.submit(hash, "flat"), Admission::Execute { .. }),
                    "{hash} evicted at preload re-executes"
                );
            }
        }
        drop(r3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forked_counter_tracks_notes() {
        let r = Registry::new();
        assert_eq!(r.stats().forked, 0);
        let (a, b) = (r.submit(21, "flat"), r.submit(22, "flat"));
        r.note_forked(a.id());
        r.note_forked(b.id());
        r.note_forked(999);
        assert_eq!(r.stats().forked, 2, "unknown ids are not counted");
        assert!(r.record(a.id()).unwrap().forked, "the record carries the flag");
    }

    #[test]
    fn timing_and_gauges_track_lifecycle() {
        let r = Registry::new();
        let a = r.submit(11, "spawn");
        assert_eq!(r.inflight_now(), 1, "one config in flight");
        let queued = r.record(a.id()).unwrap();
        assert_eq!(queued.class, "spawn");
        assert!(queued.started_at.is_none(), "not started yet");
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let done = r.record(a.id()).unwrap();
        let (started, ended) = (done.started_at.unwrap(), done.ended_at.unwrap());
        assert!(done.queued_at <= started && started <= ended, "ordered stamps");
        assert_eq!(r.inflight_now(), 0, "completion clears in-flight");
        assert_eq!(r.store_bytes(), 0, "no store configured");
        assert!(r.record(999).is_none(), "unknown id");

        // A memo hit is admitted and ended by one stamp and never starts.
        let hit = r.record(r.submit(11, "spawn").id()).unwrap();
        assert!(matches!(hit.admission, Admission::Cached { .. }));
        assert_eq!(hit.ended_at, Some(hit.queued_at));
        assert!(hit.started_at.is_none());
    }

    #[test]
    fn transitions_touch_only_their_own_group() {
        let r = Registry::new();
        let a = r.submit(31, "flat");
        let b = r.submit(31, "flat");
        let c = r.submit(31, "flat");
        let other = r.submit(32, "flat");
        assert_eq!(r.cancel(b.id()), Some(JobState::Cancelled), "follower alone");
        r.start(a.id()).expect("queued");
        r.complete(a.id(), fake_artifact());
        let state = |id| r.snapshot(id).unwrap().state;
        assert_eq!(state(b.id()), JobState::Cancelled, "stays cancelled");
        assert_eq!(state(c.id()), JobState::Done, "follower completes");
        assert_eq!(state(other.id()), JobState::Queued, "other config untouched");
        assert_eq!(r.record(c.id()).unwrap().ended_at, r.record(a.id()).unwrap().ended_at);
        assert_eq!(r.stats().cancelled, 1);
    }

    #[test]
    fn wait_terminal_returns_final_snapshot() {
        let r = Arc::new(Registry::new());
        let a = r.submit(5, "flat");
        let r2 = r.clone();
        let id = a.id();
        let h = std::thread::spawn(move || {
            r2.start(id).expect("queued");
            r2.complete(id, fake_artifact());
        });
        let snap = r.wait_terminal(id).expect("known");
        assert_eq!(snap.state, JobState::Done);
        h.join().unwrap();
    }
}
