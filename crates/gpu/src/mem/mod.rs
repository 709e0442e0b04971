//! The simulated memory hierarchy: per-SMX L1 data caches, an
//! address-interleaved partitioned L2, a crossbar, and per-controller DRAM
//! channels (Table II).

mod cache;
mod coalesce;
mod dram;

pub use cache::Cache;
pub use coalesce::{coalesce_lines, coalesce_lines_parts};
pub use dram::DramChannel;

use dynapar_engine::profile::Profiler;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::Cycle;

use crate::config::MemConfig;
use crate::profile::DRAM;

/// Aggregate memory-system counters for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 probes (warp transactions).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 probes (L1 misses).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// DRAM reads (L2 misses).
    pub dram_accesses: u64,
    /// Write transactions issued (bandwidth only).
    pub writes: u64,
    /// L1 misses delayed because the core's MSHR set was full.
    pub mshr_stalls: u64,
}

impl MemStats {
    /// L1 hit rate in `[0, 1]`.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.l1_accesses as f64
        }
    }

    /// L2 hit rate in `[0, 1]` (Fig. 17's metric).
    pub fn l2_hit_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_hits as f64 / self.l2_accesses as f64
        }
    }
}

/// One L2 partition: a tag array plus a bank-service bandwidth limit.
#[derive(Debug, Clone)]
struct L2Partition {
    cache: Cache,
    next_free: Cycle,
}

/// Per-SMX miss-status holding registers: completion times of in-flight
/// L1 misses. A new miss entering a full set stalls until the earliest
/// outstanding one returns.
///
/// Returned completions are reclaimed lazily: the heap is only drained of
/// expired entries once it apparently reaches capacity. Stale entries
/// inflate `len` in between, but every decision that depends on occupancy
/// drains first, so admission times and stall counts are identical to
/// eager reclamation — while a set that never fills never pays a pop.
/// (A 4-ary heap and a monotone radix heap were both measured here and
/// lost to `BinaryHeap`'s bottom-sift pops in the at-capacity regime.)
#[derive(Debug, Default)]
struct MshrSet {
    inflight: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
}

impl MshrSet {
    /// Admits a miss issued at `now`; returns the cycle it may actually
    /// enter the memory system.
    fn admit(&mut self, now: Cycle, capacity: usize) -> Cycle {
        use std::cmp::Reverse;
        if self.inflight.len() >= capacity {
            while let Some(&Reverse(done)) = self.inflight.peek() {
                if done <= now.as_u64() {
                    self.inflight.pop();
                } else {
                    break;
                }
            }
        }
        if self.inflight.len() < capacity {
            now
        } else {
            let std::cmp::Reverse(earliest) = self.inflight.pop().expect("full set is non-empty");
            Cycle(earliest.max(now.as_u64()))
        }
    }

    fn complete_at(&mut self, done: Cycle) {
        self.inflight.push(std::cmp::Reverse(done.as_u64()));
    }

    /// Serializes the in-flight completion times, sorted so the bytes do
    /// not depend on heap layout (admission behaviour only depends on the
    /// multiset of times, so sorting is observation-free).
    fn encode_state(&self, w: &mut ByteWriter) {
        let mut times: Vec<u64> = self.inflight.iter().map(|r| r.0).collect();
        times.sort_unstable();
        w.put_len(times.len());
        for t in times {
            w.put_u64(t);
        }
    }

    fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut set = MshrSet::default();
        for _ in 0..n {
            set.inflight.push(std::cmp::Reverse(r.get_u64()?));
        }
        Ok(set)
    }
}

/// One SMX's private slice of the memory hierarchy: its L1 data cache
/// and MSHR set.
///
/// Owned by the SMX's shard rather than by [`MemSystem`], which keeps
/// only the shared L2/DRAM/stats state. A warp read takes two steps
/// ([`SmxL1::probe`] then [`MemSystem::service_read`]); the split is
/// invisible to simulated timing and counters.
#[derive(Debug)]
pub struct SmxL1 {
    cache: Cache,
    mshrs: MshrSet,
}

impl SmxL1 {
    /// Builds one SMX's L1 cache and (empty) MSHR set.
    pub fn new(cfg: &MemConfig) -> Self {
        SmxL1 {
            cache: Cache::with_geometry(cfg.l1_bytes, cfg.line_bytes, cfg.l1_ways),
            mshrs: MshrSet::default(),
        }
    }

    /// Probes every line of one warp transaction against the L1 tags in
    /// input order, filling on miss; returns the hit count and appends
    /// the missing lines to `misses` (also in input order).
    ///
    /// Pure tag work: no statistics, no MSHRs, no lower levels. Timing
    /// and counting happen when the result is handed to
    /// [`MemSystem::service_read`].
    pub fn probe(&mut self, lines: &[u64], misses: &mut Vec<u64>) -> u64 {
        let mut hits = 0u64;
        for &line in lines {
            if self.cache.probe_fill(line) {
                hits += 1;
            } else {
                misses.push(line);
            }
        }
        hits
    }

    /// Serializes the L1 tag array and MSHR occupancy for a snapshot.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        self.cache.encode_state(w);
        self.mshrs.encode_state(w);
    }

    /// Rebuilds one SMX's L1 state from
    /// [`encode_state`](SmxL1::encode_state) bytes.
    ///
    /// # Errors
    ///
    /// Propagates malformed cache geometry or truncated input.
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        Ok(SmxL1 {
            cache: Cache::decode_state(r)?,
            mshrs: MshrSet::decode_state(r)?,
        })
    }
}

/// The shared half of the memory system: the address-interleaved L2,
/// the crossbar, the DRAM channels, and the run counters. Each SMX's
/// private L1/MSHR state lives in an [`SmxL1`] owned by the caller.
///
/// `warp_read` is the hot path: given the unique cache lines touched by one
/// warp round (already coalesced), it probes the issuing SMX's L1, sends
/// misses across the crossbar to their home L2 partition, forwards L2
/// misses to the owning DRAM channel, and returns the cycle at which the
/// last transaction completes (the warp's load-use stall horizon).
///
/// # Examples
///
/// ```
/// use dynapar_engine::{profile::Profiler, Cycle};
/// use dynapar_gpu::{config::MemConfig, mem::{MemSystem, SmxL1}};
///
/// let mut prof = Profiler::new(&[]); // disabled: attribution off
/// let mut m = MemSystem::new(&MemConfig::default());
/// let mut l1 = SmxL1::new(&MemConfig::default());
/// let cold = m.warp_read(Cycle(0), &mut l1, &[0], &mut prof);
/// let warm = m.warp_read(cold, &mut l1, &[0], &mut prof);
/// assert!(warm - cold < cold - Cycle(0)); // L1 hit is much cheaper
/// ```
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l2: Vec<L2Partition>,
    dram: Vec<DramChannel>,
    /// L2 partitions per memory controller, precomputed so the miss path
    /// does not re-derive it (with a division) on every transaction.
    parts_per_mc: usize,
    /// L1-miss lines of the warp transaction in flight, reused across
    /// calls by `warp_read`'s two-pass split.
    miss_buf: Vec<u64>,
    stats: MemStats,
}

impl MemSystem {
    /// Builds the shared hierarchy (L2 partitions and DRAM channels).
    pub fn new(cfg: &MemConfig) -> Self {
        let l2 = (0..cfg.l2_partitions)
            .map(|_| L2Partition {
                cache: Cache::with_geometry(cfg.l2_partition_bytes, cfg.line_bytes, cfg.l2_ways),
                next_free: Cycle::ZERO,
            })
            .collect();
        let lines_per_row = (cfg.dram_row_bytes / cfg.line_bytes).max(1) as u64;
        let dram = (0..cfg.memory_controllers)
            .map(|_| {
                DramChannel::new(
                    cfg.dram_banks_per_channel,
                    lines_per_row,
                    cfg.dram_row_hit_latency,
                    cfg.dram_row_miss_latency,
                    cfg.dram_service_interval,
                )
            })
            .collect();
        MemSystem {
            cfg: cfg.clone(),
            l2,
            dram,
            parts_per_mc: (cfg.l2_partitions / cfg.memory_controllers) as usize,
            miss_buf: Vec::with_capacity(64),
            stats: MemStats::default(),
        }
    }

    #[inline]
    fn partition_of(&self, line: u64) -> usize {
        // Specialize the divisors real configs use (12 on the GK110,
        // 16 in the test fixture) so LLVM strength-reduces the modulo
        // to a multiply-shift instead of an integer division.
        match self.cfg.l2_partitions {
            12 => (line % 12) as usize,
            16 => (line & 15) as usize,
            p => (line % p as u64) as usize,
        }
    }

    /// Services one warp's read transactions (unique `lines`) issued
    /// through `l1` at time `now`; returns when the slowest completes.
    ///
    /// The batch is processed in two passes: every line probes the L1
    /// first (in input order, so tag state evolves exactly as per-line
    /// dispatch), then the collected misses cross to L2/DRAM, also in
    /// input order. Hits never touch the MSHRs or lower levels and all
    /// misses issue at the same `now`, so the split is invisible to the
    /// simulated timing — it exists to keep each pass's working set (L1
    /// tags, then L2/DRAM state) hot instead of ping-ponging between
    /// them per line.
    ///
    /// `prof` attributes the DRAM share of the call when profiling is
    /// compiled in and enabled; pass a disabled profiler otherwise.
    pub fn warp_read(
        &mut self,
        now: Cycle,
        l1: &mut SmxL1,
        lines: &[u64],
        prof: &mut Profiler,
    ) -> Cycle {
        let mut misses = std::mem::take(&mut self.miss_buf);
        misses.clear();
        let hits = l1.probe(lines, &mut misses);
        let done = self.service_read(now, l1, lines.len() as u64, hits, &misses, prof);
        self.miss_buf = misses;
        done
    }

    /// Second half of a warp read whose L1 probe already happened (via
    /// [`SmxL1::probe`]): books the counters and walks every miss
    /// through MSHR admission, the crossbar, L2, and DRAM. `total` is
    /// the transaction's full line count (`hits + misses.len()`).
    ///
    /// This is the only place read statistics are updated.
    pub(crate) fn service_read(
        &mut self,
        now: Cycle,
        l1: &mut SmxL1,
        total: u64,
        hits: u64,
        misses: &[u64],
        prof: &mut Profiler,
    ) -> Cycle {
        self.stats.l1_accesses += total;
        self.stats.l1_hits += hits;
        let mut done = if hits > 0 {
            now + self.cfg.l1_hit_latency
        } else {
            now
        };
        for &line in misses {
            let completion = self.miss_line(now, &mut l1.mshrs, line, prof);
            done = done.max(completion);
        }
        done
    }

    /// One L1 miss: allocate an MSHR (stalling if the core's set is
    /// full), then cross the interconnect to the home L2 partition.
    fn miss_line(&mut self, now: Cycle, mshrs: &mut MshrSet, line: u64, prof: &mut Profiler) -> Cycle {
        self.stats.l2_accesses += 1;
        let issue = mshrs.admit(now, self.cfg.l1_mshrs as usize);
        if issue > now {
            self.stats.mshr_stalls += 1;
        }
        let pid = self.partition_of(line);
        let part = &mut self.l2[pid];
        let arrive = issue + self.cfg.l1_hit_latency + self.cfg.xbar_latency;
        let start = arrive.max(part.next_free);
        part.next_free = start + self.cfg.l2_service_interval;
        let l2_done = start + self.cfg.l2_hit_latency;
        let completion = if part.cache.probe_fill(line) {
            self.stats.l2_hits += 1;
            l2_done
        } else {
            self.stats.dram_accesses += 1;
            prof.enter(DRAM);
            let c = self.dram[pid / self.parts_per_mc].access(l2_done, line);
            prof.exit();
            c
        };
        let done = completion + self.cfg.xbar_latency;
        mshrs.complete_at(done);
        done
    }

    /// Issues one coalesced store transaction for `line`; consumes L2
    /// (and, on an L2 write miss, DRAM) bandwidth but returns no
    /// latency — stores retire asynchronously.
    pub fn warp_write(&mut self, now: Cycle, line: u64, prof: &mut Profiler) {
        self.stats.writes += 1;
        let pid = self.partition_of(line);
        let part = &mut self.l2[pid];
        let arrive = now + self.cfg.l1_hit_latency + self.cfg.xbar_latency;
        let start = arrive.max(part.next_free);
        part.next_free = start + self.cfg.l2_service_interval;
        if !part.cache.probe_fill(line) {
            prof.enter(DRAM);
            self.dram[pid / self.parts_per_mc].write(start + self.cfg.l2_hit_latency, line);
            prof.exit();
        }
    }

    /// Run counters.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Serializes the shared hierarchy's dynamic state: every L2
    /// partition's tags and bandwidth frontier, every DRAM channel, and
    /// the run counters. The transient miss buffer (empty between
    /// events) and the config (rebuilt by the caller) are not included.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        w.put_len(self.l2.len());
        for part in &self.l2 {
            part.cache.encode_state(w);
            w.put_u64(part.next_free.as_u64());
        }
        w.put_len(self.dram.len());
        for chan in &self.dram {
            chan.encode_state(w);
        }
        w.put_u64(self.stats.l1_accesses);
        w.put_u64(self.stats.l1_hits);
        w.put_u64(self.stats.l2_accesses);
        w.put_u64(self.stats.l2_hits);
        w.put_u64(self.stats.dram_accesses);
        w.put_u64(self.stats.writes);
        w.put_u64(self.stats.mshr_stalls);
    }

    /// Restores [`encode_state`](MemSystem::encode_state) bytes into a
    /// config-constructed hierarchy.
    ///
    /// # Errors
    ///
    /// Rejects partition/channel counts that differ from this system's
    /// configuration.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        if r.get_len()? != self.l2.len() {
            return Err(SnapError::Invalid("L2 partition count differs from config"));
        }
        for part in &mut self.l2 {
            part.cache = Cache::decode_state(r)?;
            part.next_free = Cycle(r.get_u64()?);
        }
        if r.get_len()? != self.dram.len() {
            return Err(SnapError::Invalid("DRAM channel count differs from config"));
        }
        for chan in &mut self.dram {
            chan.decode_state(r)?;
        }
        self.stats = MemStats {
            l1_accesses: r.get_u64()?,
            l1_hits: r.get_u64()?,
            l2_accesses: r.get_u64()?,
            l2_hits: r.get_u64()?,
            dram_accesses: r.get_u64()?,
            writes: r.get_u64()?,
            mshr_stalls: r.get_u64()?,
        };
        Ok(())
    }

    /// Mean DRAM row-buffer hit rate across channels (diagnostic).
    pub fn dram_row_hit_rate(&self) -> f64 {
        let active: Vec<f64> = self
            .dram
            .iter()
            .filter(|c| c.accesses() > 0)
            .map(|c| c.row_hit_rate())
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A disabled profiler for exercising the memory system directly.
    fn np() -> Profiler {
        Profiler::new(&[])
    }

    fn small_cfg() -> MemConfig {
        MemConfig {
            l1_bytes: 2 * 128 * 4, // 8 lines, 4-way, 2 sets
            l2_partition_bytes: 16 * 128 * 8,
            ..MemConfig::default()
        }
    }

    #[test]
    fn l1_hit_is_fast_and_counted() {
        let mut m = MemSystem::new(&small_cfg());
        let mut l1 = SmxL1::new(&small_cfg());
        m.warp_read(Cycle(0), &mut l1, &[7], &mut np());
        let t0 = Cycle(10_000);
        let done = m.warp_read(t0, &mut l1, &[7], &mut np());
        assert_eq!(done, t0 + m.cfg.l1_hit_latency);
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l1_accesses, 2);
    }

    #[test]
    fn l2_hit_when_another_smx_fetched_the_line() {
        let mut m = MemSystem::new(&small_cfg());
        let mut l1a = SmxL1::new(&small_cfg());
        let mut l1b = SmxL1::new(&small_cfg());
        m.warp_read(Cycle(0), &mut l1a, &[7], &mut np()); // SMX0 pulls through L2
        let before = m.stats();
        assert_eq!(before.l2_hits, 0);
        m.warp_read(Cycle(10_000), &mut l1b, &[7], &mut np()); // SMX1 misses L1, hits L2
        let after = m.stats();
        assert_eq!(after.l2_hits, 1);
        assert_eq!(after.dram_accesses, before.dram_accesses);
    }

    #[test]
    fn miss_chain_latency_ordering() {
        let mut m = MemSystem::new(&small_cfg());
        let mut l1 = SmxL1::new(&small_cfg());
        let dram_done = m.warp_read(Cycle(0), &mut l1, &[3], &mut np());
        // L2-resident latency (second SMX refetching a line the first
        // pulled through L2) must be below DRAM latency.
        let mut m3 = MemSystem::new(&small_cfg());
        let mut l1a = SmxL1::new(&small_cfg());
        let mut l1b = SmxL1::new(&small_cfg());
        m3.warp_read(Cycle(0), &mut l1a, &[3], &mut np());
        let l2_done = m3.warp_read(Cycle(100_000), &mut l1b, &[3], &mut np()) - Cycle(100_000);
        assert!(l2_done < dram_done - Cycle(0), "L2 {l2_done:?} vs DRAM {dram_done:?}");
    }

    #[test]
    fn many_lines_return_max_completion() {
        let mut m = MemSystem::new(&small_cfg());
        let mut l1 = SmxL1::new(&small_cfg());
        let one = m.warp_read(Cycle(0), &mut l1, &[100], &mut np());
        let mut m2 = MemSystem::new(&small_cfg());
        let mut l1b = SmxL1::new(&small_cfg());
        let many = m2.warp_read(
            Cycle(0),
            &mut l1b,
            &[100, 101, 102, 103, 104, 105, 106, 107],
            &mut np(),
        );
        assert!(many >= one, "more transactions can only finish later");
    }

    #[test]
    fn bank_contention_serializes_same_partition() {
        let cfg = small_cfg();
        let parts = cfg.l2_partitions as u64;
        let mut m = MemSystem::new(&cfg);
        let mut l1 = SmxL1::new(&cfg);
        // Two lines in the same partition vs two in different partitions.
        let same = m.warp_read(Cycle(0), &mut l1, &[0, parts], &mut np());
        let mut m2 = MemSystem::new(&cfg);
        let mut l1b = SmxL1::new(&cfg);
        let diff = m2.warp_read(Cycle(0), &mut l1b, &[0, 1], &mut np());
        assert!(same >= diff);
    }

    #[test]
    fn writes_count_but_do_not_block() {
        let mut m = MemSystem::new(&small_cfg());
        m.warp_write(Cycle(0), 55, &mut np());
        assert_eq!(m.stats().writes, 1);
    }

    #[test]
    fn deferred_probe_matches_inline_warp_read() {
        // The explicit two-step path must book the same latency and
        // counters as the one-call path.
        let lines = [7u64, 8, 9, 7 + 256];
        let mut m1 = MemSystem::new(&small_cfg());
        let mut a1 = SmxL1::new(&small_cfg());
        let inline_done = m1.warp_read(Cycle(5), &mut a1, &lines, &mut np());

        let mut m2 = MemSystem::new(&small_cfg());
        let mut a2 = SmxL1::new(&small_cfg());
        let mut misses = Vec::new();
        let hits = a2.probe(&lines, &mut misses);
        let split_done =
            m2.service_read(Cycle(5), &mut a2, lines.len() as u64, hits, &misses, &mut np());
        assert_eq!(inline_done, split_done);
        assert_eq!(m1.stats(), m2.stats());
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let cfg = small_cfg();
        let mut m = MemSystem::new(&cfg);
        let mut l1 = SmxL1::new(&cfg);
        // Touch L1, L2, DRAM and the write path so every counter moves.
        m.warp_read(Cycle(0), &mut l1, &[1, 2, 3, 300], &mut np());
        m.warp_read(Cycle(50), &mut l1, &[1, 2], &mut np());
        m.warp_write(Cycle(60), 77, &mut np());

        let mut w = ByteWriter::new();
        m.encode_state(&mut w);
        l1.encode_state(&mut w);
        let bytes = w.into_bytes();

        let mut m2 = MemSystem::new(&cfg);
        let mut r = ByteReader::new(&bytes);
        m2.decode_state(&mut r).unwrap();
        let mut l1b = SmxL1::decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m2.stats(), m.stats());
        assert_eq!(m2.dram_row_hit_rate(), m.dram_row_hit_rate());
        // Continuing both from the same point must agree cycle-for-cycle.
        for (t, lines) in [(100u64, [1u64, 4]), (200, [300, 301]), (300, [1, 300])] {
            let a = m.warp_read(Cycle(t), &mut l1, &lines, &mut np());
            let b = m2.warp_read(Cycle(t), &mut l1b, &lines, &mut np());
            assert_eq!(a, b, "t={t}");
        }
        assert_eq!(m2.stats(), m.stats());
    }

    #[test]
    fn decode_rejects_wrong_partition_count() {
        let mut w = ByteWriter::new();
        MemSystem::new(&small_cfg()).encode_state(&mut w);
        let bytes = w.into_bytes();
        let other_cfg = MemConfig {
            l2_partitions: small_cfg().l2_partitions * 2,
            ..small_cfg()
        };
        let mut other = MemSystem::new(&other_cfg);
        let mut r = ByteReader::new(&bytes);
        assert!(other.decode_state(&mut r).is_err());
    }

    #[test]
    fn stats_rates() {
        let s = MemStats {
            l1_accesses: 10,
            l1_hits: 5,
            l2_accesses: 5,
            l2_hits: 4,
            dram_accesses: 1,
            writes: 0,
            mshr_stalls: 0,
        };
        assert!((s.l1_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.l2_hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(MemStats::default().l1_hit_rate(), 0.0);
    }
}

#[cfg(test)]
mod mshr_tests {
    use super::*;

    /// A disabled profiler for exercising the memory system directly.
    fn np() -> Profiler {
        Profiler::new(&[])
    }

    #[test]
    fn mshr_set_admits_until_full_then_stalls() {
        let mut m = MshrSet::default();
        // Fill 4 slots with misses completing at 100, 200, 300, 400.
        for done in [100u64, 200, 300, 400] {
            assert_eq!(m.admit(Cycle(0), 4), Cycle(0));
            m.complete_at(Cycle(done));
        }
        // Fifth miss at t=10 must wait for the earliest return (100).
        assert_eq!(m.admit(Cycle(10), 4), Cycle(100));
        m.complete_at(Cycle(500));
        // After time passes, returned entries free slots.
        assert_eq!(m.admit(Cycle(250), 4), Cycle(0).max(Cycle(250)));
    }

    #[test]
    fn few_mshrs_throttle_miss_storms() {
        let tight = MemConfig {
            l1_mshrs: 2,
            ..MemConfig::default()
        };
        let loose = MemConfig {
            l1_mshrs: 64,
            ..MemConfig::default()
        };
        // A storm of distinct lines (all misses) from one SMX.
        let lines: Vec<u64> = (0..64).collect();
        let mut m_tight = MemSystem::new(&tight);
        let mut l1_tight = SmxL1::new(&tight);
        let mut m_loose = MemSystem::new(&loose);
        let mut l1_loose = SmxL1::new(&loose);
        let t_tight = m_tight.warp_read(Cycle(0), &mut l1_tight, &lines, &mut np());
        let t_loose = m_loose.warp_read(Cycle(0), &mut l1_loose, &lines, &mut np());
        assert!(
            t_tight > t_loose,
            "2 MSHRs ({t_tight:?}) must be slower than 64 ({t_loose:?})"
        );
        assert!(m_tight.stats().mshr_stalls > 0);
        assert_eq!(m_loose.stats().mshr_stalls, 0);
    }

    #[test]
    fn hits_never_consume_mshrs() {
        let cfg = MemConfig {
            l1_mshrs: 1,
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(&cfg);
        let mut l1 = SmxL1::new(&cfg);
        m.warp_read(Cycle(0), &mut l1, &[7], &mut np()); // miss fills L1
        let before = m.stats().mshr_stalls;
        for i in 0..10 {
            m.warp_read(Cycle(100_000 + i), &mut l1, &[7], &mut np()); // all hits
        }
        assert_eq!(m.stats().mshr_stalls, before);
    }
}
