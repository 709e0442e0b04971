//! The simulated memory hierarchy: per-SMX L1 data caches, an
//! address-interleaved partitioned L2, a crossbar, and per-controller DRAM
//! channels (Table II).

mod cache;
mod coalesce;
mod dram;
mod mshr;

pub use cache::Cache;
pub use coalesce::{coalesce_lines, coalesce_lines_parts};
pub use dram::DramChannel;

use dynapar_engine::profile::Profiler;
use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};
use dynapar_engine::Cycle;

use crate::config::MemConfig;
use crate::ids::SmxId;
use crate::profile::DRAM;
use mshr::MshrSet;

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

/// One SMX's L1 data cache and its MSHR set.
#[derive(Debug)]
struct L1 {
    cache: Cache,
    mshrs: MshrSet,
}

/// The whole memory hierarchy: every SMX's L1 and MSHR set, the
/// address-interleaved L2, the crossbar, the DRAM channels, and the run
/// counters.
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
/// use dynapar_gpu::{config::MemConfig, mem::MemSystem, SmxId};
///
/// let mut prof = Profiler::new(&[]); // disabled: attribution off
/// let mut m = MemSystem::new(&MemConfig::default(), 1);
/// let cold = m.warp_read(Cycle(0), SmxId(0), &[0], &mut prof);
/// let warm = m.warp_read(cold, SmxId(0), &[0], &mut prof);
/// assert!(warm - cold < cold - Cycle(0)); // L1 hit is much cheaper
/// ```
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    /// Per-SMX L1 state, indexed by [`SmxId`].
    l1: Vec<L1>,
    l2: Vec<L2Partition>,
    dram: Vec<DramChannel>,
    /// L2 partitions per memory controller, precomputed so the miss path
    /// does not re-derive it (with a division) on every transaction.
    parts_per_mc: usize,
    stats: MemStats,
}

impl MemSystem {
    /// Builds the hierarchy for `smxs` cores: one L1 per SMX, the L2
    /// partitions and the DRAM channels, all empty.
    pub fn new(cfg: &MemConfig, smxs: usize) -> Self {
        let l1 = (0..smxs)
            .map(|_| L1 {
                cache: Cache::with_geometry(cfg.l1_bytes, cfg.line_bytes, cfg.l1_ways),
                mshrs: MshrSet::default(),
            })
            .collect();
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
            l1,
            l2,
            dram,
            parts_per_mc: (cfg.l2_partitions / cfg.memory_controllers) as usize,
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

    /// Services one warp's read transactions (unique `lines`) issued by
    /// `smx` at time `now`; returns when the slowest completes.
    ///
    /// Lines probe the SMX's L1 in input order, filling on miss; each
    /// miss then takes an MSHR and crosses to L2 and, on an L2 miss,
    /// DRAM. Hits never touch the MSHRs or lower levels, and every miss
    /// issues at `now`. This is the only place read statistics are
    /// updated.
    ///
    /// `prof` attributes the DRAM share of the call when profiling is
    /// compiled in and enabled; pass a disabled profiler otherwise.
    pub fn warp_read(
        &mut self,
        now: Cycle,
        smx: SmxId,
        lines: &[u64],
        prof: &mut Profiler,
    ) -> Cycle {
        let si = smx.index();
        let mut hits = 0u64;
        let mut done = now;
        for &line in lines {
            if self.l1[si].cache.probe_fill(line) {
                hits += 1;
            } else {
                done = done.max(self.miss_line(now, si, line, prof));
            }
        }
        self.stats.l1_accesses += lines.len() as u64;
        self.stats.l1_hits += hits;
        if hits > 0 {
            done = done.max(now + self.cfg.l1_hit_latency);
        }
        done
    }

    /// One L1 miss: allocate an MSHR (stalling if the core's set is
    /// full), then cross the interconnect to the home L2 partition.
    fn miss_line(&mut self, now: Cycle, si: usize, line: u64, prof: &mut Profiler) -> Cycle {
        self.stats.l2_accesses += 1;
        let issue = self.l1[si].mshrs.admit(now, self.cfg.l1_mshrs as usize);
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
        self.l1[si].mshrs.complete_at(done);
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

    /// Serializes one SMX's L1 tags and MSHR occupancy. A snapshot
    /// writes each SMX's L1 next to that SMX's own state, so the L1s are
    /// not part of [`encode_state`](MemSystem::encode_state).
    pub fn encode_l1(&self, smx: SmxId, w: &mut ByteWriter) {
        let l1 = &self.l1[smx.index()];
        l1.cache.encode_state(w);
        l1.mshrs.encode_state(w);
    }

    /// Restores one SMX's [`encode_l1`](MemSystem::encode_l1) bytes.
    ///
    /// # Errors
    ///
    /// Propagates malformed cache geometry or truncated input.
    pub fn decode_l1(&mut self, smx: SmxId, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        self.l1[smx.index()] = L1 {
            cache: Cache::decode_state(r)?,
            mshrs: MshrSet::decode_state(r)?,
        };
        Ok(())
    }

    /// Serializes the levels below the L1s: every L2 partition's tags
    /// and bandwidth frontier, every DRAM channel, and the run counters.
    /// The config (rebuilt by the caller) is not included.
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
        let mut m = MemSystem::new(&small_cfg(), 1);
        m.warp_read(Cycle(0), SmxId(0), &[7], &mut np());
        let t0 = Cycle(10_000);
        let done = m.warp_read(t0, SmxId(0), &[7], &mut np());
        assert_eq!(done, t0 + m.cfg.l1_hit_latency);
        assert_eq!(m.stats().l1_hits, 1);
        assert_eq!(m.stats().l1_accesses, 2);
    }

    #[test]
    fn l2_hit_when_another_smx_fetched_the_line() {
        let mut m = MemSystem::new(&small_cfg(), 2);
        m.warp_read(Cycle(0), SmxId(0), &[7], &mut np()); // SMX0 pulls through L2
        let before = m.stats();
        assert_eq!(before.l2_hits, 0);
        m.warp_read(Cycle(10_000), SmxId(1), &[7], &mut np()); // SMX1 misses L1, hits L2
        let after = m.stats();
        assert_eq!(after.l2_hits, 1);
        assert_eq!(after.dram_accesses, before.dram_accesses);
    }

    #[test]
    fn miss_chain_latency_ordering() {
        let mut m = MemSystem::new(&small_cfg(), 1);
        let dram_done = m.warp_read(Cycle(0), SmxId(0), &[3], &mut np());
        // L2-resident latency (second SMX refetching a line the first
        // pulled through L2) must be below DRAM latency.
        let mut m3 = MemSystem::new(&small_cfg(), 2);
        m3.warp_read(Cycle(0), SmxId(0), &[3], &mut np());
        let l2_done = m3.warp_read(Cycle(100_000), SmxId(1), &[3], &mut np()) - Cycle(100_000);
        assert!(l2_done < dram_done - Cycle(0), "L2 {l2_done:?} vs DRAM {dram_done:?}");
    }

    #[test]
    fn many_lines_return_max_completion() {
        let mut m = MemSystem::new(&small_cfg(), 1);
        let one = m.warp_read(Cycle(0), SmxId(0), &[100], &mut np());
        let mut m2 = MemSystem::new(&small_cfg(), 1);
        let many = m2.warp_read(
            Cycle(0),
            SmxId(0),
            &[100, 101, 102, 103, 104, 105, 106, 107],
            &mut np(),
        );
        assert!(many >= one, "more transactions can only finish later");
    }

    #[test]
    fn bank_contention_serializes_same_partition() {
        let cfg = small_cfg();
        let parts = cfg.l2_partitions as u64;
        let mut m = MemSystem::new(&cfg, 1);
        // Two lines in the same partition vs two in different partitions.
        let same = m.warp_read(Cycle(0), SmxId(0), &[0, parts], &mut np());
        let mut m2 = MemSystem::new(&cfg, 1);
        let diff = m2.warp_read(Cycle(0), SmxId(0), &[0, 1], &mut np());
        assert!(same >= diff);
    }

    #[test]
    fn writes_count_but_do_not_block() {
        let mut m = MemSystem::new(&small_cfg(), 1);
        m.warp_write(Cycle(0), 55, &mut np());
        assert_eq!(m.stats().writes, 1);
    }

    #[test]
    fn state_round_trips_through_snapshot_bytes() {
        let cfg = small_cfg();
        let mut m = MemSystem::new(&cfg, 1);
        // Touch L1, L2, DRAM and the write path so every counter moves.
        m.warp_read(Cycle(0), SmxId(0), &[1, 2, 3, 300], &mut np());
        m.warp_read(Cycle(50), SmxId(0), &[1, 2], &mut np());
        m.warp_write(Cycle(60), 77, &mut np());

        let mut w = ByteWriter::new();
        m.encode_l1(SmxId(0), &mut w);
        m.encode_state(&mut w);
        let bytes = w.into_bytes();

        let mut m2 = MemSystem::new(&cfg, 1);
        let mut r = ByteReader::new(&bytes);
        m2.decode_l1(SmxId(0), &mut r).unwrap();
        m2.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m2.stats(), m.stats());
        assert_eq!(m2.dram_row_hit_rate(), m.dram_row_hit_rate());
        // Continuing both from the same point must agree cycle-for-cycle.
        for (t, lines) in [(100u64, [1u64, 4]), (200, [300, 301]), (300, [1, 300])] {
            let a = m.warp_read(Cycle(t), SmxId(0), &lines, &mut np());
            let b = m2.warp_read(Cycle(t), SmxId(0), &lines, &mut np());
            assert_eq!(a, b, "t={t}");
        }
        assert_eq!(m2.stats(), m.stats());
    }

    #[test]
    fn decode_l1_accepts_any_mshr_times_in_bounded_memory() {
        let cfg = small_cfg();
        let mut w = ByteWriter::new();
        MemSystem::new(&cfg, 1).encode_l1(SmxId(0), &mut w);
        let mut cache = w.into_bytes();
        cache.truncate(cache.len() - 8); // the fresh set's zero length
        let mshr_bytes = |times: &[u64], len: usize| {
            let mut w = ByteWriter::new();
            w.put_len(len);
            for &t in times {
                w.put_u64(t);
            }
            [cache.clone(), w.into_bytes()].concat()
        };
        // 1500 unsorted times spread over 2^60 cycles.
        let spread: Vec<u64> = (0..1500u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 4)
            .collect();
        let cases = [
            vec![0, u64::MAX - 1],
            vec![900, 5, 70_000, 5, 1 << 33, 900],
            vec![42; 3000],
            spread,
        ];
        for times in cases {
            let bytes = mshr_bytes(&times, times.len());
            let mut m = MemSystem::new(&cfg, 1);
            let mut r = ByteReader::new(&bytes);
            m.decode_l1(SmxId(0), &mut r).unwrap();
            r.finish().unwrap();
            // The set holds exactly the multiset it read, and re-encodes
            // it sorted.
            let mut sorted = times.clone();
            sorted.sort_unstable();
            let mut w = ByteWriter::new();
            m.encode_l1(SmxId(0), &mut w);
            assert_eq!(w.into_bytes(), mshr_bytes(&sorted, sorted.len()));
            // And keeps simulating.
            for t in [0u64, 1_000, 1 << 40] {
                let done = m.warp_read(Cycle(t), SmxId(0), &[t % 97, 500 + t % 13], &mut np());
                assert!(done >= Cycle(t));
            }
        }
        // A length beyond the input and a truncated list are typed errors.
        for (times, len) in [(vec![], 1 << 40), (vec![7, 8], 3)] {
            let bytes = mshr_bytes(&times, len);
            let mut m = MemSystem::new(&cfg, 1);
            assert!(m.decode_l1(SmxId(0), &mut ByteReader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn decode_rejects_wrong_partition_count() {
        let mut w = ByteWriter::new();
        MemSystem::new(&small_cfg(), 1).encode_state(&mut w);
        let bytes = w.into_bytes();
        let other_cfg = MemConfig {
            l2_partitions: small_cfg().l2_partitions * 2,
            ..small_cfg()
        };
        let mut other = MemSystem::new(&other_cfg, 1);
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
        let mut m_tight = MemSystem::new(&tight, 1);
        let mut m_loose = MemSystem::new(&loose, 1);
        let t_tight = m_tight.warp_read(Cycle(0), SmxId(0), &lines, &mut np());
        let t_loose = m_loose.warp_read(Cycle(0), SmxId(0), &lines, &mut np());
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
        let mut m = MemSystem::new(&cfg, 1);
        m.warp_read(Cycle(0), SmxId(0), &[7], &mut np()); // miss fills L1
        let before = m.stats().mshr_stalls;
        for i in 0..10 {
            m.warp_read(Cycle(100_000 + i), SmxId(0), &[7], &mut np()); // all hits
        }
        assert_eq!(m.stats().mshr_stalls, before);
    }
}
