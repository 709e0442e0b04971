//! Per-SMX simulation state.
//!
//! A [`SmxShard`] bundles one [`Smx`] with everything its anchor tick
//! touches privately: the L1 cache (tag state only — L2/DRAM stay
//! global in `MemSystem`), the coalescing scratch buffers, and the
//! local-event counter.

use dynapar_engine::snap::{ByteReader, ByteWriter, SnapError};

use crate::config::GpuConfig;
use crate::ids::SmxId;
use crate::mem::SmxL1;
use crate::smx::Smx;

/// One SMX plus its private L1 and round buffers. Derefs to [`Smx`], so
/// the SMX accessors (`warp`, `select_ready`, `local`, `anchors`, …)
/// work directly on `Vec<SmxShard>`.
pub(crate) struct SmxShard {
    pub smx: Smx,
    /// This SMX's private L1 tag + MSHR state.
    pub l1: SmxL1,
    /// Coalescing buffer: sequential addresses, then the merged lines.
    pub addr_buf: Vec<u64>,
    /// Merge target for the two-block coalescer; swaps with `addr_buf`.
    pub scratch_buf: Vec<u64>,
    /// Local wakeups drained by this SMX (summed into the report).
    pub events_local: u64,
}

impl SmxShard {
    pub fn new(id: SmxId, cfg: &GpuConfig) -> Self {
        SmxShard {
            smx: Smx::new(id, cfg),
            l1: SmxL1::new(&cfg.mem),
            addr_buf: Vec::with_capacity(128),
            scratch_buf: Vec::with_capacity(128),
            events_local: 0,
        }
    }

    /// Serializes the shard's persistent state: the SMX, its L1/MSHRs,
    /// and the local-event counter. The coalescing buffers are empty
    /// between events and are not written.
    pub fn encode_state(&mut self, w: &mut ByteWriter) {
        self.smx.encode_state(w);
        self.l1.encode_state(w);
        w.put_u64(self.events_local);
    }

    /// Restores [`encode_state`](SmxShard::encode_state) bytes into a
    /// config-constructed shard.
    ///
    /// # Errors
    ///
    /// Propagates geometry mismatches from the SMX and L1 decoders.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapError> {
        self.smx.decode_state(r)?;
        self.l1 = SmxL1::decode_state(r)?;
        self.events_local = r.get_u64()?;
        Ok(())
    }
}

impl std::ops::Deref for SmxShard {
    type Target = Smx;
    #[inline]
    fn deref(&self) -> &Smx {
        &self.smx
    }
}

impl std::ops::DerefMut for SmxShard {
    #[inline]
    fn deref_mut(&mut self) -> &mut Smx {
        &mut self.smx
    }
}
