//! Direct verification of the zero-allocation steady state (DESIGN.md
//! §11): heap allocations during a run must scale with the number of
//! kernels/CTAs, **not** with the number of warp rounds executed. Wall
//! clock is too noisy to prove an allocation claim; counting the
//! allocator's calls is exact and machine-independent.
//!
//! The probe workload is a single flat kernel (no DP, so the kernel
//! table does not grow) whose per-thread item count — and therefore
//! round count and event count — is the only variable. If the per-round
//! paths (lane access, coalescing, `warp_read`, wakeup scheduling)
//! allocate, the longer run's allocation count scales with its ~16×
//! round count and the ratio assertion fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dynapar_gpu::{GpuConfig, KernelDesc, Simulation, ThreadSource, ThreadWork, WorkClass};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs one flat kernel with `items_per_thread` rounds per thread and
/// returns `(allocations during run, events processed)`.
fn run_and_count(items_per_thread: u32) -> (u64, u64) {
    let threads = 2048u64;
    let class = WorkClass {
        label: "probe",
        compute_per_item: 4,
        init_cycles: 10,
        seq_bytes_per_item: 8,
        rand_refs_per_item: 1,
        rand_region_base: 0x8000_0000,
        rand_region_bytes: 1 << 20,
        writes_per_item: 0,
    };
    let mut sim = Simulation::builder(GpuConfig::kepler_k20m()).build();
    sim.launch_host(KernelDesc {
        name: "probe".into(),
        cta_threads: 128,
        regs_per_thread: 16,
        shmem_per_cta: 0,
        class: Arc::new(class),
        source: ThreadSource::Derived {
            origin: ThreadWork::with_items(threads as u32 * items_per_thread),
            items_per_thread,
        },
        dp: None,
    });
    let before = ALLOCS.load(Ordering::Relaxed);
    let outcome = sim.run();
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    (during, outcome.report.events_processed)
}

#[test]
fn round_count_does_not_drive_allocations() {
    // Warm up once so lazily initialized process state (stdio, runtime
    // tables) is not charged to the first measured run.
    let _ = run_and_count(8);
    if std::env::var_os("DYNAPAR_ALLOC").is_some_and(|v| v == "print") {
        for ipt in [32, 64, 128, 256, 512, 1024] {
            let (a, e) = run_and_count(ipt);
            println!("ipt {ipt:>5}: {a:>8} allocs {e:>9} events");
        }
        return;
    }
    // Measure past the warm-up knee (buffer capacities and wheel bucket
    // reuse converge over the first few thousand events), where the
    // steady-state claim actually applies.
    let (short_allocs, short_events) = run_and_count(256);
    let (long_allocs, long_events) = run_and_count(1024);
    assert!(
        long_events > short_events * 3,
        "probe failed to scale the event count ({short_events} -> {long_events})"
    );
    // Identical kernel/CTA structure; only rounds grew (~4x the events,
    // ~100k more). The steady-state paths are allocation-free, so the
    // counts stay within a small additive slack (Vec doublings of the
    // timeline/report accumulators) instead of tracking the event ratio.
    let growth = long_allocs.saturating_sub(short_allocs);
    assert!(
        growth < 1024,
        "allocations scale with rounds: {short_allocs} allocs at {short_events} events, \
         {long_allocs} allocs at {long_events} events (+{growth}) — a per-round path is \
         allocating"
    );
}
