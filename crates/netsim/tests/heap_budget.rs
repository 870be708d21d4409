//! A fabric's heap follows what its traffic uses, not its port count.
//!
//! This target counts every heap byte through a `#[global_allocator]`
//! that forwards to [`System`], so it holds one test: nothing else in
//! the process allocates while it measures. It builds `fat_tree(8)`
//! and `fat_tree(16)` with the benchmark's switch configuration (PMSB
//! K=12 over DWRR × 8, host NICs mirroring it), runs each to t = 0, and
//! bounds the peak of live heap bytes and the allocations made. Ports
//! and NICs build their queues on their first packet, so a fabric with
//! no traffic holds its links and routes only: a queue built per port
//! at wiring, a flat per-queue ring reserve or a heap allocation per
//! route would each blow the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use pmsb::MarkPoint;
use pmsb_netsim::config::{HostConfig, MarkingConfig, SwitchConfig, TransportConfig};
use pmsb_netsim::topology;

/// Live heap bytes, their peak, and the allocations made.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: both methods forward to `System` unchanged; the counters
// only observe the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, that is from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: usize = 1 << 20;

#[test]
fn building_a_fat_tree_stays_within_its_heap_budget() {
    let switch_cfg = SwitchConfig {
        marking: MarkingConfig::Pmsb {
            port_threshold_pkts: 12,
        },
        ..SwitchConfig::default()
    };
    let host_cfg = HostConfig {
        nic_marking: switch_cfg.marking.clone(),
        nic_mark_point: MarkPoint::Enqueue,
        ..HostConfig::default()
    };
    for (k, budget_mib, budget_allocs) in [(8, 1, 600), (16, 6, 3_000)] {
        let base = LIVE.load(Relaxed);
        PEAK.store(base, Relaxed);
        let allocs = ALLOCS.load(Relaxed);
        let world = topology::fat_tree(
            k,
            10_000_000_000,
            1_000,
            &switch_cfg,
            &host_cfg,
            TransportConfig::default(),
        );
        drop(world.run_until_nanos(0));
        let peak = PEAK.load(Relaxed) - base;
        let allocs = ALLOCS.load(Relaxed) - allocs;
        let report = format!(
            "fat_tree({k}) peaked at {:.1} MiB of heap in {allocs} allocations \
             (budget {budget_mib} MiB in {budget_allocs})",
            peak as f64 / MIB as f64
        );
        eprintln!("{report}");
        assert!(peak <= budget_mib * MIB, "{report}");
        assert!(allocs <= budget_allocs, "{report}");
    }
}
