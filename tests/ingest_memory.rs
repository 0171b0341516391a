//! Deterministic memory gates for set-up: the peak live heap bytes of
//! `io::parse_relationships` and of `PairUniverse::new`.
//!
//! A counting global allocator tallies the bytes each thread holds, so a
//! measurement sees only the allocations of the thread that runs it, and
//! the same input gives the same peak on every run. The parse keeps one
//! `u64` key per edge and frees the text before the CSR fill; a pair
//! universe stores each tier pool once. A bound that fails means set-up
//! has grown a copy those designs removed.
//!
//! The tier-1 test runs on a graph small enough for a debug build; the
//! 100k-AS variant is `#[ignore]`d:
//!
//! ```text
//! cargo test --release --test ingest_memory -- --ignored --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bgp_juice::prelude::*;
use bgp_juice::sim::stats::PairUniverse;
use bgp_juice::topology::io;

/// Forwards to the system allocator, counting each thread's live bytes
/// and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    // Memory freed on another thread than the one that took it would
    // wrap; saturate instead (no measurement here frees across threads).
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        shrank(layout.size());
    }

    /// Counted as a move: the old and the new block are both live for an
    /// instant, whether or not the system allocator grows in place.
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result with the peak bytes this thread held
/// above what it held when `f` started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// Measure the parse of `net`'s serial-1 text and an all × all pair
/// universe over it, check both against their bounds (bytes), and print
/// the figures.
fn gate(net: &Internet, parse_bound: usize, universe_bound: usize) {
    let text = io::write_relationships(&net.graph);
    let (graph, parse_peak) = peak_heap(|| io::parse_relationships(text.as_bytes()));
    let graph = graph.expect("the written text parses");
    assert_eq!(graph.len(), net.len(), "round trip dropped ASes");
    let all: Vec<AsId> = net.graph.ases().collect();
    let (universe, universe_peak) = peak_heap(|| PairUniverse::new(net, &all, &all));
    assert_eq!(universe.population(), (all.len() * (all.len() - 1)) as u64);
    println!(
        "{} ASes, {} text bytes: parse peak {parse_peak} B (bound {parse_bound}), \
         pair universe peak {universe_peak} B (bound {universe_bound})",
        net.len(),
        text.len()
    );
    assert!(
        parse_peak <= parse_bound,
        "parse peak {parse_peak} B is past its bound {parse_bound} B"
    );
    assert!(
        universe_peak <= universe_bound,
        "pair universe peak {universe_peak} B is past its bound {universe_bound} B"
    );
}

// Each bound is the measured peak plus 3%: the peaks are exact for a
// given toolchain, and the slack absorbs changes in std's own allocation
// policy.

/// 3,000 ASes: the parse peaks at 317,444 B and the universe at 49,096 B.
#[test]
fn setup_peaks_stay_within_their_bounds() {
    gate(&Internet::synthetic(3_000, 11), 327_000, 50_600);
}

/// 100,000 ASes: the parse peaks at 11,750,714 B and the universe at
/// 1,610,032 B.
#[test]
#[ignore = "100k-AS memory gate; run in release with --ignored"]
fn setup_peaks_stay_within_their_bounds_at_100k() {
    gate(&Internet::synthetic(100_000, 42), 12_100_000, 1_658_000);
}
