//! A reused `Compressor` keeps nothing of the programs it compressed:
//! after one warm-up compress, fifty more distinct programs leave its
//! live heap where it was (tracked by a counting global allocator).

use pgr_core::{train, TrainConfig};
use pgr_corpus::synth::{generate, Flavor, SynthConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every method forwards its arguments, and with them its
// caller's guarantees, to the system allocator unchanged; only the count
// of live bytes is adjusted on the way.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        moved
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn compressing_leaves_no_state_behind() {
    let synth = |seed: u64, flavor: Flavor| {
        generate(&SynthConfig {
            seed,
            functions: 4,
            flavor,
        })
    };
    let training = synth(1, Flavor::Compiler);
    let trained = train(&[&training], &TrainConfig::default()).unwrap();
    let inputs: Vec<_> = (0..50u64)
        .map(|i| {
            let flavor = if i % 2 == 0 {
                Flavor::Compiler
            } else {
                Flavor::Numeric
            };
            synth(100 + i, flavor)
        })
        .collect();

    let engine = trained.compressor();
    drop(engine.compress(&training).unwrap());
    let before = LIVE.load(Ordering::SeqCst);
    for program in &inputs {
        drop(engine.compress(program).unwrap());
    }
    let grown = LIVE.load(Ordering::SeqCst) - before;
    assert!(
        grown.abs() <= 4096,
        "50 compresses moved the live heap by {grown} bytes"
    );
}
