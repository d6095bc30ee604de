//! `memset` checks its bounds before it touches or allocates memory: a
//! program-supplied length of 4 GiB fails with the same `BadAddress` as
//! any out-of-range access, and the largest allocation the run makes
//! stays far below the length (tracked by a wrapping global allocator).

use pgr_bytecode::asm::assemble;
use pgr_vm::{Vm, VmConfig, VmError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

// SAFETY: defers entirely to the system allocator; only the largest
// requested size is noted on the allocation paths.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TRACKING: Tracking = Tracking;

/// `memset(malloc(16), 1, n)`.
fn memset_program(n: u32) -> pgr_bytecode::Program {
    assemble(&format!(
        "proc main frame=0 args=0\n\
         \tLIT1 16\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tARGU\n\
         \tLIT1 1\n\tARGU\n\tLIT4 {n}\n\tARGU\n\tADDRGP 1\n\tCALLU\n\tRETU\n\
         endproc\n\
         native malloc\nnative memset\n\
         entry main\n"
    ))
    .unwrap()
}

#[test]
fn a_huge_memset_faults_without_allocating_its_length() {
    // In range: the heap block is set and its address returned.
    let ok = Vm::new(&memset_program(16), VmConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(ok.ret.u(), 0x40, "malloc's block starts the heap");

    let program = memset_program(u32::MAX);
    let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
    LARGEST.store(0, Ordering::Relaxed);
    let err = vm.run().unwrap_err();
    assert_eq!(
        err,
        VmError::BadAddress {
            addr: 0x40,
            size: u32::MAX
        }
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1 << 20,
        "the run allocated {largest} bytes for a memset that faults"
    );
}
