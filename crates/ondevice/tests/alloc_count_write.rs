//! Proof that a write into an int8 scalar-block column allocates nothing
//! once its pages are the snapshot's own.
//!
//! A counting global allocator tallies every `alloc`/`realloc` in the
//! process. A snapshot of an int8 MEmCom store first copies every page it
//! will write (copy-on-write allocates the page once); after that, 1 000
//! writes into the multiplier column — half that fit their block's scale,
//! half that re-encode the block around a new one — must allocate
//! nothing: the 68-byte block is read, patched and written back on the
//! stack.
//!
//! This file holds exactly one `#[test]`: the allocator is process-wide,
//! so a sibling test running concurrently would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use memcom_core::{MemCom, MemComConfig};
use memcom_ondevice::{Dtype, EmbeddingTables};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` plus a relaxed counter
// bump; every GlobalAlloc contract obligation is discharged by the
// delegated call.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: ptr/layout/new_size forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: ptr/layout forwarded unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn scalar_block_writes_allocate_nothing_once_their_pages_are_copied() {
    /// Blocks written, each once in range and once past its scale.
    const BLOCKS: usize = 500;
    /// MEmCom's multiplier column: 1-wide and identity-mapped, so int8
    /// stores it as scalar blocks of 64 ids.
    const MULTIPLIERS: usize = 1;
    let vocab = BLOCKS * 64;
    let mut rng = StdRng::seed_from_u64(7);
    let emb = MemCom::new(MemComConfig::new(vocab, 8, 16), &mut rng).unwrap();
    let (built, _) = EmbeddingTables::build(&emb, Dtype::Int8, 1024);
    let mut tables = built.shared_clone();
    let mut scratch = [Vec::new(), Vec::new()];
    let read = |tables: &EmbeddingTables, id: usize| {
        let mut value = [0f32];
        tables.read(MULTIPLIERS, id, &mut value).unwrap();
        value[0]
    };

    // Copy every page of the column onto the snapshot: write each
    // block's first slot back as it reads.
    for block in 0..BLOCKS {
        let id = block * 64;
        let value = read(&tables, id);
        tables
            .write(MULTIPLIERS, id, &[value], &mut scratch)
            .unwrap();
    }
    let touched = tables.cow_touched_pages();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut rescaled = 0;
    for block in 0..BLOCKS {
        let id = block * 64;
        // A value the block's scale already covers: one code changes.
        let fits = tables
            .write(MULTIPLIERS, id + 1, &[0.25], &mut scratch)
            .unwrap();
        assert_eq!(fits.neighbor_drift, 0.0, "block {block} kept its scale");
        // A value far past it: the whole block re-encodes.
        let past = tables
            .write(MULTIPLIERS, id + 2, &[1e4], &mut scratch)
            .unwrap();
        rescaled += usize::from(past.neighbor_drift > 0.0);
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(rescaled, BLOCKS, "every second write re-encoded its block");
    assert_eq!(tables.cow_touched_pages(), touched, "no page copied twice");
    assert_eq!(allocations, 0, "{} scalar-block writes", 2 * BLOCKS);
}
