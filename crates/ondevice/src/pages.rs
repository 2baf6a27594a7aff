//! Paged row-table storage: the one residency model in the workspace.
//!
//! §5.3: "on-device frameworks such as CoreML and TensorFlow-Lite use
//! memory-mapped IO (via mmap) rather than loading the entire embedding
//! table into the memory". [`PagedTable`] models that at page
//! granularity — reads fault pages in lazily, and the **resident set**
//! (the pages an inference actually touched) is the memory footprint
//! Table 3 contrasts between MEmCom's row lookups and Weinberger's
//! whole-kernel matmul. Every table sits on one: an
//! [`EmbeddingTables`](crate::EmbeddingTables) column holds each recipe
//! table — the embedding front end of both the on-device
//! [`crate::InferenceSession`] and `memcom-serve`'s `ShardedStore` — and
//! the session holds one more per head table of the model file.
//!
//! * Rows of a fixed `stride` are packed into fixed-size **pages**, each
//!   its own `Arc<Vec<u8>>` allocation. Pages are row-aligned (a page
//!   holds a whole number of rows), so a row read is always one
//!   contiguous in-page slice.
//! * First touch of a page counts one fault and the page's cold bytes;
//!   the resident set and the cold/total byte split feed the on-device
//!   cost model. [`PagedTable::reset`] evicts everything again.
//! * A read and its byte charge are two calls: [`PagedTable::read_row`]
//!   keeps only the first-touch rule (one load, and a `swap` only on a
//!   page's first touch), and the reader charges the rows it read with
//!   one [`PagedTable::charge`] per call — the embedding read loop once
//!   per column after a whole batch, the other readers after each row or
//!   tile — so a batch pays one atomic add per column, not two per row.
//! * [`PagedTable::prefetch_row`] asks the CPU to start loading a row's
//!   cache lines. A hint is not a read: it marks no page resident and
//!   charges nothing.
//! * [`PagedTable::shared_clone`] is O(pages) pointer copies: the clone
//!   *shares* every page with the original. Writing a row through
//!   [`PagedTable::write_row`] copy-on-writes only the covering page
//!   (`Arc::make_mut`), leaving every untouched page physically shared —
//!   a delta touching 0.1% of rows copies ~0.1% of the bytes. Cloning
//!   carries the residency over (shared pages that were resident still
//!   are — they are the same memory), while the work counters start
//!   from zero for the new snapshot.
//!
//! Readers hold `&PagedTable` and writers `&mut PagedTable`, so Rust's
//! aliasing rules make torn reads impossible by construction: a snapshot
//! being prepared with `write_row` is not yet visible to any reader, and
//! once published (behind an `Arc` swap) it is never written again.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::{simd, OnDeviceError, Result};

/// Default page size (16 KiB — the page size of Apple Silicon / modern
/// Android kernels).
pub const DEFAULT_PAGE_SIZE: usize = 16 * 1024;

/// A fixed-stride row table stored as structurally-shared pages.
#[derive(Debug)]
pub struct PagedTable {
    /// Bytes per row.
    stride: usize,
    /// Total rows.
    rows: usize,
    /// Rows per full page (the last page may hold fewer).
    rows_per_page: usize,
    /// `⌈2⁶⁴ / rows_per_page⌉`, or 0 where that does not fit a `u64` or
    /// `rows_per_page` exceeds `u32::MAX`: see [`page_of`](Self::page_of).
    reciprocal: u64,
    /// The pages; all but the last hold exactly `rows_per_page * stride`
    /// bytes.
    pages: Vec<Arc<Vec<u8>>>,
    /// Lazy-residency flag per page (first touch = fault).
    resident: Vec<AtomicBool>,
    faults: AtomicU64,
    total_read_bytes: AtomicU64,
    cold_read_bytes: AtomicU64,
    /// Bytes physically copied by copy-on-write row writes on *this*
    /// table (pages cloned off a shared `Arc` before mutation).
    cow_copied_bytes: u64,
    /// Pages cloned off a shared `Arc` before mutation (each page counts
    /// once per clone event, so repeated writes to an already-private
    /// page add nothing).
    cow_touched_pages: u64,
}

impl PagedTable {
    /// Packs `data` (contiguous rows of `stride` bytes each) into pages
    /// of at most `page_size` bytes, rounded down to a whole number of
    /// rows (at least one row per page, so a stride larger than
    /// `page_size` still works — each row is then its own page).
    ///
    /// # Panics
    ///
    /// Panics when `stride == 0`, `page_size == 0`, or `data.len()` is
    /// not a multiple of `stride` — all construction-time bugs.
    pub fn from_rows(data: &[u8], stride: usize, page_size: usize) -> Self {
        assert!(stride > 0, "row stride must be positive");
        assert!(page_size > 0, "page size must be positive");
        assert_eq!(data.len() % stride, 0, "data must be whole rows");
        let rows = data.len() / stride;
        let rows_per_page = (page_size / stride).max(1);
        let page_bytes = rows_per_page * stride;
        let pages: Vec<Arc<Vec<u8>>> = data
            .chunks(page_bytes)
            .map(|chunk| Arc::new(chunk.to_vec()))
            .collect();
        let n_pages = pages.len();
        PagedTable {
            stride,
            rows,
            rows_per_page,
            reciprocal: reciprocal(rows_per_page),
            pages,
            resident: (0..n_pages).map(|_| AtomicBool::new(false)).collect(),
            faults: AtomicU64::new(0),
            total_read_bytes: AtomicU64::new(0),
            cold_read_bytes: AtomicU64::new(0),
            cow_copied_bytes: 0,
            cow_touched_pages: 0,
        }
    }

    /// Total stored bytes across all pages.
    pub fn len(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Reads row `r` (one contiguous `stride`-byte slice), faulting the
    /// covering page in on first touch. The read's bytes are not
    /// charged here: the caller charges the rows it read with
    /// [`charge`](Self::charge), once per call.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::OutOfBounds`] for a row past the table's end.
    pub fn read_row(&self, r: usize) -> Result<&[u8]> {
        if r >= self.rows {
            return Err(self.out_of_bounds(r));
        }
        let page = self.page_of(r);
        // First touch of the page counts one fault pulling the whole
        // page from "storage". `swap` makes a racing first touch count
        // exactly once.
        if !self.resident[page].load(Ordering::Relaxed)
            && !self.resident[page].swap(true, Ordering::Relaxed)
        {
            self.faults.fetch_add(1, Ordering::Relaxed);
            self.cold_read_bytes
                .fetch_add(self.pages[page].len() as u64, Ordering::Relaxed);
        }
        Ok(self.row(r))
    }

    /// Adds `rows` row reads to the read bytes: each reader charges
    /// what it read through [`read_row`](Self::read_row) with one call.
    pub fn charge(&self, rows: usize) {
        let bytes = (rows * self.stride) as u64;
        self.total_read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Hints the CPU to load row `r`'s cache lines
    /// ([`simd::prefetch`]) so a read shortly after finds them close. A
    /// hint is not a read: it faults no page, marks nothing resident and
    /// charges nothing. A row past the table's end is ignored.
    pub fn prefetch_row(&self, r: usize) {
        if r < self.rows {
            simd::prefetch(self.row(r));
        }
    }

    /// The bytes of row `r < rows`, touching no counter.
    fn row(&self, r: usize) -> &[u8] {
        let page = self.page_of(r);
        let offset = (r - page * self.rows_per_page) * self.stride;
        &self.pages[page][offset..offset + self.stride]
    }

    /// `r / rows_per_page`, the page holding row `r`. Below 2³² rows it
    /// is a multiply by the reciprocal instead of a division, which a
    /// read and a prefetch would each pay per row: with
    /// `c = ⌈2⁶⁴ / d⌉` and `d ≤ 2³²`, `⌊r / d⌋ = ⌊c·r / 2⁶⁴⌋` for every
    /// `r < 2³²` (Lemire, Kaser and Kurz, "Faster remainder by direct
    /// computation", 2019, Theorem 1).
    fn page_of(&self, r: usize) -> usize {
        match u32::try_from(r) {
            Ok(r) if self.reciprocal > 0 => {
                ((u128::from(self.reciprocal) * u128::from(r)) >> 64) as usize
            }
            _ => r / self.rows_per_page,
        }
    }

    /// A snapshot clone sharing every page with `self` (O(pages) `Arc`
    /// bumps, no byte copies). Residency carries over — a shared page
    /// that is resident in the original is the same physical memory —
    /// while the fault/read-byte counters and the copy-on-write tally
    /// start from zero for the new snapshot.
    pub fn shared_clone(&self) -> Self {
        let resident = self
            .resident
            .iter()
            .map(|r| AtomicBool::new(r.load(Ordering::Relaxed)))
            .collect();
        PagedTable {
            stride: self.stride,
            rows: self.rows,
            rows_per_page: self.rows_per_page,
            reciprocal: self.reciprocal,
            pages: self.pages.iter().map(Arc::clone).collect(),
            resident,
            faults: AtomicU64::new(0),
            total_read_bytes: AtomicU64::new(0),
            cold_read_bytes: AtomicU64::new(0),
            cow_copied_bytes: 0,
            cow_touched_pages: 0,
        }
    }

    /// Overwrites row `r` with `bytes`, copy-on-writing the covering
    /// page: if the page is shared with another table (a prior
    /// snapshot), it is cloned first and only the clone is mutated —
    /// readers of the other table never observe the write. The page
    /// becomes resident (it was just written in memory; no fault is
    /// charged).
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::OutOfBounds`] for a row past the table's end.
    ///
    /// # Panics
    ///
    /// Panics when `bytes` is not one row's stride long — a caller sizing
    /// bug.
    pub fn write_row(&mut self, r: usize, bytes: &[u8]) -> Result<()> {
        assert_eq!(bytes.len(), self.stride, "row write must be stride bytes");
        if r >= self.rows {
            return Err(self.out_of_bounds(r));
        }
        let page = self.page_of(r);
        let offset = (r - page * self.rows_per_page) * self.stride;
        if Arc::get_mut(&mut self.pages[page]).is_none() {
            self.cow_copied_bytes += self.pages[page].len() as u64;
            self.cow_touched_pages += 1;
        }
        Arc::make_mut(&mut self.pages[page])[offset..offset + self.stride].copy_from_slice(bytes);
        self.resident[page].store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Appends `extra` rows, each initialized to `fill` (`stride`
    /// bytes): the growth path for vocabularies that gain entities
    /// between snapshots. The last partial page is copy-on-written and
    /// topped up; whole new pages are fresh allocations. Appended pages
    /// count as resident (they were just materialized in memory).
    ///
    /// # Panics
    ///
    /// Panics when `fill` is not one row's stride long.
    pub fn extend_rows(&mut self, extra: usize, fill: &[u8]) {
        assert_eq!(fill.len(), self.stride, "fill row must be stride bytes");
        let page_bytes = self.rows_per_page * self.stride;
        let mut remaining = extra;
        // Top up the trailing partial page in place (CoW if shared).
        if let Some(last) = self.pages.last_mut() {
            if last.len() < page_bytes && remaining > 0 {
                let fit = ((page_bytes - last.len()) / self.stride).min(remaining);
                if fit > 0 {
                    if Arc::get_mut(last).is_none() {
                        self.cow_copied_bytes += last.len() as u64;
                        self.cow_touched_pages += 1;
                    }
                    let page = Arc::make_mut(last);
                    for _ in 0..fit {
                        page.extend_from_slice(fill);
                    }
                    remaining -= fit;
                    let idx = self.pages.len() - 1;
                    self.resident[idx].store(true, Ordering::Relaxed);
                }
            }
        }
        // Whole new pages for the rest.
        while remaining > 0 {
            let fit = remaining.min(self.rows_per_page);
            let mut page = Vec::with_capacity(fit * self.stride);
            for _ in 0..fit {
                page.extend_from_slice(fill);
            }
            self.pages.push(Arc::new(page));
            self.resident.push(AtomicBool::new(true));
            remaining -= fit;
        }
        self.rows += extra;
    }

    /// The error for a row index past the end. `r` comes from the
    /// caller, so its byte offset saturates instead of overflowing.
    fn out_of_bounds(&self, r: usize) -> OnDeviceError {
        OnDeviceError::OutOfBounds {
            offset: r.saturating_mul(self.stride),
            len: self.stride,
            size: self.rows * self.stride,
        }
    }

    /// Evicts every page and zeroes the fault/read-byte counters (a
    /// fresh process, the state Table 3's averaged runs begin from).
    /// Callers that need the zeroing to be atomic with respect to
    /// in-flight reads quiesce them first.
    pub fn reset(&self) {
        for flag in &self.resident {
            flag.store(false, Ordering::Relaxed);
        }
        self.faults.store(0, Ordering::Relaxed);
        self.total_read_bytes.store(0, Ordering::Relaxed);
        self.cold_read_bytes.store(0, Ordering::Relaxed);
    }

    /// Bytes of pages physically shared (same allocation) between `self`
    /// and `other` — the structural-sharing diagnostic behind "a small
    /// delta copies a small fraction of the store".
    pub fn shared_bytes_with(&self, other: &PagedTable) -> usize {
        self.pages
            .iter()
            .zip(&other.pages)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .map(|(a, _)| a.len())
            .sum()
    }

    /// Bytes physically copied by copy-on-write writes on this table
    /// since construction (or [`shared_clone`](Self::shared_clone)).
    pub fn cow_copied_bytes(&self) -> u64 {
        self.cow_copied_bytes
    }

    /// Pages cloned off a shared allocation by copy-on-write writes
    /// since construction (or [`shared_clone`](Self::shared_clone)) —
    /// the page-granular counterpart of
    /// [`cow_copied_bytes`](Self::cow_copied_bytes).
    pub fn cow_touched_pages(&self) -> u64 {
        self.cow_touched_pages
    }

    /// Number of resident (touched or written) pages.
    pub fn resident_page_count(&self) -> usize {
        let resident = |r: &&AtomicBool| r.load(Ordering::Relaxed);
        self.resident.iter().filter(resident).count()
    }

    /// Bytes of resident pages.
    pub fn resident_bytes(&self) -> usize {
        self.resident
            .iter()
            .zip(&self.pages)
            .filter(|(r, _)| r.load(Ordering::Relaxed))
            .map(|(_, p)| p.len())
            .sum()
    }

    /// Page faults so far (first touches by [`read_row`](Self::read_row)).
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Total bytes of row reads (hot + cold), as their readers charged
    /// them.
    pub fn total_read_bytes(&self) -> u64 {
        self.total_read_bytes.load(Ordering::Relaxed)
    }

    /// Bytes pulled from "storage" by first-touch faults.
    pub fn cold_read_bytes(&self) -> u64 {
        self.cold_read_bytes.load(Ordering::Relaxed)
    }
}

/// [`PagedTable::reciprocal`] of `rows_per_page`.
fn reciprocal(rows_per_page: usize) -> u64 {
    match u32::try_from(rows_per_page) {
        // ⌊(2⁶⁴ − 1) / d⌋ + 1 = ⌈2⁶⁴ / d⌉ for every d ≥ 2.
        Ok(d) if d >= 2 => u64::MAX / u64::from(d) + 1,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: usize, stride: usize, page_size: usize) -> PagedTable {
        let data: Vec<u8> = (0..rows * stride).map(|i| (i % 251) as u8).collect();
        PagedTable::from_rows(&data, stride, page_size)
    }

    #[test]
    fn rows_read_back_exactly() {
        let t = table(10, 3, 7); // 2 rows per page -> 5 pages
        assert_eq!(t.pages.len(), 5);
        assert_eq!(t.rows_per_page, 2);
        assert_eq!(t.len(), 30);
        for r in 0..10 {
            let want: Vec<u8> = (r * 3..(r + 1) * 3).map(|i| (i % 251) as u8).collect();
            assert_eq!(t.read_row(r).unwrap(), want.as_slice(), "row {r}");
        }
        assert!(t.read_row(10).is_err());
        assert!(matches!(
            t.read_row(usize::MAX),
            Err(OnDeviceError::OutOfBounds { size: 30, .. })
        ));
    }

    #[test]
    fn stride_larger_than_page_size_still_works() {
        let t = table(4, 16, 8); // one row per page despite 8-byte pages
        assert_eq!(t.rows_per_page, 1);
        assert_eq!(t.pages.len(), 4);
        assert_eq!(t.read_row(3).unwrap().len(), 16);
    }

    #[test]
    fn residency_and_fault_accounting() {
        let t = table(8, 4, 8); // 2 rows/page, 4 pages
        assert_eq!(t.resident_page_count(), 0);
        t.read_row(0).unwrap();
        t.read_row(1).unwrap(); // same page: warm
        t.charge(2);
        assert_eq!(t.faults(), 1);
        assert_eq!(t.resident_page_count(), 1);
        assert_eq!(t.cold_read_bytes(), 8);
        assert_eq!(t.total_read_bytes(), 8);
        t.read_row(7).unwrap();
        assert_eq!(t.faults(), 2);
        assert_eq!(t.resident_bytes(), 16);
    }

    #[test]
    fn the_page_of_a_row_is_its_quotient() {
        let widths = [1, 2, 3, 7, 64, 240, 241, 4096, 1 << 31, u32::MAX as usize];
        for rows_per_page in widths {
            // No data: only the page arithmetic is exercised.
            let t = PagedTable::from_rows(&[], 1, rows_per_page);
            assert_eq!(t.rows_per_page, rows_per_page);
            let edges = [0, 1, rows_per_page - 1, rows_per_page, rows_per_page + 1];
            let far = [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX];
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            for r in edges.into_iter().chain(far).chain((0..2_000).map(|_| {
                rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (rng >> 32) as usize
            })) {
                assert_eq!(t.page_of(r), r / rows_per_page, "{r} / {rows_per_page}");
            }
        }
    }

    #[test]
    fn a_prefetch_is_not_a_read() {
        let t = table(8, 4, 8);
        for r in [0, 5, 7, 8, usize::MAX] {
            t.prefetch_row(r);
        }
        assert_eq!((t.resident_page_count(), t.faults()), (0, 0));
        assert_eq!((t.cold_read_bytes(), t.total_read_bytes()), (0, 0));
    }

    #[test]
    fn full_scan_then_reset_re_cools_every_page() {
        let t = table(9, 4, 8); // 2 rows/page: four 8-byte pages + one of 4
        t.read_row(8).unwrap();
        assert_eq!(t.resident_bytes(), 4, "the partial last page");
        for r in 0..9 {
            let before = t.resident_page_count();
            t.read_row(r).unwrap();
            assert!(t.resident_page_count() >= before, "monotone");
        }
        assert_eq!((t.faults(), t.resident_page_count()), (5, t.pages.len()));
        // A full scan holds the whole table, and faulted each byte once.
        assert_eq!(t.resident_bytes(), t.len());
        assert_eq!(t.cold_read_bytes(), t.len() as u64);

        t.reset();
        assert_eq!((t.resident_page_count(), t.resident_bytes()), (0, 0));
        assert_eq!((t.faults(), t.total_read_bytes()), (0, 0));
        assert_eq!(t.cold_read_bytes(), 0);
        assert_eq!(t.read_row(0).unwrap(), &[0, 1, 2, 3], "data survives");
        assert_eq!((t.faults(), t.cold_read_bytes()), (1, 8), "re-faults");
    }

    #[test]
    fn shared_clone_shares_pages_and_carries_residency() {
        let t = table(8, 4, 8);
        t.read_row(0).unwrap();
        let clone = t.shared_clone();
        assert_eq!(clone.shared_bytes_with(&t), t.len());
        assert_eq!(clone.resident_page_count(), 1, "residency carried");
        assert_eq!(clone.faults(), 0, "work counters start fresh");
        // A warm read on the clone is warm (no new fault).
        clone.read_row(1).unwrap();
        assert_eq!(clone.faults(), 0);
        assert_eq!(clone.cold_read_bytes(), 0);
    }

    #[test]
    fn write_row_copies_only_the_covering_page() {
        let t = table(8, 4, 8); // 4 pages of 8 bytes
        let mut clone = t.shared_clone();
        clone.write_row(2, &[9, 9, 9, 9]).unwrap();
        assert_eq!(clone.cow_copied_bytes(), 8, "one page copied");
        assert_eq!(clone.shared_bytes_with(&t), 24, "3 of 4 pages shared");
        // The original is untouched.
        assert_eq!(t.read_row(2).unwrap(), &[8, 9, 10, 11]);
        assert_eq!(clone.read_row(2).unwrap(), &[9, 9, 9, 9]);
        // Neighbour row on the same page survived the CoW.
        assert_eq!(clone.read_row(3).unwrap(), t.read_row(3).unwrap());
        // A second write to the already-copied page is in place.
        clone.write_row(3, &[7, 7, 7, 7]).unwrap();
        assert_eq!(clone.cow_copied_bytes(), 8, "no second copy");
        assert!(clone.write_row(8, &[0; 4]).is_err());
        assert!(clone.write_row(usize::MAX, &[0; 4]).is_err());
    }

    #[test]
    fn write_on_unshared_table_copies_nothing() {
        let mut t = table(4, 4, 8);
        t.write_row(0, &[1, 2, 3, 4]).unwrap();
        assert_eq!(t.cow_copied_bytes(), 0);
        assert_eq!(t.read_row(0).unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn extend_rows_grows_through_partial_and_new_pages() {
        let mut t = table(3, 4, 8); // 2 rows/page: pages of 2 + 1 rows
        t.extend_rows(4, &[5; 4]); // tops up page 1, adds 2 pages... (1+2, then rows 4..7)
        assert_eq!(t.rows, 7);
        assert_eq!(t.read_row(2).unwrap(), &[8, 9, 10, 11], "old row intact");
        for r in 3..7 {
            assert_eq!(t.read_row(r).unwrap(), &[5; 4], "row {r}");
        }
        assert_eq!(t.pages.len(), 4);
        // Growth off a shared snapshot copies only the partial last page.
        let base = table(3, 4, 8);
        let mut grown = base.shared_clone();
        grown.extend_rows(1, &[6; 4]);
        assert_eq!(grown.cow_copied_bytes(), 4, "partial page CoW");
        assert_eq!(grown.shared_bytes_with(&base), 8, "full page still shared");
        assert_eq!(base.rows, 3);
        assert_eq!(grown.read_row(3).unwrap(), &[6; 4]);
    }

    #[test]
    fn empty_table_grows_from_nothing() {
        let mut t = PagedTable::from_rows(&[], 4, 8);
        assert!(t.is_empty());
        assert_eq!(t.pages.len(), 0);
        t.extend_rows(3, &[1; 4]);
        assert_eq!(t.rows, 3);
        assert_eq!(t.read_row(2).unwrap(), &[1; 4]);
        assert_eq!(t.resident_bytes(), 12);
    }

    #[test]
    fn concurrent_readers_fault_each_page_once() {
        let t = table(64, 8, 32); // 4 rows/page, 16 pages
        std::thread::scope(|s| {
            for k in 0..8 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..200 {
                        let r = (k * 13 + i * 7) % 64;
                        let bytes = t.read_row(r).expect("in bounds");
                        assert_eq!(bytes[0], ((r * 8) % 251) as u8);
                    }
                    t.charge(200);
                });
            }
        });
        assert_eq!(t.faults() as usize, t.resident_page_count());
        assert!(t.resident_page_count() <= 16);
        assert_eq!(t.total_read_bytes(), 8 * 200 * 8);
    }
}
