//! `refresh_reads`: in-process reads beside a writer. One reader thread
//! calls `RouterHandle::get_batch_into` on sessions of 128 ids while one
//! writer thread applies a 0.1 % `StoreDelta` every 20 ms — writes beside
//! reads on store + LRU + router, so a read-path gain paid for with
//! copy-on-write or invalidation cost shows.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom};
use memcom_serve::{
    Dtype, EmbedBatch, Router, RouterHandle, ShardedStore, StoreDelta, TelemetryConfig,
};

use crate::fixture::{self, within, Scale, CHECK_EVERY};
use crate::measure::{closed_loop, median, timed_window, SetupTimes, Summary};
use crate::report::Outcome;
use crate::trace::{direct_lookup, stage_rows, Ledger, LookupScratch, Traced, Tracer, Untraced};

pub const NAME: &str = "refresh_reads";
const MODEL: &str = "m";
const KEEP: usize = 128;
/// Period of the writer.
const DELTA_PERIOD: Duration = Duration::from_millis(20);
/// The traced pass applies one delta per this many reads.
const TRACE_DELTA_EVERY: usize = 25;

/// The write schedule. Delta `j` rewrites ids `j % stride + m·stride`
/// (a fixed stride, so the Zipf-hot low ids are hit), and a row is a
/// function of `(id, version)`: the original row times a per-version
/// factor. Factors stay in (0, 1] so a rewritten MEmCom multiplier fits
/// its int8 block's scale, and are far enough apart that a served row
/// matches one version only.
struct Schedule {
    stride: usize,
    rows: usize,
}

impl Schedule {
    fn new(scale: &Scale) -> Self {
        Schedule {
            stride: scale.vocab / scale.delta_rows,
            rows: scale.delta_rows,
        }
    }

    /// Version of `id` once deltas `0..applied` are in.
    fn version(&self, id: usize, applied: u64) -> u64 {
        let first = (id % self.stride) as u64;
        if applied > first {
            (applied - 1 - first) / self.stride as u64 + 1
        } else {
            0
        }
    }

    fn factor(version: u64) -> f32 {
        [1.0, 0.75, 0.5, 0.25][(version % 4) as usize]
    }

    fn delta(&self, j: u64, emb: &MemCom) -> StoreDelta {
        let dim = emb.output_dim();
        let first = (j % self.stride as u64) as usize;
        let ids: Vec<usize> = (0..self.rows).map(|m| first + m * self.stride).collect();
        let rows = emb.lookup(&ids).expect("delta ids are in vocabulary");
        let mut delta = StoreDelta::new(dim);
        for (&id, row) in ids.iter().zip(rows.as_slice().chunks_exact(dim)) {
            let factor = Self::factor(self.version(id, j + 1));
            let row: Vec<f32> = row.iter().map(|x| x * factor).collect();
            delta.upsert_row(id, &row).expect("row width matches");
        }
        delta
    }

    /// Whether every served row equals — within `bound` — exactly one of
    /// the versions its id could have had with `lo..=hi` deltas applied.
    fn rows_match(
        &self,
        emb: &MemCom,
        ids: &[usize],
        data: &[f32],
        (lo, hi): (u64, u64),
        bound: f32,
    ) -> bool {
        let dim = emb.output_dim();
        let orig = emb.lookup(ids).expect("ids are in vocabulary");
        ids.iter()
            .zip(orig.as_slice().chunks_exact(dim))
            .zip(data.chunks_exact(dim))
            .all(|((&id, orig), served)| {
                let matches = (self.version(id, lo)..=self.version(id, hi))
                    .filter(|&v| {
                        let want: Vec<f32> = orig.iter().map(|x| x * Self::factor(v)).collect();
                        within(served, &want, bound)
                    })
                    .count();
                matches == 1
            })
    }
}

struct Serving {
    router: Router,
    handle: RouterHandle,
    emb: MemCom,
}

impl Serving {
    fn setup(scale: &Scale, seed: u64, telemetry: TelemetryConfig) -> Serving {
        let emb = fixture::embedding(scale, seed);
        let router = Router::start(fixture::serve_config(telemetry)).expect("router starts");
        router
            .register_with_dtype(MODEL, &emb, Dtype::Int8)
            .expect("model registers");
        let handle = router.handle(MODEL).expect("model is registered");
        Serving {
            router,
            handle,
            emb,
        }
    }

    fn snapshot(&self) -> std::sync::Arc<ShardedStore> {
        self.router.snapshot(MODEL).expect("model is registered")
    }

    fn check_counters(&self, outcome: &mut Outcome) {
        let stats = self.router.stats(MODEL).expect("model is registered");
        outcome.check_serve_counters(MODEL, &stats);
    }
}

/// A sampled read: request index, the delta counts that bracket the
/// snapshot it was served from, and the served rows.
type Kept = (u64, (u64, u64), Vec<f32>);

pub fn run(scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::new(NAME);
    let window = Duration::from_secs_f64(seconds);
    let schedule = Schedule::new(scale);
    let (stream, _) = fixture::session_stream(scale, seed);
    let mut setups = SetupTimes::default();
    let setup = || Serving::setup(scale, seed, TelemetryConfig::off());
    let serving = setups.round(scale.setups, setup, drop);

    // `started` counts deltas the writer has begun, `applied` those it
    // has finished: a read that saw `applied = lo` before its call and
    // `started = hi` after it was served from a snapshot in `lo..=hi`.
    let started = AtomicU64::new(0);
    let applied = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut kept: Vec<Kept> = Vec::new();

    let (closed, applies, window_start) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let begun = Instant::now();
            let mut applies: Vec<(Instant, f64)> = Vec::new();
            let mut j = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let delta = schedule.delta(j, &serving.emb);
                started.store(j + 1, Ordering::SeqCst);
                let t0 = Instant::now();
                serving
                    .router
                    .apply_delta(MODEL, &delta)
                    .expect("delta applies");
                let t1 = Instant::now();
                applied.store(j + 1, Ordering::SeqCst);
                applies.push((t1, (t1 - t0).as_nanos() as f64 / 1e3));
                j += 1;
                let due = begun + DELTA_PERIOD * j as u32;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
            }
            applies
        });

        let mut batch = EmbedBatch::new();
        let mut k = 0u64;
        let mut op = || {
            let this = k;
            k += 1;
            let lo = applied.load(Ordering::SeqCst);
            let ok = serving
                .handle
                .get_batch_into(stream.request(this), &mut batch)
                .is_ok();
            let hi = started.load(Ordering::SeqCst);
            if ok && this.is_multiple_of(CHECK_EVERY) && kept.len() < KEEP {
                kept.push((this, (lo, hi), batch.data().to_vec()));
            }
            ok
        };
        let mut timed = |dur| -> Summary {
            timed_window(
                dur,
                vec![Box::new(|start| closed_loop(start, dur, &mut op))],
            )
        };
        timed(scale.warmup);
        let window_start = Instant::now();
        let closed = timed(window);
        stop.store(true, Ordering::SeqCst);
        let applies = writer.join().expect("writer does not panic");
        (closed, applies, window_start)
    });

    let store = serving.snapshot();
    let misses = kept
        .iter()
        .filter(|(k, versions, data)| {
            !schedule.rows_match(
                &serving.emb,
                stream.request(*k),
                data,
                *versions,
                store.error_bound(),
            )
        })
        .count() as u64;
    let mut apply_us: Vec<f64> = applies
        .iter()
        .filter(|(end, _)| *end >= window_start && *end < window_start + window)
        .map(|(_, us)| *us)
        .collect();

    let resident_bytes = store.run_stats().resident_model_bytes as f64;
    let model_bytes = store.stored_bytes() as f64;
    serving.check_counters(&mut outcome);
    drop((store, serving));
    drop(setups.round(scale.setups, setup, drop));

    outcome.end_to_end(
        setups.median_s(),
        &closed,
        &closed,
        resident_bytes,
        model_bytes,
    );
    outcome.push("delta_apply_p50_us", median(&mut apply_us), "us");
    outcome.tally(closed.attempted, closed.failed + misses);
    outcome.notes.push(format!(
        "latency percentiles: closed loop, {} slices of {} samples; {} deltas applied in the window",
        closed.slices,
        closed.samples_per_slice,
        apply_us.len()
    ));
    outcome
}

pub fn trace(scale: &Scale, seed: u64, seconds: f64) -> Traced {
    let mut outcome = Outcome::new(NAME);
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let schedule = Schedule::new(scale);
    let (stream, zipf_ns) = fixture::session_stream(scale, seed);
    let mut batch = EmbedBatch::new();

    // ---- phase A: untraced -------------------------------------------
    let serving = Serving::setup(scale, seed, TelemetryConfig::off());
    let untraced = Untraced::replay(
        scale.trace_requests,
        Duration::from_secs_f64(seconds * 0.3),
        |k| {
            if k.is_multiple_of(TRACE_DELTA_EVERY) {
                let delta = schedule.delta((k / TRACE_DELTA_EVERY) as u64, &serving.emb);
                serving
                    .router
                    .apply_delta(MODEL, &delta)
                    .expect("delta applies");
            }
        },
        |k| {
            let ids = stream.request(k as u64);
            if serving.handle.get_batch_into(ids, &mut batch).is_err() {
                outcome.failed += 1;
            }
        },
    );
    serving.check_counters(&mut outcome);
    drop(serving);

    // ---- phase B: traced ---------------------------------------------
    let serving = Serving::setup(scale, seed, TelemetryConfig::full(1.0));
    // Fed the same reads and deltas as the served store, so its pages
    // and LRU track the served one.
    let mut twin = fixture::twin_store(&serving.emb, Dtype::Int8);
    let mut lookup_scratch = LookupScratch::new(&twin, scale.input_len);
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut deltas = 0u64;
    let budget = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let mut root_ns_of: Vec<f64> = Vec::new();
    while root_ns_of.len() < untraced.call_ns.len()
        && (root_ns_of.is_empty() || Instant::now() < budget)
    {
        let traced = root_ns_of.len();
        let request = traced as u32;
        if traced.is_multiple_of(TRACE_DELTA_EVERY) {
            let delta = schedule.delta(deltas, &serving.emb);
            let (_, apply, apply_ns) = tracer.span("serve.delta_apply", None, request, || {
                serving
                    .router
                    .apply_delta(MODEL, &delta)
                    .expect("delta applies");
            });
            let (next, _, direct_ns) =
                tracer.span("serve.delta_apply_direct", Some(apply), request, || {
                    twin.apply_delta(&delta).expect("direct delta applies")
                });
            let cache = twin.cache_stats();
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            twin = next;
            deltas += 1;
            ledger.add("serve.delta_apply_ns", apply_ns as f64);
            ledger.add("serve.delta_apply_direct_ns", direct_ns as f64);
        }
        let ids = stream.request(traced as u64);
        let (ok, root, call_ns) = tracer.span("serve.handle_call", None, request, || {
            serving.handle.get_batch_into(ids, &mut batch).is_ok()
        });
        let lookup_ns = direct_lookup(
            &mut tracer,
            &mut ledger,
            &twin,
            ids,
            &mut lookup_scratch,
            (root, request),
        );
        let overhead = call_ns as f64 - lookup_ns as f64;
        root_ns_of.push(call_ns as f64);
        ledger.add("serve.handle_call_ns", call_ns as f64);
        ledger.add("serve.router_overhead_ns", overhead);
        ledger.add("trace.residual_share", overhead / call_ns as f64);
        // Single-threaded, so the version of every served row is known.
        let versions = (deltas, deltas);
        let bound = serving.snapshot().error_bound();
        if !ok
            || (traced as u64).is_multiple_of(CHECK_EVERY)
                && !schedule.rows_match(&serving.emb, ids, batch.data(), versions, bound)
        {
            outcome.failed += 1;
        }
    }
    outcome.attempted = (untraced.call_ns.len() + root_ns_of.len()) as u64;
    let cache = twin.cache_stats();
    hits += cache.hits;
    lookups += cache.hits + cache.misses;

    let stats = serving.router.stats(MODEL).expect("model is registered");
    let metrics = serving.router.metrics();
    let control = metrics
        .models
        .iter()
        .find(|m| m.name == MODEL)
        .expect("model is registered");
    let per_apply = |total: u64| total as f64 / control.delta_applies.max(1) as f64;
    let stages = stage_rows(&metrics.stages, None);

    untraced.record(&mut ledger, &root_ns_of);
    ledger.set("serve.cache_hit_rate", hits as f64 / lookups.max(1) as f64);
    ledger.set_serve_stats(&stats);
    ledger.set("serve.delta_cow_bytes", per_apply(control.delta_cow_bytes));
    ledger.set(
        "serve.delta_pages_touched",
        per_apply(control.delta_pages_touched),
    );
    ledger.set(
        "serve.lru_invalidations",
        per_apply(control.lru_invalidations),
    );
    ledger.set("data.zipf_sample_ns_per_id", zipf_ns);
    outcome.notes.push(format!(
        "traced {} of {} reads with {deltas} deltas interleaved; delta counters are per apply",
        root_ns_of.len(),
        scale.trace_requests
    ));
    serving.check_counters(&mut outcome);
    Traced {
        outcome,
        ledger,
        tracer,
        stages,
    }
}
