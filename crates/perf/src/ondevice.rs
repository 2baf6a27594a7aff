//! `ondevice_infer`: one thread, batch-1 `InferenceSession::run` over
//! M16k serialized fp32 — Table 3's setting. No sockets, no queues: a
//! forward or paging change shows here first, a hand-off change must
//! read flat. The paper's footprint figures come from this workload.

use std::time::{Duration, Instant};

use memcom_models::RecModel;
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::{Dtype, HeadScratch, InferenceSession, OnDeviceModel, RunStats};

use crate::fixture::{self, within, Scale, Stream, CHECK_EVERY};
use crate::measure::{closed_loop, median, timed_window, SetupTimes, Summary};
use crate::report::Outcome;
use crate::trace::{Ledger, Traced, Tracer, Untraced};

pub const NAME: &str = "ondevice_infer";

/// Every this-many-th inference starts from evicted pages.
const RESET_EVERY: u64 = 64;
const KEEP: usize = 128;
/// Served logits may sit this far from the training stack's.
const LOGIT_TOLERANCE: f32 = 1e-3;

struct Device {
    session: InferenceSession,
    model: RecModel,
    file_size: usize,
}

impl Device {
    fn setup(scale: &Scale, seed: u64) -> Device {
        let model = fixture::model(scale, seed);
        let bytes =
            OnDeviceModel::serialize(model.embedding(), model.head(), scale.input_len, Dtype::F32)
                .expect("M16k serializes");
        let parsed = OnDeviceModel::parse(bytes).expect("own bytes parse");
        let file_size = parsed.file_size();
        Device {
            session: InferenceSession::new(parsed),
            model,
            file_size,
        }
    }

    fn misses(&mut self, stream: &Stream<usize>, kept: &mut Vec<(u64, Vec<f32>)>) -> u64 {
        let mut misses = 0;
        for (k, logits) in kept.drain(..) {
            let want = self
                .model
                .infer(stream.request(k), 1)
                .expect("reference forward runs");
            if !within(&logits, want.as_slice(), LOGIT_TOLERANCE) {
                misses += 1;
            }
        }
        misses
    }
}

/// Inference `k` of the stream, evicting first when it is a cold one.
fn infer(
    session: &InferenceSession,
    stream: &Stream<usize>,
    k: u64,
) -> Option<(Vec<f32>, RunStats)> {
    if k.is_multiple_of(RESET_EVERY) {
        session.reset();
    }
    session.run(stream.request(k)).ok()
}

pub fn run(scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::new(NAME);
    let window = Duration::from_secs_f64(seconds);
    let (stream, _) = fixture::session_stream(scale, seed);
    let mut setups = SetupTimes::default();
    let mut device = setups.round(scale.setups, || Device::setup(scale, seed), drop);

    let mut k = 0u64;
    let mut kept: Vec<(u64, Vec<f32>)> = Vec::new();
    // Resident bytes at the warmest point of each cycle (the inference
    // before the next eviction), so the figure does not depend on where
    // in a cycle the window happens to end.
    let mut resident: Vec<f64> = Vec::new();
    // The load thread borrows the session alone: the reference model
    // beside it is not `Sync`.
    let session = &device.session;
    let mut op = || {
        let this = k;
        k += 1;
        match infer(session, &stream, this) {
            Some((logits, stats)) => {
                if this % RESET_EVERY == RESET_EVERY - 1 {
                    resident.push(stats.resident_model_bytes as f64);
                }
                if this % CHECK_EVERY == CHECK_EVERY / 2 && kept.len() < KEEP {
                    kept.push((this, logits));
                }
                true
            }
            None => false,
        }
    };
    let mut timed = |dur| -> Summary {
        timed_window(
            dur,
            vec![Box::new(|start| closed_loop(start, dur, &mut op))],
        )
    };
    timed(scale.warmup);
    let closed = timed(window);
    // Warm-up's samples are as valid as the window's: check them all.
    let misses = device.misses(&stream, &mut kept);
    let file_size = device.file_size;
    drop(device);
    drop(setups.round(scale.setups, || Device::setup(scale, seed), drop));

    outcome.end_to_end(
        setups.median_s(),
        &closed,
        &closed,
        median(&mut resident),
        file_size as f64,
    );
    outcome.tally(closed.attempted, closed.failed + misses);
    outcome.notes.push(format!(
        "latency percentiles: closed loop, {} slices of {} samples; 1 in {RESET_EVERY} inferences is cold, so p99 is a cold run",
        closed.slices, closed.samples_per_slice
    ));
    outcome
}

pub fn trace(scale: &Scale, seed: u64, seconds: f64) -> Traced {
    let mut outcome = Outcome::new(NAME);
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let (stream, zipf_ns) = fixture::session_stream(scale, seed);
    let mut device = Device::setup(scale, seed);

    // ---- phase A: untraced -------------------------------------------
    let untraced = Untraced::replay(
        scale.trace_requests,
        Duration::from_secs_f64(seconds * 0.3),
        |_| {},
        |k| {
            if infer(&device.session, &stream, k as u64).is_none() {
                outcome.failed += 1;
            }
        },
    );

    // ---- phase B: traced ---------------------------------------------
    let budget = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let mut head_scratch = HeadScratch::new();
    let mut head_out = Vec::new();
    let mut kept = Vec::new();
    let mut root_ns_of: Vec<f64> = Vec::new();
    while root_ns_of.len() < untraced.call_ns.len()
        && (root_ns_of.is_empty() || Instant::now() < budget)
    {
        let k = root_ns_of.len() as u64;
        let request = k as u32;
        let ids = stream.request(k);
        let (result, root, run_ns) = tracer.span("ondevice.run", None, request, || {
            infer(&device.session, &stream, k)
        });
        root_ns_of.push(run_ns as f64);
        // The head alone, over the activation the run embedded.
        let act = device
            .model
            .embedding()
            .lookup(ids)
            .expect("ids are in vocabulary");
        head_scratch
            .input(ids.len(), scale.dim)
            .copy_from_slice(act.as_slice());
        let mut work = WorkCounts::default();
        let (_, _, head_ns) = tracer.span("ondevice.forward_head", Some(root), request, || {
            device
                .session
                .forward_head(ids.len(), &mut head_scratch, &mut head_out, &mut work)
                .expect("direct head runs")
        });
        let Some((logits, stats)) = result else {
            outcome.failed += 1;
            continue;
        };
        if k.is_multiple_of(RESET_EVERY) {
            ledger.add("ondevice.cold_run_ns", run_ns as f64);
            ledger.add("ondevice.cold_bytes", stats.work.cold_bytes as f64);
        } else {
            let embed_ns = run_ns as f64 - head_ns as f64;
            ledger.add("ondevice.run_ns", run_ns as f64);
            ledger.add("ondevice.forward_head_ns", head_ns as f64);
            ledger.add("ondevice.embed_ns", embed_ns);
            ledger.add("ondevice.warm_bytes", stats.work.warm_bytes as f64);
            ledger.add("trace.residual_share", embed_ns / run_ns as f64);
        }
        ledger.add("ondevice.flops", stats.work.flops as f64);
        if k % CHECK_EVERY == CHECK_EVERY / 2 {
            kept.push((k, logits));
        }
    }
    outcome.attempted = (untraced.call_ns.len() + root_ns_of.len()) as u64;
    outcome.failed += device.misses(&stream, &mut kept);

    untraced.record(&mut ledger, &root_ns_of);
    ledger.set("data.zipf_sample_ns_per_id", zipf_ns);
    outcome.notes.push(format!(
        "traced {} of {} inferences; warm figures exclude the 1-in-{RESET_EVERY} cold runs",
        root_ns_of.len(),
        scale.trace_requests
    ));
    Traced {
        outcome,
        ledger,
        tracer,
        stages: Vec::new(),
    }
}
