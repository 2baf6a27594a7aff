//! The three loopback workloads: `wire_point`, `wire_bulk_int8`,
//! `wire_score`. Same path — `NetClient` → `NetServer` → `Router` →
//! store/backend — loaded by frames, by bytes, and by compute.

use std::sync::Arc;
use std::time::{Duration, Instant};

use memcom_core::{EmbeddingCompressor, MemCom};
use memcom_models::RecModel;
use memcom_net::wire::{
    decode_payload, encode_lookup, encode_rows, encode_score, LookupRequest, ScoreRequest,
};
use memcom_net::{NetClient, NetClientConfig, NetServer, NetServerConfig};
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::HeadScratch;
use memcom_serve::{
    Dtype, EmbedBatch, InferBackend, InferScratch, RankNetBackend, Router, ScoreBatch,
    ShardedStore, TelemetryConfig,
};

use crate::fixture::{self, within, Scale, Stream, CHECK_EVERY, CLIENTS};
use crate::measure::{closed_loop, median, paced_loop, timed_window, Load, SetupTimes, Summary};
use crate::report::Outcome;
use crate::trace::{direct_lookup, stage_rows, Ledger, LookupScratch, Traced, Tracer, Untraced};

const MODEL: &str = "m";
const BACKEND: &str = "ranknet";

/// Sampled replies kept per connection and window for the reference
/// check (a bulk reply is 256 KB).
const KEEP: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Point,
    Bulk,
    Score,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "wire_point",
            Kind::Bulk => "wire_bulk_int8",
            Kind::Score => "wire_score",
        }
    }

    fn ids_per_request(self, scale: &Scale) -> usize {
        match self {
            Kind::Point => 4,
            Kind::Bulk => scale.bulk_ids,
            Kind::Score => scale.input_len,
        }
    }

    /// Popularity skew: point lookups are head-heavy, candidate fetches
    /// follow google_local's flat popularity, sessions sit between.
    fn zipf(self) -> f64 {
        match self {
            Kind::Point => 1.1,
            Kind::Bulk => 0.6,
            Kind::Score => 1.05,
        }
    }

    fn dtype(self) -> Dtype {
        match self {
            Kind::Point => Dtype::F32,
            Kind::Bulk | Kind::Score => Dtype::Int8,
        }
    }

    /// Paced-window rate over both connections: the round number nearest
    /// 40 % of the closed-loop median when the benchmark was calibrated
    /// (`results/BENCH_11.json`), capped where the process would use more
    /// than a fifth of its one CPU — above that, time the hypervisor takes
    /// from the guest turns into backlog and the median latency measures
    /// the neighbours. Frozen: a later PR's latency is only comparable at
    /// the same offered load.
    pub fn paced_rps(self) -> f64 {
        match self {
            Kind::Point => 4500.0,
            Kind::Bulk => 300.0,
            Kind::Score => 500.0,
        }
    }

    /// One seeded stream per connection, and the sampler's cost per id.
    fn streams(self, scale: &Scale, seed: u64) -> (Vec<Arc<Stream<u64>>>, f64) {
        let mut zipf_ns = 0.0;
        let streams = (0..CLIENTS)
            .map(|client| {
                let (stream, ns_per_id) = Stream::zipf(
                    scale,
                    self.zipf(),
                    self.ids_per_request(scale),
                    fixture::stream_seed(seed, client),
                );
                zipf_ns = ns_per_id;
                Arc::new(stream)
            })
            .collect();
        (streams, zipf_ns)
    }
}

/// What the served model is checked against.
enum Model {
    Table(Box<MemCom>),
    Ranker(RecModel, Arc<RankNetBackend>),
}

impl Model {
    fn build(kind: Kind, scale: &Scale, seed: u64) -> Model {
        if kind == Kind::Score {
            let rec = fixture::model(scale, seed);
            let backend = RankNetBackend::from_model(&rec).expect("M16k head serializes");
            Model::Ranker(rec, Arc::new(backend))
        } else {
            Model::Table(Box::new(fixture::embedding(scale, seed)))
        }
    }

    fn embedding(&self) -> &dyn EmbeddingCompressor {
        match self {
            Model::Table(emb) => emb.as_ref(),
            Model::Ranker(rec, _) => rec.embedding(),
        }
    }

    fn register(&self, router: &Router, dtype: Dtype) {
        match self {
            Model::Table(emb) => router
                .register_with_dtype(MODEL, emb.as_ref(), dtype)
                .expect("model registers"),
            Model::Ranker(rec, backend) => {
                let backend: Arc<dyn InferBackend> = backend.clone();
                router
                    .backends()
                    .register(BACKEND, backend)
                    .expect("backend registers");
                router
                    .register_with_backend(MODEL, rec.embedding(), dtype, BACKEND)
                    .expect("model registers");
            }
        }
    }

    /// The reference output for `ids` and how far a served reply may sit
    /// from it: 0 for fp32 rows (bit-equal), the store's certified bound
    /// for int8 rows, the backend's score bound for scores.
    fn reference(&self, store: &ShardedStore, ids: &[usize]) -> (Vec<f32>, f32) {
        match self {
            Model::Table(emb) => {
                let rows = emb.lookup(ids).expect("ids are in vocabulary");
                (rows.as_slice().to_vec(), store.error_bound())
            }
            Model::Ranker(_, backend) => {
                let (logits, _) = backend.session().run(ids).expect("reference forward runs");
                (logits, backend.score_error_bound(store))
            }
        }
    }
}

/// One connection and its request stream.
struct Driver {
    client: NetClient,
    stream: Arc<Stream<u64>>,
    score: bool,
    reply_len: usize,
    /// Requests issued so far (the stream position).
    k: u64,
    /// Replies kept for the reference check: `(request index, data)`.
    kept: Vec<(u64, Vec<f32>)>,
}

impl Driver {
    fn call(&mut self) -> bool {
        let ids = self.stream.request(self.k);
        let k = self.k;
        self.k += 1;
        let reply = if self.score {
            self.client.score(MODEL, ids)
        } else {
            self.client.lookup(MODEL, ids)
        };
        match reply {
            Ok(rows) if rows.data.len() == self.reply_len => {
                if k.is_multiple_of(CHECK_EVERY) && self.kept.len() < KEEP {
                    self.kept.push((k, rows.data));
                }
                true
            }
            _ => false,
        }
    }
}

struct System {
    server: NetServer,
    drivers: Vec<Driver>,
    model: Model,
}

impl System {
    /// Everything `setup_s` covers: build the model and its store, start
    /// router and server, connect.
    fn setup(
        kind: Kind,
        scale: &Scale,
        seed: u64,
        streams: &[Arc<Stream<u64>>],
        telemetry: TelemetryConfig,
    ) -> System {
        let model = Model::build(kind, scale, seed);
        let router =
            Router::start(fixture::serve_config(telemetry.clone())).expect("router starts");
        model.register(&router, kind.dtype());
        let server = NetServer::start(
            router,
            NetServerConfig {
                telemetry,
                ..NetServerConfig::default()
            },
        )
        .expect("server binds loopback");
        let reply_len = match kind {
            Kind::Score => scale.classes,
            _ => kind.ids_per_request(scale) * scale.dim,
        };
        let drivers = streams
            .iter()
            .map(|stream| Driver {
                client: NetClient::connect(server.local_addr(), NetClientConfig::default())
                    .expect("client connects"),
                stream: Arc::clone(stream),
                score: kind == Kind::Score,
                reply_len,
                k: 0,
                kept: Vec::new(),
            })
            .collect();
        System {
            server,
            drivers,
            model,
        }
    }

    fn store(&self) -> Arc<ShardedStore> {
        self.server
            .router()
            .snapshot(MODEL)
            .expect("model is registered")
    }

    /// One timed window over every connection; `tick` selects the paced
    /// schedule.
    fn window(&mut self, dur: Duration, tick: Option<Duration>) -> Summary {
        let loads = self
            .drivers
            .iter_mut()
            .enumerate()
            .map(|(c, driver)| -> Load<'_> {
                match tick {
                    None => Box::new(move |start| closed_loop(start, dur, || driver.call())),
                    Some(tick) => Box::new(move |start| {
                        paced_loop(start, dur, tick, c, CLIENTS, || driver.call())
                    }),
                }
            })
            .collect();
        timed_window(dur, loads)
    }

    /// Checks and drops the kept replies; returns how many missed.
    fn check_kept(&mut self) -> u64 {
        let store = self.store();
        let mut misses = 0;
        for driver in &mut self.drivers {
            for (k, data) in driver.kept.drain(..) {
                let ids: Vec<usize> = driver
                    .stream
                    .request(k)
                    .iter()
                    .map(|&id| id as usize)
                    .collect();
                let (want, bound) = self.model.reference(&store, &ids);
                if !within(&data, &want, bound) {
                    misses += 1;
                }
            }
        }
        misses
    }

    /// Closes the connections, drains the server, and checks that both
    /// tiers' counters agree with what the clients sent.
    fn teardown(self, outcome: &mut Outcome) {
        let sent: u64 = self.drivers.iter().map(|d| d.k).sum();
        for driver in self.drivers {
            driver.client.close();
        }
        let (models, net) = self.server.shutdown();
        let totals = net.totals();
        if totals.frames_in != sent || totals.frames_out != sent || totals.protocol_errors != 0 {
            outcome.violate(format!(
                "net counters: sent {sent}, frames_in {}, frames_out {}, protocol_errors {}",
                totals.frames_in, totals.frames_out, totals.protocol_errors
            ));
        }
        for (name, stats) in models {
            outcome.check_serve_counters(&name, &stats);
        }
    }
}

fn tick_of(kind: Kind) -> Duration {
    Duration::from_secs_f64(1.0 / kind.paced_rps())
}

/// The end-to-end run: set-up, warm-up, a closed-loop window, a paced
/// window (each half of `seconds`).
pub fn run(kind: Kind, scale: &Scale, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::new(kind.name());
    let window = Duration::from_secs_f64(seconds / 2.0);
    let (streams, _) = kind.streams(scale, seed);
    let mut setups = SetupTimes::default();
    let setup = || System::setup(kind, scale, seed, &streams, TelemetryConfig::off());
    let drop_early = |early: System| early.teardown(&mut Outcome::new(kind.name()));
    let mut system = setups.round(scale.setups, setup, drop_early);
    system.window(scale.warmup, None);
    for driver in &mut system.drivers {
        driver.kept.clear();
    }

    let closed = system.window(window, None);
    let mut misses = system.check_kept();
    let paced = system.window(window, Some(tick_of(kind)));
    misses += system.check_kept();

    let store = system.store();
    let resident_bytes = store.run_stats().resident_model_bytes as f64;
    let model_bytes = store.stored_bytes() as f64;
    drop(store);
    system.teardown(&mut outcome);
    drop_early(setups.round(scale.setups, setup, drop_early));

    outcome.end_to_end(
        setups.median_s(),
        &closed,
        &paced,
        resident_bytes,
        model_bytes,
    );
    outcome.push("closed_latency_p50_us", closed.p50_us, "us");
    outcome.push("closed_latency_p95_us", closed.p95_us, "us");
    outcome.push("loadgen.late_p99_us", paced.late_p99_us, "us");
    outcome.tally(
        closed.attempted + paced.attempted,
        closed.failed + paced.failed + misses,
    );
    outcome.notes.push(format!(
        "latency percentiles: paced at {} rps, {} slices of {} samples; closed loop {} samples per slice",
        kind.paced_rps(),
        paced.slices,
        paced.samples_per_slice,
        closed.samples_per_slice
    ));
    if paced.late_p99_us > tick_of(kind).as_secs_f64() * 1e6 {
        outcome.notes.push(format!(
            "VOID latency_*: generator ran {} us late at p99, more than one tick",
            paced.late_p99_us
        ));
    }
    outcome
}

/// The wire frame's payload: everything after the `u32` length prefix.
fn payload(frame: &[u8]) -> &[u8] {
    &frame[4..]
}

/// The traced pass. Phase A replays the stream's first requests over one
/// connection with nothing recorded but the call time (the untraced
/// baseline, and where allocations are counted); phase B replays them
/// against a system with full telemetry, recording the client-observed
/// call as the root span and then each layer's public function, called
/// directly on the same ids, as its children.
pub fn trace(kind: Kind, scale: &Scale, seed: u64, seconds: f64) -> Traced {
    let mut outcome = Outcome::new(kind.name());
    let mut ledger = Ledger::default();
    let mut tracer = Tracer::new();
    let score = kind == Kind::Score;
    let (streams, zipf_ns) = kind.streams(scale, seed);

    // ---- phase A: untraced -------------------------------------------
    let mut system = System::setup(kind, scale, seed, &streams, TelemetryConfig::off());
    let untraced = Untraced::replay(
        scale.trace_requests,
        Duration::from_secs_f64(seconds * 0.3),
        |_| {},
        |_| {
            if !system.drivers[0].call() {
                outcome.failed += 1;
            }
        },
    );
    let paced_for = Duration::from_secs_f64((seconds / 8.0).min(1.5));
    let paced = system.window(paced_for, Some(tick_of(kind)));
    outcome.attempted += untraced.call_ns.len() as u64 + paced.attempted;
    outcome.failed += paced.failed + system.check_kept();
    system.teardown(&mut outcome);

    // ---- phase B: traced ---------------------------------------------
    let telemetry = TelemetryConfig::full(1.0);
    let mut system = System::setup(kind, scale, seed, &streams, telemetry);
    // The in-process router and the twin stores see the same id stream
    // as the served store, once per request each, so their LRU state
    // tracks the served one.
    let inproc = Router::start(fixture::serve_config(TelemetryConfig::off()))
        .expect("in-process router starts");
    system.model.register(&inproc, kind.dtype());
    let handle = inproc.handle(MODEL).expect("model is registered");
    let twin = fixture::twin_store(system.model.embedding(), kind.dtype());
    let score_twin = score.then(|| fixture::twin_store(system.model.embedding(), kind.dtype()));
    let mut embed_batch = EmbedBatch::new();
    let mut score_batch = ScoreBatch::new();
    let mut infer_scratch = InferScratch::new();
    let mut head_scratch = HeadScratch::new();
    let mut frame = Vec::new();
    let mut reply = Vec::new();
    let mut lookup_scratch = LookupScratch::new(&twin, kind.ids_per_request(scale));
    let mut scores = vec![0f32; scale.classes];
    let mut head_out = Vec::new();

    let budget = Instant::now() + Duration::from_secs_f64(seconds * 0.5);
    let mut root_ns_of: Vec<f64> = Vec::new();
    while root_ns_of.len() < untraced.call_ns.len()
        && (root_ns_of.is_empty() || Instant::now() < budget)
    {
        let request = root_ns_of.len() as u32;
        let k = system.drivers[0].k;
        let wire_ids: Vec<u64> = system.drivers[0].stream.request(k).to_vec();
        let ids: Vec<usize> = wire_ids.iter().map(|&id| id as usize).collect();

        let (ok, root, root_ns) =
            tracer.span("client.call", None, request, || system.drivers[0].call());
        if !ok {
            outcome.failed += 1;
        }

        // net: the request codec.
        frame.clear();
        let (_, _, enc_req) = if score {
            let req = ScoreRequest {
                request_id: k,
                model: MODEL.to_string(),
                ids: wire_ids,
                dtype_hint: None,
                deadline: None,
            };
            tracer.span("net.encode_request", Some(root), request, || {
                encode_score(&req, &mut frame).expect("request encodes")
            })
        } else {
            let req = LookupRequest {
                request_id: k,
                model: MODEL.to_string(),
                ids: wire_ids,
                dtype_hint: None,
                deadline: None,
            };
            tracer.span("net.encode_request", Some(root), request, || {
                encode_lookup(&req, &mut frame).expect("request encodes")
            })
        };
        let (_, _, dec_req) = tracer.span("net.decode_request", Some(root), request, || {
            std::hint::black_box(decode_payload(payload(&frame)).expect("request decodes"));
        });

        // serve: the in-process call, then the direct execute under it.
        let (_, call, call_ns) = tracer.span("serve.handle_call", Some(root), request, || {
            if score {
                handle.score_batch_into(&ids, &mut score_batch)
            } else {
                handle.get_batch_into(&ids, &mut embed_batch)
            }
            .expect("in-process call serves")
        });
        let mut execute_ns = 0;
        let mut lookup_parent = call;
        if let Some(score_twin) = &score_twin {
            let backend = match &system.model {
                Model::Ranker(_, backend) => backend,
                Model::Table(_) => unreachable!("score workloads build a ranker"),
            };
            let (_, exec, backend_ns) =
                tracer.span("serve.backend_score", Some(call), request, || {
                    backend
                        .score_into(score_twin, &ids, &mut infer_scratch, &mut scores)
                        .expect("direct score runs")
                });
            execute_ns = backend_ns;
            lookup_parent = exec;
            // The head alone, over an activation of the same shape.
            let act = system
                .model
                .embedding()
                .lookup(&ids)
                .expect("ids are in vocabulary");
            head_scratch
                .input(ids.len(), scale.dim)
                .copy_from_slice(act.as_slice());
            let mut work = WorkCounts::default();
            let (_, _, head_ns) = tracer.span("ondevice.forward_head", Some(exec), request, || {
                backend
                    .session()
                    .forward_head(ids.len(), &mut head_scratch, &mut head_out, &mut work)
                    .expect("direct head runs")
            });
            ledger.add("serve.backend_score_ns", backend_ns as f64);
            ledger.add("ondevice.forward_head_ns", head_ns as f64);
            ledger.add("serve.gather_ns", backend_ns as f64 - head_ns as f64);
            ledger.add("ondevice.flops", work.flops as f64);
        }
        let lookup_ns = direct_lookup(
            &mut tracer,
            &mut ledger,
            &twin,
            &ids,
            &mut lookup_scratch,
            (lookup_parent, request),
        );
        if !score {
            execute_ns = lookup_ns;
        }

        // net: the response codec, over the reply the call produced.
        let data = if score {
            score_batch.scores()
        } else {
            embed_batch.data()
        };
        let reply_dim = if score { data.len() } else { scale.dim } as u32;
        reply.clear();
        let (_, _, enc_resp) = tracer.span("net.encode_response", Some(root), request, || {
            encode_rows(k, reply_dim, data, &mut reply).expect("reply encodes")
        });
        let (_, _, dec_resp) = tracer.span("net.decode_response", Some(root), request, || {
            std::hint::black_box(decode_payload(payload(&reply)).expect("reply decodes"));
        });

        let codec = enc_req + dec_req + enc_resp + dec_resp;
        let residual = root_ns as f64 - call_ns as f64 - codec as f64;
        root_ns_of.push(root_ns as f64);
        ledger.add("net.encode_request_ns", enc_req as f64);
        ledger.add("net.decode_request_ns", dec_req as f64);
        ledger.add("net.encode_response_ns", enc_resp as f64);
        ledger.add("net.decode_response_ns", dec_resp as f64);
        ledger.add("net.request_bytes", frame.len() as f64);
        ledger.add("net.response_bytes", reply.len() as f64);
        ledger.add("serve.handle_call_ns", call_ns as f64);
        ledger.add(
            "serve.router_overhead_ns",
            call_ns as f64 - execute_ns as f64,
        );
        ledger.add("net.transport_residual_ns", residual);
        ledger.add("trace.residual_share", residual / root_ns as f64);
        // The ledger's identity, per request: the root's self time is
        // the residual (clamped at 0 when the replayed layers cost more
        // than they did inside the call).
        if tracer.self_ns(root) != residual.max(0.0) as u64 {
            outcome.violate(format!(
                "request {request}: ledger does not sum to the root"
            ));
        }
    }
    outcome.attempted += root_ns_of.len() as u64;
    outcome.failed += system.check_kept();

    // Counters and the system's own stage histograms, read the way an
    // operator would.
    let stats = system
        .server
        .router()
        .stats(MODEL)
        .expect("model is registered");
    let net = system.server.metrics();
    let totals = net.totals();
    let stages = stage_rows(&net.serve.stages, Some(&net));

    untraced.record(&mut ledger, &root_ns_of);
    ledger.set("net.frames_in", totals.frames_in as f64);
    ledger.set("net.frames_out", totals.frames_out as f64);
    ledger.set("net.protocol_errors", totals.protocol_errors as f64);
    ledger.set("serve.cache_hit_rate", twin.cache_stats().hit_rate());
    ledger.set_serve_stats(&stats);
    ledger.set("data.zipf_sample_ns_per_id", zipf_ns);
    ledger.set("loadgen.late_p99_us", paced.late_p99_us);
    outcome.push("client.call_ns", median(&mut root_ns_of.clone()), "ns");
    outcome.notes.push(format!(
        "traced {} of {} requests; per-layer figures are medians across requests",
        root_ns_of.len(),
        scale.trace_requests
    ));
    drop(handle);
    inproc.shutdown();
    system.teardown(&mut outcome);
    Traced {
        outcome,
        ledger,
        tracer,
        stages,
    }
}
