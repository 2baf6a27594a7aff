//! End-to-end network serving: correctness over loopback TCP, typed
//! overload semantics across the wire, pipelining, deadline mapping,
//! hostile bytes against a live server, telemetry gating, and the
//! drain guarantee — multi-client shutdown with exact client/server
//! counter reconciliation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use memcom_core::{MemCom, MemComConfig, MethodSpec};
use memcom_models::{ModelConfig, RecModel};
use memcom_net::wire::{decode_payload, FrameReader, Message, ReadEvent, MAX_MODEL_LEN};
use memcom_net::{
    run_net_load, ErrorCode, NetClient, NetClientConfig, NetError, NetServer, NetServerConfig,
    Pending,
};
use memcom_serve::{
    run_load, AdmissionPolicy, Dtype, LoadGenConfig, LoadMode, RankNetBackend, RequestKind, Router,
    ServeConfig, TelemetryConfig, DEFAULT_MODEL,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const VOCAB: usize = 1_000;
const DIM: usize = 8;

fn memcom(seed: u64) -> MemCom {
    let mut rng = StdRng::seed_from_u64(seed);
    MemCom::new(MemComConfig::new(VOCAB, DIM, 100), &mut rng).unwrap()
}

fn start_server(serve: ServeConfig, net: NetServerConfig) -> NetServer {
    let router = Router::start(serve).unwrap();
    router.register(DEFAULT_MODEL, &memcom(3)).unwrap();
    NetServer::start(router, net).unwrap()
}

#[test]
fn networked_rows_match_in_process_rows() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());
    let expected = {
        let handle = server.router().handle(DEFAULT_MODEL).unwrap();
        handle.get_many(&[1, 2, 999]).unwrap()
    };

    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    let rows = client.lookup(DEFAULT_MODEL, &[1, 2, 999]).unwrap();
    assert_eq!(rows.dim as usize, DIM);
    assert_eq!(rows.data.len(), 3 * DIM);
    for (k, want) in expected.iter().enumerate() {
        assert_eq!(&rows.data[k * DIM..(k + 1) * DIM], want.as_slice());
    }

    // Single-id requests use the same path.
    let one = client.lookup(DEFAULT_MODEL, &[42]).unwrap();
    assert_eq!(one.data.len(), DIM);
    let stats = client.close();
    assert_eq!(stats.sent, 2);
    assert_eq!(stats.served, 2);

    let (per_model, snapshot) = server.shutdown();
    assert_eq!(per_model.len(), 1);
    // Rows through the router: 3 in-process + (3 + 1) over the wire.
    assert_eq!(per_model[0].1.requests, 7);
    let totals = snapshot.totals();
    assert_eq!(totals.served, 2);
    assert_eq!(totals.errors_sent, 0);
}

#[test]
fn typed_errors_cross_the_wire() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();

    let err = client.lookup("no-such-model", &[1]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::ModelNotFound));

    let err = client
        .lookup(DEFAULT_MODEL, &[VOCAB as u64 + 5])
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::IdOutOfVocab));

    // The connection survives typed rejections.
    assert!(client.lookup(DEFAULT_MODEL, &[1]).is_ok());
    let stats = client.close();
    assert_eq!(stats.other_errors, 2);
    assert_eq!(stats.served, 1);
    server.shutdown();
}

/// A request the codec cannot encode fails typed before anything is
/// sent: the reply slot is forgotten, nothing counts as sent, and the
/// same connection goes on serving.
#[test]
fn an_unencodable_request_fails_typed_and_the_connection_survives() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();

    let model = "m".repeat(MAX_MODEL_LEN + 1);
    match client.send(RequestKind::Lookup, &model, &[1], None) {
        Err(NetError::Protocol(_)) => {}
        Err(other) => panic!("expected a protocol error, got {other:?}"),
        Ok(_) => panic!("an over-long model name must not encode"),
    }
    assert_eq!(client.in_flight(), 0, "the reply slot must be forgotten");
    assert_eq!(client.stats().sent, 0);

    let rows = client.lookup(DEFAULT_MODEL, &[1]).unwrap();
    assert_eq!(rows.data.len(), DIM);
    assert_eq!(client.close().sent, 1);
    server.shutdown();
}

#[test]
fn pipelined_requests_all_resolve() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();

    let tickets: Vec<_> = (0..32)
        .map(|k| {
            client
                .send(
                    RequestKind::Lookup,
                    DEFAULT_MODEL,
                    &[k as u64, k as u64 + 1],
                    None,
                )
                .unwrap()
        })
        .collect();
    let mut ids: Vec<u64> = tickets.iter().map(|t| t.request_id()).collect();
    ids.dedup();
    assert_eq!(ids.len(), 32, "request ids must be distinct");
    for ticket in tickets {
        let rows = ticket.wait().unwrap();
        assert_eq!(rows.data.len(), 2 * DIM);
    }
    assert_eq!(client.in_flight(), 0);
    let stats = client.close();
    assert_eq!((stats.sent, stats.served), (32, 32));
    server.shutdown();
}

#[test]
fn wire_deadlines_map_onto_admission_control() {
    // Shed policy with NO configured request deadline: only the
    // client's wire deadline can expire requests.
    let serve = ServeConfig {
        n_shards: 1,
        max_batch: 2,
        queue_depth: 64,
        store_latency: Duration::from_millis(10),
        admission: AdmissionPolicy::Shed {
            enqueue_timeout: Duration::from_millis(200),
            request_deadline: None,
        },
        ..ServeConfig::default()
    };
    let server = start_server(serve, NetServerConfig::default());
    let addr = server.local_addr().to_string();

    // Each connection serves one request at a time, so queueing needs
    // *concurrent connections*: 6 clients keep ~6 requests in a queue
    // drained at 2 rows / 10 ms — arrivals wait ~25 ms, far past the
    // 1 ms wire deadline.
    let expired: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|c| {
                let addr = &addr;
                scope.spawn(move || {
                    let client = NetClient::connect(addr, NetClientConfig::default()).unwrap();
                    let mut expired = 0u64;
                    for k in 0..20u64 {
                        match client
                            .send(
                                RequestKind::Lookup,
                                DEFAULT_MODEL,
                                &[(c * 131 + k) % VOCAB as u64],
                                Some(Duration::from_millis(1)),
                            )
                            .and_then(Pending::wait)
                        {
                            Ok(_) => {}
                            Err(err) => {
                                assert_eq!(err.code(), Some(ErrorCode::DeadlineExceeded));
                                expired += 1;
                            }
                        }
                    }
                    client.close();
                    expired
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    assert!(expired > 0, "1ms deadlines behind a 10ms store must expire");
    let (per_model, _) = server.shutdown();
    assert_eq!(per_model[0].1.expired, expired);

    // Under Block the same wire deadline is ignored: nothing expires.
    let server = start_server(
        ServeConfig {
            n_shards: 1,
            max_batch: 2,
            queue_depth: 64,
            store_latency: Duration::from_millis(2),
            admission: AdmissionPolicy::Block,
            ..ServeConfig::default()
        },
        NetServerConfig::default(),
    );
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    let tickets: Vec<_> = (0..16)
        .map(|k| {
            client
                .send(
                    RequestKind::Lookup,
                    DEFAULT_MODEL,
                    &[k as u64],
                    Some(Duration::from_nanos(1)),
                )
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    client.close();
    let (per_model, _) = server.shutdown();
    assert_eq!(per_model[0].1.expired, 0);
}

#[test]
fn overload_sheds_cross_the_wire_with_backoff_hints() {
    // Capacity: 1 shard × batch 2 / 4ms = 500 rows/s. Each connection
    // is served synchronously, so concurrency == client count: 8
    // clients against a depth-2 queue with a zero enqueue budget
    // overflow admission constantly.
    let serve = ServeConfig {
        n_shards: 1,
        max_batch: 2,
        queue_depth: 2,
        store_latency: Duration::from_millis(4),
        admission: AdmissionPolicy::Shed {
            enqueue_timeout: Duration::ZERO,
            request_deadline: Some(Duration::from_millis(25)),
        },
        ..ServeConfig::default()
    };
    let server = start_server(serve, NetServerConfig::default());
    let load = LoadGenConfig {
        clients: 8,
        requests_per_client: 40,
        ids_per_request: 1,
        zipf_exponent: 1.1,
        mode: LoadMode::Open {
            target_qps: 4_000.0,
        },
        seed: 7,
    };
    let (report, client) = run_net_load(
        server.local_addr(),
        RequestKind::Lookup,
        DEFAULT_MODEL,
        VOCAB,
        &load,
        None,
    )
    .unwrap();
    let (per_model, snapshot) = server.shutdown();
    let stats = &per_model[0].1;

    // Every request is answered: completed + shed + expired covers the
    // offered load exactly (no drain ran — the run finished first).
    assert_eq!(
        report.offered(),
        (load.clients * load.requests_per_client) as u64
    );
    assert!(report.shed > 0, "4x-capacity traffic must shed");
    assert!(
        !report.mean_backoff.is_zero(),
        "sheds must carry retry_after hints"
    );

    // Exact client/server reconciliation (single-id ⇒ rows == requests).
    assert_eq!(stats.requests, report.requests);
    assert_eq!(stats.shed, report.shed);
    assert_eq!(stats.expired, report.expired);
    assert_eq!(client.sent, report.offered());

    // The network tier saw every frame: served + errors == sent.
    let totals = snapshot.totals();
    assert_eq!(totals.served, report.requests);
    assert_eq!(totals.errors_sent, report.shed + report.expired);
}

/// Closed-loop latency means the same thing over the wire as in
/// process: the driver sleeps a shed's `retry_after` *between*
/// requests, so no timed interval contains a backoff sleep. A client
/// thread is therefore either inside a timed request or sleeping a hint,
/// never both at once — completed latency plus slept time fits inside
/// `clients × elapsed`. (With the connection sleeping the hint inside
/// the next send, the same sleep was billed to both terms.)
#[test]
fn closed_loop_latency_excludes_backoff_sleeps() {
    // The serve tier's `closed_loop_honors_retry_after_…` set-up: 50
    // rows/s behind a depth-1 queue, three clients, so most arrivals
    // are shed with a 20–40 ms hint.
    let server = start_server(
        ServeConfig {
            n_shards: 1,
            max_batch: 1,
            queue_depth: 1,
            store_latency: Duration::from_millis(20),
            admission: AdmissionPolicy::Shed {
                enqueue_timeout: Duration::ZERO,
                request_deadline: None,
            },
            ..ServeConfig::default()
        },
        NetServerConfig::default(),
    );
    let load = LoadGenConfig {
        clients: 3,
        requests_per_client: 10,
        ids_per_request: 1,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 3,
    };
    let (report, _) = run_net_load(
        server.local_addr(),
        RequestKind::Lookup,
        DEFAULT_MODEL,
        VOCAB,
        &load,
        None,
    )
    .unwrap();
    server.shutdown();

    assert!(report.shed > 0, "the saturated depth-1 queue must shed");
    assert!(!report.slept.is_zero(), "closed-loop sheds must be paced");
    let completed = Duration::from_nanos(report.histogram.sum_nanos() as u64);
    let budget = report.elapsed * load.clients as u32;
    assert!(
        completed + report.slept <= budget,
        "completed {completed:?} + slept {:?} exceeds {} clients x {:?}",
        report.slept,
        load.clients,
        report.elapsed
    );
}

/// One config through all three entry points issues one traffic stream:
/// the driver owns seeding, the model pick, and sampling, so a one-model
/// mix, lookups over the wire, and scores over the wire differ only in
/// how a request is submitted.
#[test]
fn networked_traffic_checksum_matches_in_process_generator() {
    let load = LoadGenConfig {
        clients: 3,
        requests_per_client: 40,
        ids_per_request: 4,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 11,
    };
    let (router, model) = ranknet_router(7);
    router
        .register_with_dtype(DEFAULT_MODEL, model.embedding(), Dtype::F32)
        .unwrap();

    let single = run_load(&router, &[(DEFAULT_MODEL, 1.0)], &load).unwrap();
    // Pinned: a moved value means seeding, sampling or the pick changed.
    assert_eq!(single.traffic_checksum, 0x1ab8_4e97_3ced_20ed);
    let server = NetServer::start(router, NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let (lookups, _) =
        run_net_load(addr, RequestKind::Lookup, DEFAULT_MODEL, VOCAB, &load, None).unwrap();
    let (scores, _) = run_net_load(addr, RequestKind::Score, "scorer", VOCAB, &load, None).unwrap();
    server.shutdown();

    for (entry, report) in [
        ("run_load", &single),
        ("run_net_load(Lookup)", &lookups),
        ("run_net_load(Score)", &scores),
    ] {
        assert_eq!(report.traffic_checksum, single.traffic_checksum, "{entry}");
        assert_eq!(report.offered(), 120, "{entry}");
        assert_eq!(report.requests, 120, "{entry}");
    }
}

#[test]
fn hostile_bytes_against_a_live_server_get_typed_answers() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());

    // An unknown protocol version: typed `unsupported`, then close.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut payload = vec![99u8, 1u8];
    payload.extend_from_slice(&5u64.to_le_bytes());
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    std::io::Write::write_all(&mut stream, &frame).unwrap();
    let mut reader = FrameReader::new(1 << 20);
    assert!(matches!(
        reader.read_frame(&mut stream),
        Ok(ReadEvent::Frame)
    ));
    match decode_payload(reader.payload()).unwrap() {
        Message::Error(err) => assert_eq!(err.code, ErrorCode::Unsupported),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The server closes after a connection-level rejection.
    assert!(matches!(reader.read_frame(&mut stream), Ok(ReadEvent::Eof)));

    // An oversized length prefix: typed `malformed`, then close —
    // rejected before the server allocates anything.
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    std::io::Write::write_all(&mut stream, &u32::MAX.to_le_bytes()).unwrap();
    let mut reader = FrameReader::new(1 << 20);
    assert!(matches!(
        reader.read_frame(&mut stream),
        Ok(ReadEvent::Frame)
    ));
    match decode_payload(reader.payload()).unwrap() {
        Message::Error(err) => assert_eq!(err.code, ErrorCode::Malformed),
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert!(matches!(reader.read_frame(&mut stream), Ok(ReadEvent::Eof)));

    // The server is unharmed: a well-behaved client still gets rows.
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    assert!(client.lookup(DEFAULT_MODEL, &[1]).is_ok());
    client.close();

    let (_, snapshot) = server.shutdown();
    assert_eq!(snapshot.totals().protocol_errors, 2);
}

#[test]
fn telemetry_off_keeps_stage_histograms_empty() {
    let server = start_server(
        ServeConfig::default(),
        NetServerConfig {
            telemetry: TelemetryConfig::off(),
            ..NetServerConfig::default()
        },
    );
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    for k in 0..8 {
        client.lookup(DEFAULT_MODEL, &[k]).unwrap();
    }
    client.close();
    let (_, snapshot) = server.shutdown();

    // Counters are always on; stage clocks are never read at Off.
    let totals = snapshot.totals();
    assert_eq!(totals.served, 8);
    assert!(totals.bytes_in > 0 && totals.bytes_out > 0);
    assert_eq!(snapshot.frame_decode.count(), 0);
    assert_eq!(snapshot.response_encode.count(), 0);
    assert_eq!(snapshot.socket_write.count(), 0);

    let prom = snapshot.to_prometheus();
    assert!(prom.contains("memcom_net_connections_accepted_total 1"));
    assert!(prom.contains("memcom_net_served_total"));
    assert!(!prom.contains("memcom_net_stage_latency_nanos_bucket"));
    assert!(snapshot.to_json().contains("\"net\""));
}

#[test]
fn telemetry_full_records_network_stages() {
    let server = start_server(
        ServeConfig {
            telemetry: TelemetryConfig::full(1.0),
            ..ServeConfig::default()
        },
        NetServerConfig {
            telemetry: TelemetryConfig::full(1.0),
            ..NetServerConfig::default()
        },
    );
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    for k in 0..8 {
        client.lookup(DEFAULT_MODEL, &[k]).unwrap();
    }
    client.close();
    let (_, snapshot) = server.shutdown();

    assert_eq!(snapshot.frame_decode.count(), 8);
    assert_eq!(snapshot.response_encode.count(), 8);
    assert_eq!(snapshot.socket_write.count(), 8);
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("memcom_net_stage_latency_nanos_bucket"));
    // The embedded serve-tier exposition rides along in one scrape.
    assert!(prom.contains("memcom_requests_total"));
    // One histogram renderer per scrape: a net stage and a serve stage
    // in the same JSON document carry the same key set.
    let json = snapshot.to_json();
    let keys_of = |stage: &str| -> Vec<String> {
        let at = json.find(&format!("\"{stage}\":")).expect(stage);
        let object = &json[at..at + json[at..].find('}').unwrap()];
        object
            .split('"')
            .skip(3)
            .step_by(2)
            .map(str::to_string)
            .collect()
    };
    assert_eq!(keys_of("frame_decode"), keys_of("queue_wait"));
    assert!(keys_of("frame_decode").contains(&"p99_nanos".to_string()));
}

/// At Full, every frame out is timed exactly once — rows answers and
/// typed errors (`send_error`'s path) alike.
#[test]
fn telemetry_full_times_every_frame_out_once() {
    let server = start_server(
        ServeConfig::default(),
        NetServerConfig {
            telemetry: TelemetryConfig::full(1.0),
            ..NetServerConfig::default()
        },
    );
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    for k in 0..5 {
        client.lookup(DEFAULT_MODEL, &[k]).unwrap();
    }
    for _ in 0..3 {
        let err = client.lookup("no-such-model", &[1]).unwrap_err();
        assert_eq!(err.code(), Some(ErrorCode::ModelNotFound));
    }
    client.close();
    let (_, snapshot) = server.shutdown();

    let totals = snapshot.totals();
    assert_eq!((totals.served, totals.errors_sent), (5, 3));
    assert_eq!(totals.frames_out, totals.served + totals.errors_sent);
    assert_eq!(snapshot.response_encode.count(), totals.frames_out);
    assert_eq!(snapshot.socket_write.count(), totals.frames_out);
}

/// The network tier refuses the telemetry configs the router refuses.
#[test]
fn a_bad_telemetry_config_is_refused_at_start() {
    for sample_rate in [f64::NAN, 1.5, -0.5] {
        let router = Router::start(ServeConfig::default()).unwrap();
        let config = NetServerConfig {
            telemetry: TelemetryConfig::full(sample_rate),
            ..NetServerConfig::default()
        };
        let err = NetServer::start(router, config).err();
        assert!(
            matches!(err, Some(NetError::BadConfig(_))),
            "sample_rate {sample_rate}: {err:?}"
        );
    }
}

/// Connection churn must not accumulate: a closing connection's
/// counters and stage histograms fold into one `closed` row, so what a
/// long-lived server tracks and exports is bounded by the connections
/// open *now* while the totals still count every frame ever served.
#[test]
fn connection_churn_folds_into_one_closed_row() {
    let server = start_server(
        ServeConfig::default(),
        NetServerConfig {
            telemetry: TelemetryConfig::full(1.0),
            ..NetServerConfig::default()
        },
    );
    let connect = || {
        let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
        client.lookup(DEFAULT_MODEL, &[1]).unwrap();
        client
    };
    // The server sees each EOF asynchronously: poll until only the live
    // client is left open.
    let settled = || {
        for _ in 0..5_000 {
            let snapshot = server.metrics();
            if snapshot.active == 1 {
                return snapshot;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("closed connections were never folded away");
    };
    // Histogram bucket lines depend on which latencies were seen; every
    // other line depends only on what the server tracks.
    let tracked_lines = |prom: String| prom.lines().filter(|l| !l.contains("_bucket{")).count();

    let live = connect();
    for _ in 0..8 {
        connect().close();
    }
    let after_8 = tracked_lines(settled().to_prometheus());
    for _ in 8..64 {
        connect().close();
    }
    let snapshot = settled();

    assert_eq!(snapshot.accepted, 65);
    assert!(
        snapshot.connections.len() <= 2,
        "one live row and one closed row, got {}",
        snapshot.connections.len()
    );
    // Live rows come first, in accept order, then the one `closed` row.
    let rows: Vec<_> = snapshot
        .connections
        .iter()
        .map(|c| (c.id, c.peer.as_str(), c.served, c.open))
        .collect();
    assert_eq!(rows[1..], [(0, "closed", 64, false)]);
    assert_eq!((rows[0].0, rows[0].2, rows[0].3), (1, 1, true));
    let totals = snapshot.totals();
    assert_eq!((totals.frames_in, totals.frames_out), (65, 65));
    assert_eq!(totals.served, 65);
    assert_eq!(snapshot.frame_decode.count(), 65);
    assert_eq!(tracked_lines(snapshot.to_prometheus()), after_8);

    live.close();
    let (_, last) = server.shutdown();
    assert_eq!((last.accepted, last.active), (65, 0));
    assert_eq!(last.totals().frames_out, 65);
}

/// The networked mirror of the serve tier's
/// `shed_mode_drain_leaves_no_request_unanswered`: many concurrent
/// clients hammer a slow shedding server, shutdown lands mid-flight,
/// and every outcome a client saw must be a *typed answer* — rows,
/// `overloaded`, `deadline_exceeded`, or `shutting_down` — with client
/// and server tallies reconciling exactly.
#[test]
fn multi_client_drain_reconciles_and_drops_nothing() {
    let serve = ServeConfig {
        n_shards: 1,
        max_batch: 2,
        queue_depth: 4,
        store_latency: Duration::from_millis(30),
        admission: AdmissionPolicy::Shed {
            enqueue_timeout: Duration::from_micros(200),
            request_deadline: Some(Duration::from_millis(120)),
        },
        ..ServeConfig::default()
    };
    let server = start_server(
        serve,
        NetServerConfig {
            drain_grace: Duration::from_millis(200),
            ..NetServerConfig::default()
        },
    );
    let addr = server.local_addr().to_string();

    let stop = AtomicBool::new(false);
    let client_totals = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|c| {
                let addr = &addr;
                let stop = &stop;
                scope.spawn(move || {
                    let client = NetClient::connect(addr, NetClientConfig::default()).unwrap();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        match client.lookup(DEFAULT_MODEL, &[(c as u64 * 131 + k) % VOCAB as u64]) {
                            Ok(_) => {}
                            Err(NetError::Remote { code, .. }) => {
                                assert!(
                                    matches!(
                                        code,
                                        ErrorCode::Overloaded
                                            | ErrorCode::DeadlineExceeded
                                            | ErrorCode::ShuttingDown
                                    ),
                                    "unexpected typed error {code} mid-drain"
                                );
                                // Once the server says it's draining,
                                // a polite client stops offering.
                                if code == ErrorCode::ShuttingDown {
                                    break;
                                }
                            }
                            // The connection closed after its drain
                            // grace: nothing more will be answered.
                            Err(NetError::ConnectionClosed | NetError::ClientClosed) => break,
                            Err(e) => panic!("request failed: {e}"),
                        }
                        k += 1;
                    }
                    client.close()
                })
            })
            .collect();

        // Let the fleet get properly mid-flight, then pull the plug
        // while requests are queued and in service.
        std::thread::sleep(Duration::from_millis(150));
        let (per_model, snapshot) = server.shutdown();
        stop.store(true, Ordering::Release);

        let mut totals = memcom_net::NetClientStats::default();
        for w in workers {
            let s = w.join().unwrap();
            totals.sent += s.sent;
            totals.served += s.served;
            totals.shed += s.shed;
            totals.expired += s.expired;
            totals.shutdown_rejected += s.shutdown_rejected;
            totals.other_errors += s.other_errors;
        }
        (per_model, snapshot, totals)
    });
    let (per_model, snapshot, totals) = client_totals;
    let stats = &per_model[0].1;

    assert!(totals.served > 0, "the run must have served something");
    assert_eq!(totals.other_errors, 0);

    // Exact reconciliation: everything that entered the router is in
    // ServeStats; everything rejected during the drain is in the net
    // tier's counter. Nothing is unaccounted for.
    assert_eq!(stats.requests, totals.served, "served rows reconcile");
    assert_eq!(stats.shed, totals.shed, "sheds reconcile");
    assert_eq!(stats.expired, totals.expired, "expiries reconcile");
    assert_eq!(
        snapshot.totals().shutdown_rejected,
        totals.shutdown_rejected,
        "drain answers reconcile"
    );
    // The router's own ledger stays closed, too.
    assert_eq!(
        stats.issued,
        stats.requests + stats.shed + stats.expired,
        "router ledger: issued == served + shed + expired"
    );
}

fn ranknet_router(seed: u64) -> (Router, RecModel) {
    let config = ModelConfig {
        seed,
        ..ModelConfig::pointwise(VOCAB, DIM, 4, 1)
    };
    let model = RecModel::new(
        &config,
        &MethodSpec::MemCom {
            hash_size: 100,
            bias: false,
        },
    )
    .unwrap();
    let router = Router::start(ServeConfig::default()).unwrap();
    router
        .backends()
        .register(
            "ranknet",
            Arc::new(RankNetBackend::from_model(&model).unwrap()),
        )
        .unwrap();
    router
        .register_with_backend("scorer", model.embedding(), Dtype::F32, "ranknet")
        .unwrap();
    (router, model)
}

/// Full-model serving over the wire: a RankNet-backed model answers
/// score requests over loopback TCP with exactly the numbers the
/// in-process score path produces, and the reply slab is one row of
/// the backend's K scores.
#[test]
fn networked_scores_match_in_process_scores_bit_for_bit() {
    let (router, _model) = ranknet_router(3);
    let expected = router
        .handle("scorer")
        .unwrap()
        .score(&[1, 2, 3, 999])
        .unwrap();
    let server = NetServer::start(router, NetServerConfig::default()).unwrap();

    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    let scores = client.score("scorer", &[1, 2, 3, 999]).unwrap();
    // A score reply is one row of K scores: dim == K == data.len().
    assert_eq!(scores.dim as usize, expected.len());
    assert_eq!(scores.data.len(), expected.len());
    assert_eq!(scores.data, expected, "wire scores match in-process bits");

    // Typed rejections work on the score path too, and the connection
    // survives them.
    let err = client.score("no-such-model", &[1]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::ModelNotFound));
    let err = client.score("scorer", &[VOCAB as u64 + 5]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::IdOutOfVocab));
    assert!(client.score("scorer", &[7, 8]).is_ok());

    let stats = client.close();
    assert_eq!(stats.sent, 4);
    assert_eq!(stats.served, 2);
    assert_eq!(stats.other_errors, 2);

    let (per_model, snapshot) = server.shutdown();
    // Rows through the router: 4 in-process + (4 + 2) over the wire.
    assert_eq!(per_model.len(), 1);
    assert_eq!(per_model[0].1.requests, 10);
    let totals = snapshot.totals();
    assert_eq!(totals.served, 2);
    assert_eq!(totals.errors_sent, 2);
}

/// The networked score loadgen issues byte-identical traffic to the
/// lookup loadgen (same checksum), and a full score run reconciles
/// exactly: every request answered, client tallies matching the
/// router's row counters.
#[test]
fn networked_score_load_reconciles_with_router_counters() {
    let (router, model) = ranknet_router(7);
    // The same router also serves plain row lookups over the same
    // embedding, so the two generators can be compared on one server.
    router
        .register_with_dtype(DEFAULT_MODEL, model.embedding(), Dtype::F32)
        .unwrap();
    let server = NetServer::start(router, NetServerConfig::default()).unwrap();

    let load = LoadGenConfig {
        clients: 3,
        requests_per_client: 40,
        ids_per_request: 4,
        zipf_exponent: 1.1,
        mode: LoadMode::Closed,
        seed: 11,
    };
    let (lookups, _) = run_net_load(
        server.local_addr(),
        RequestKind::Lookup,
        DEFAULT_MODEL,
        VOCAB,
        &load,
        None,
    )
    .unwrap();
    let (scores, _) = run_net_load(
        server.local_addr(),
        RequestKind::Score,
        "scorer",
        VOCAB,
        &load,
        None,
    )
    .unwrap();
    let (per_model, snapshot) = server.shutdown();

    // Identical issued traffic: only the kind byte differs.
    assert_eq!(scores.traffic_checksum, lookups.traffic_checksum);

    // No overload was configured, so every request completed.
    let offered = (load.clients * load.requests_per_client) as u64;
    assert_eq!(scores.requests, offered);
    assert_eq!((scores.shed, scores.expired, scores.refused), (0, 0, 0));

    // Exact reconciliation: the router counts rows (ids per request).
    let scorer = per_model.iter().find(|(name, _)| name == "scorer").unwrap();
    assert_eq!(
        scorer.1.requests,
        scores.requests * load.ids_per_request as u64
    );
    assert_eq!(scorer.1.issued, scorer.1.requests);
    // The network tier answered every frame from both runs.
    assert_eq!(snapshot.totals().served, scores.requests + lookups.requests);
}

/// A client whose server went away must fail later sends instead of
/// hanging: once the reader thread exits on EOF, a freshly inserted
/// pending ticket has nothing left to answer it, so `send` itself has
/// to refuse. (Regression: the dead-connection flag is set under the
/// pending lock precisely so no ticket can be orphaned in the race.)
#[test]
fn send_after_server_shutdown_fails_instead_of_hanging() {
    let server = start_server(ServeConfig::default(), NetServerConfig::default());
    let client = NetClient::connect(server.local_addr(), NetClientConfig::default()).unwrap();
    client.lookup(DEFAULT_MODEL, &[1]).unwrap();
    server.shutdown();

    // Racing the teardown, a lookup may still see a drain answer
    // (`ShuttingDown`), a failed write (`Io`), or the settled state
    // (`ConnectionClosed`) — but every one must resolve promptly.
    let mut settled = false;
    for _ in 0..200 {
        match client.lookup(DEFAULT_MODEL, &[2]) {
            Ok(_) => panic!("the server is gone; lookups cannot succeed"),
            Err(NetError::ConnectionClosed) => {
                settled = true;
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    assert!(
        settled,
        "lookups after server shutdown must settle to ConnectionClosed"
    );
    client.close();
}
