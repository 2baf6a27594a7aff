//! The option census as a compile-time fact: every config struct is
//! destructured without `..` and every policy enum matched without a
//! wildcard, so adding a field, a level or a kernel tier does not compile
//! until this file — and the decision it records, "some caller gives this
//! a second value" — is edited too.

use std::time::Duration;

use memcom::models::TrainConfig;
use memcom::net::{NetClientConfig, NetServerConfig};
use memcom::ondevice::simd::Kernel;
use memcom::serve::{
    AdmissionPolicy, LoadGenConfig, LoadMode, ServeConfig, TelemetryConfig, TelemetryLevel,
};

#[test]
fn config_structs_have_exactly_these_fields() {
    let ServeConfig {
        n_shards,
        max_batch,
        // Nothing reads it (serving never holds a batch open); frozen `crates/perf` names it — ROADMAP item 1(f).
        max_wait,
        queue_depth,
        // Nothing reads it (the store has no cache); frozen `crates/perf` names it — ROADMAP item 1(f).
        cache_capacity,
        page_size,
        admission,
        store_latency,
        telemetry,
    } = ServeConfig::default();
    assert_eq!(
        (n_shards, max_batch, queue_depth, cache_capacity),
        (4, 32, 4096, 1024)
    );
    assert_eq!(max_wait, Duration::from_micros(200));
    assert_eq!(page_size, memcom::ondevice::pages::DEFAULT_PAGE_SIZE);
    assert_eq!(admission, AdmissionPolicy::Block);
    assert_eq!(store_latency, Duration::ZERO);

    let TelemetryConfig { level, sample_rate } = telemetry;
    assert_eq!(level, TelemetryLevel::Off);
    assert_eq!(sample_rate, 0.01);

    let NetServerConfig {
        addr,
        drain_grace,
        telemetry,
    } = NetServerConfig::default();
    assert_eq!(addr, "127.0.0.1:0");
    assert_eq!(drain_grace, Duration::from_millis(50));
    assert_eq!(telemetry, TelemetryConfig::off());

    let NetClientConfig {} = NetClientConfig::default();

    let TrainConfig {
        epochs,
        batch_size,
        lr,
        seed,
    } = TrainConfig::default();
    assert_eq!((epochs, batch_size, lr, seed), (3, 64, 2e-3, 17));

    let LoadGenConfig {
        clients,
        requests_per_client,
        ids_per_request,
        zipf_exponent,
        mode,
        seed,
    } = LoadGenConfig::default();
    assert_eq!(
        (clients, requests_per_client, ids_per_request),
        (4, 1_000, 1)
    );
    assert_eq!((zipf_exponent, mode, seed), (1.1, LoadMode::Closed, 42));
}

#[test]
fn policy_enums_have_exactly_these_variants() {
    let shed = AdmissionPolicy::Shed {
        enqueue_timeout: Duration::ZERO,
        request_deadline: None,
    };
    for policy in [AdmissionPolicy::Block, shed] {
        let sheds = match policy {
            AdmissionPolicy::Block => false,
            AdmissionPolicy::Shed {
                enqueue_timeout: _,
                request_deadline: _,
            } => true,
        };
        assert_eq!(sheds, policy.sheds());
    }
    for level in [TelemetryLevel::Off, TelemetryLevel::Full] {
        let timed = match level {
            TelemetryLevel::Off => false,
            TelemetryLevel::Full => true,
        };
        assert_eq!(timed, level == TelemetryLevel::Full);
    }
    for kernel in [Kernel::Scalar, Kernel::Avx2] {
        let name = match kernel {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        };
        assert_eq!(name, kernel.as_str());
    }
}
