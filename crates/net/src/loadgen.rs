//! Networked load generation: `memcom_serve`'s load driver submitting
//! through real sockets.
//!
//! [`memcom_serve::drive`] owns the traffic (seeding, Zipf sampling,
//! digest), the schedule, the pacing, and the report; this module only
//! supplies what a client *is* over the wire — one [`NetClient`]
//! connection per client thread, blocking lookups or scores, and typed
//! error frames classified into [`Outcome`]s. The driver sleeps a
//! shed's `retry_after` between requests (the client itself never
//! sleeps), so closed-loop latency covers the request alone on this tier
//! exactly as it does in-process. Each run hands back the summed
//! [`NetClientStats`] of its connections next to the report — the
//! client half of the client/server reconciliation.

use std::sync::Arc;
use std::time::Duration;

use memcom_serve::{drive, LoadGenConfig, LoadReport, Outcome, RequestKind};
use parking_lot::Mutex;

use crate::client::{NetClient, NetClientConfig, NetClientStats, Pending};
use crate::error::ErrorCode;
use crate::Result;

/// Runs Zipf traffic of one [`RequestKind`] against the network server
/// at `addr`: row lookups, or full-model scores of the same traffic
/// (same `traffic_checksum`), so any throughput delta between the two
/// is the inference backend's.
///
/// `vocab` is the served model's vocabulary size (the Zipf support);
/// `deadline` is attached to every request and mapped onto the
/// server's admission control.
///
/// # Errors
///
/// [`crate::NetError::BadConfig`] for degenerate configs; connection failures
/// and server errors other than `overloaded` / `deadline_exceeded` /
/// `shutting_down` propagate from the first client that hits one.
pub fn run_net_load(
    addr: &str,
    kind: RequestKind,
    model: &str,
    vocab: usize,
    config: &LoadGenConfig,
    deadline: Option<Duration>,
) -> Result<(LoadReport, NetClientStats)> {
    let connections = Mutex::new(Vec::with_capacity(config.clients));
    let report = drive(config, &[(model, vocab, 1.0)], |_| -> Result<_> {
        let client = Arc::new(NetClient::connect(addr, NetClientConfig::default())?);
        connections.lock().push(Arc::clone(&client));
        let mut wire_ids: Vec<u64> = Vec::with_capacity(config.ids_per_request);
        Ok(move |_, ids: &[usize]| {
            wire_ids.clear();
            wire_ids.extend(ids.iter().map(|&id| id as u64));
            match client
                .send(kind, model, &wire_ids, deadline)
                .and_then(Pending::wait)
            {
                Ok(_) => Ok(Outcome::Served),
                Err(e) => match e.code() {
                    Some(ErrorCode::Overloaded) => Ok(Outcome::Shed {
                        retry_after: e.retry_after().unwrap_or_default(),
                    }),
                    Some(ErrorCode::DeadlineExceeded) => Ok(Outcome::Expired),
                    Some(ErrorCode::ShuttingDown) => Ok(Outcome::Refused),
                    _ => Err(e),
                },
            }
        })
    })?;
    // Every blocking call has returned, so each connection's counters
    // are final.
    let mut stats = NetClientStats::default();
    for client in connections.into_inner() {
        stats += client.stats();
    }
    Ok((report, stats))
}
