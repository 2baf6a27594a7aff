//! Error type for the serving engine.

use std::error::Error;
use std::fmt;

use memcom_ondevice::OnDeviceError;

/// Everything that can go wrong while building or querying a server.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Invalid serving configuration.
    BadConfig {
        /// What was wrong.
        context: String,
    },
    /// Requested id is outside the served vocabulary.
    IdOutOfVocab {
        /// The offending id.
        id: usize,
        /// The vocabulary bound.
        vocab: usize,
    },
    /// No model with this name is registered on the router (or it was
    /// deregistered).
    ModelNotFound {
        /// The requested model name.
        name: String,
    },
    /// A model with this name is already registered on the router.
    ModelExists {
        /// The conflicting model name.
        name: String,
    },
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// Shed at admission: the shard queue stayed full past the
    /// producer's enqueue budget
    /// ([`crate::AdmissionPolicy::Shed`]`::enqueue_timeout`). A load
    /// condition, not a bug — retry later or back off.
    Overloaded {
        /// How long the producer waited for queue space before giving
        /// up (the configured enqueue budget).
        waited: std::time::Duration,
        /// Suggested backoff before retrying
        /// ([`crate::ServeConfig::suggested_backoff`]). Without a
        /// simulated `store_latency` — every configuration but the
        /// overload tests' — the router knows no service time and the
        /// hint is `Duration::ZERO`. With one it is the rejecting
        /// shard's queue depth divided by that capacity
        /// (`max_batch / store_latency`): roughly how long the backlog
        /// ahead of a retry needs to drain. Cooperating
        /// clients that pace themselves by this hint stop hammering the
        /// admission gate; the closed-loop load generator honors it.
        retry_after: std::time::Duration,
    },
    /// Dropped at dequeue: the request was older than its end-to-end
    /// deadline ([`crate::AdmissionPolicy::Shed`]`::request_deadline`)
    /// by the time a serve turn picked it up, so the serving thread
    /// failed it instead of computing an answer nobody is still waiting
    /// for.
    DeadlineExceeded {
        /// How long the request had been outstanding when a serve turn
        /// dequeued it — measured from issue, so it includes admission
        /// waits (and, for a fanned-out request, the admission of
        /// earlier shards), not just time in this shard's queue.
        queued: std::time::Duration,
        /// The deadline it was issued under.
        deadline: std::time::Duration,
    },
    /// The batch holding the request panicked while it was served, so
    /// the caller serving it answered this instead of a result (a bug,
    /// not a load condition).
    WorkerLost,
    /// Error from the simulated mmap / on-device layer.
    OnDevice(OnDeviceError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadConfig { context } => write!(f, "bad serving config: {context}"),
            ServeError::IdOutOfVocab { id, vocab } => {
                write!(f, "id {id} out of served vocabulary {vocab}")
            }
            ServeError::ModelNotFound { name } => write!(f, "no model named {name:?} is serving"),
            ServeError::ModelExists { name } => {
                write!(f, "a model named {name:?} is already serving")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Overloaded {
                waited,
                retry_after,
            } => write!(
                f,
                "request shed: shard queue still full after {waited:?} enqueue budget \
                 (suggested retry in {retry_after:?})"
            ),
            ServeError::DeadlineExceeded { queued, deadline } => write!(
                f,
                "request deadline exceeded: queued {queued:?} against a {deadline:?} budget"
            ),
            ServeError::WorkerLost => write!(f, "serving worker dropped a request"),
            ServeError::OnDevice(e) => write!(f, "on-device error: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::OnDevice(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OnDeviceError> for ServeError {
    fn from(e: OnDeviceError) -> Self {
        ServeError::OnDevice(e)
    }
}
