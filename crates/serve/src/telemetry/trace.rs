//! Sampled request tracing.
//!
//! At [`crate::TelemetryLevel::Full`] every k-th request (with
//! `k = round(1 / sample_rate)`, so sampling costs one atomic increment
//! and no random-number source) is stamped with a pending span. The
//! thread that serves the request completes the span with the stage
//! timings it measures anyway, and completed spans land in a
//! [`TraceRing`]: a fixed-size most-recent ring plus a slowest-N
//! retention list, so a p99 outlier can be explained long after the
//! recent ring cycled past it.

/// How a traced request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Rows were decoded and answered.
    Served,
    /// The request sat in its queue past its deadline and was dropped at
    /// dequeue without a store read.
    Expired,
    /// Admission refused the request (queue full past the enqueue
    /// budget); it never reached a serve turn.
    Shed,
}

impl SpanOutcome {
    /// Stable lowercase name (exporter label value).
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanOutcome::Served => "served",
            SpanOutcome::Expired => "expired",
            SpanOutcome::Shed => "shed",
        }
    }
}

/// One completed trace span: the per-stage breakdown of a single sampled
/// request — a lookup or a score, whichever shards its ids live on.
///
/// `queue_wait_nanos` runs from the issue stamp to the moment a serve
/// turn started on the request, so it *includes* the admission wait (the
/// per-stage histograms split the two) and the service of requests
/// ahead of it in its micro-batch. `service_nanos` is the request's own
/// fill (store decode or backend forward) plus response write.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Sample sequence number (global, monotonically increasing).
    pub seq: u64,
    /// Shard that served (or shed/expired) the request: its first id's.
    pub shard: usize,
    /// Rows the request carried.
    pub rows: usize,
    /// Issue → dequeue, including the admission wait. For a shed
    /// request this is the time spent failing admission.
    pub queue_wait_nanos: u64,
    /// The request's own fill (decode or forward) + response write.
    /// `0` for shed and expired requests.
    pub service_nanos: u64,
    /// Issue → completion, end to end.
    pub total_nanos: u64,
    /// How the request ended.
    pub outcome: SpanOutcome,
}

/// A sampled request in flight: carried on the queued request, completed
/// by whichever side finishes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingSpan {
    pub(crate) seq: u64,
}

/// Completed spans kept in the most-recent ring.
const RECENT_SPANS: usize = 256;
/// Completed spans retained under the slowest-N policy, so tail outliers
/// survive long after the recent ring cycled past them.
const SLOWEST_SPANS: usize = 32;

/// Fixed-size retention for completed spans: a most-recent ring plus a
/// slowest-N list (min-replace by `total_nanos`).
#[derive(Debug)]
pub(crate) struct TraceRing {
    recent: Vec<Span>,
    /// Index of the oldest entry once `recent` is full.
    head: usize,
    slowest: Vec<Span>,
    recorded: u64,
}

impl TraceRing {
    pub(crate) fn new() -> Self {
        TraceRing {
            recent: Vec::with_capacity(RECENT_SPANS),
            head: 0,
            slowest: Vec::with_capacity(SLOWEST_SPANS),
            recorded: 0,
        }
    }

    pub(crate) fn push(&mut self, span: Span) {
        self.recorded += 1;
        if self.recent.len() < RECENT_SPANS {
            self.recent.push(span);
        } else {
            self.recent[self.head] = span;
            self.head = (self.head + 1) % RECENT_SPANS;
        }
        if self.slowest.len() < SLOWEST_SPANS {
            self.slowest.push(span);
        } else if let Some((idx, min)) = self
            .slowest
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.total_nanos)
        {
            if span.total_nanos > min.total_nanos {
                self.slowest[idx] = span;
            }
        }
    }

    /// Spans completed since construction (including ones the ring has
    /// since overwritten).
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Most-recent spans, oldest first.
    pub(crate) fn recent(&self) -> Vec<Span> {
        let mut out = Vec::with_capacity(self.recent.len());
        out.extend_from_slice(&self.recent[self.head..]);
        out.extend_from_slice(&self.recent[..self.head]);
        out
    }

    /// Slowest retained spans, slowest first.
    pub(crate) fn slowest(&self) -> Vec<Span> {
        let mut out = self.slowest.clone();
        out.sort_by_key(|s| std::cmp::Reverse(s.total_nanos));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, total: u64) -> Span {
        Span {
            seq,
            shard: 0,
            rows: 1,
            queue_wait_nanos: total / 2,
            service_nanos: total / 2,
            total_nanos: total,
            outcome: SpanOutcome::Served,
        }
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut ring = TraceRing::new();
        let pushed = RECENT_SPANS as u64 + 2;
        for seq in 0..pushed {
            ring.push(span(seq, 100));
        }
        assert_eq!(ring.recorded(), pushed);
        let recent: Vec<u64> = ring.recent().iter().map(|s| s.seq).collect();
        let want: Vec<u64> = (2..pushed).collect();
        assert_eq!(recent, want, "oldest first, newest last");
    }

    #[test]
    fn slowest_retention_survives_ring_churn() {
        let mut ring = TraceRing::new();
        ring.push(span(0, 9_999)); // the outlier, early
        let pushed = 2 * RECENT_SPANS as u64;
        for seq in 1..pushed {
            ring.push(span(seq, 100 + seq));
        }
        let recent = ring.recent();
        assert_eq!(recent.len(), RECENT_SPANS);
        assert_eq!(recent[0].seq, pushed - RECENT_SPANS as u64);
        assert_eq!(recent[RECENT_SPANS - 1].seq, pushed - 1);
        let slowest = ring.slowest();
        assert_eq!(slowest.len(), SLOWEST_SPANS);
        assert_eq!(slowest[0].seq, 0, "cycled out of the ring, kept here");
        assert_eq!(slowest[0].total_nanos, 9_999);
        assert_eq!(slowest[1].total_nanos, 99 + pushed, "next-slowest, sorted");
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(SpanOutcome::Served.as_str(), "served");
        assert_eq!(SpanOutcome::Expired.as_str(), "expired");
        assert_eq!(SpanOutcome::Shed.as_str(), "shed");
    }
}
