//! The benchmark's own load driver.
//!
//! One sender thread and one collector thread per connection, joined by a
//! bounded FIFO of in-flight replies. The server answers each connection in
//! request order, so the collector waits on replies in the order they were
//! sent and stamps each one the moment it resolves — the sender never stops
//! to look at replies, which is what lets the open loop keep its schedule.
//!
//! * **Closed loop** — the FIFO's capacity *is* the in-flight window: the
//!   sender blocks on it once `in_flight` requests are unanswered. Latency
//!   runs from just before the request frame is written.
//! * **Open loop** — request `n` is due at `start + n / rate`, whatever the
//!   server does. The sender sleeps only when it is ahead of the schedule and
//!   sends back-to-back when behind; latency runs from the *due* time, so a
//!   stall is charged to every request it delayed, and how late the sends
//!   themselves ran is reported next to it.

use crate::stats::Outcomes;
use gputx_client::{Client, Reply, TxnResult};
use gputx_storage::Value;
use gputx_txn::TxnTypeId;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

/// A generated transaction: its type and parameters.
pub type Txn = (TxnTypeId, Vec<Value>);

/// One connection's pre-drawn transactions, cycled for as long as the run
/// lasts.
pub type Stream = Vec<Txn>;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// At most `in_flight` unanswered requests per connection.
    Closed { in_flight: usize },
    /// `per_conn_rate` submits per second per connection with `no_wait`, on
    /// absolute due times.
    Open { per_conn_rate: f64 },
}

/// The open loop's bound on unanswered requests: far above anything a
/// healthy run reaches, so hitting it shows up as lateness, not as a hang.
const OPEN_LOOP_BACKLOG: usize = 1 << 16;

/// Warm-up, then `windows` timed windows back to back.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub warmup: Duration,
    pub window: Duration,
    pub windows: usize,
}

impl Schedule {
    /// Start of window `k`; `boundary(windows)` is the end of the run.
    pub fn boundary(&self, k: usize) -> Instant {
        self.start + self.warmup + self.window * k as u32
    }

    pub fn end(&self) -> Instant {
        self.boundary(self.windows)
    }

    /// Sleep to each boundary in turn and call `f(k)` there: the start of
    /// window `k`, and with `k == windows` the end of the last one.
    pub fn at_each_boundary(&self, mut f: impl FnMut(usize)) {
        for k in 0..=self.windows {
            if let Some(wait) = self.boundary(k).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            f(k);
        }
    }

    /// The timed window `t` falls into, if any (warm-up and drain do not).
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let since = t.checked_duration_since(self.boundary(0))?;
        let k = (since.as_nanos() / self.window.as_nanos().max(1)) as usize;
        (k < self.windows).then_some(k)
    }
}

/// Latencies are kept as `u32` counts of 100 ns (429 s of range) so a whole
/// run's samples fit a buffer small enough to touch before the run starts.
const TICK_NANOS: u128 = 100;

fn to_ticks(d: Duration) -> u32 {
    (d.as_nanos() / TICK_NANOS).min(u32::MAX as u128) as u32
}

pub fn ticks_to_ms(ticks: u32) -> f64 {
    ticks as f64 * TICK_NANOS as f64 / 1e6
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct ConnResult {
    pub outcomes: Outcomes,
    /// Latency of every executed reply that resolved inside a timed window,
    /// in completion order — so window `k`'s samples are the contiguous run
    /// of `executed_in_window[k]` entries after those of windows `..k`.
    pub latency_ticks: Vec<u32>,
    pub executed_in_window: Vec<u64>,
    /// Commits inside timed windows, by transaction type.
    pub committed_by_type: Vec<u64>,
    /// Open loop only: how far behind its due time each send inside a timed
    /// window ran.
    pub late_ticks: Vec<u32>,
    pub unmatched_responses: u64,
}

/// A sample buffer with `capacity` entries whose pages are already resident,
/// so filling it during the run adds nothing to the process's RSS.
pub fn touched_buffer(capacity: usize) -> Vec<u32> {
    let mut buf = Vec::with_capacity(capacity);
    buf.resize(capacity, 1);
    buf.clear();
    buf
}

/// Drive every connection through `schedule` and return what each saw.
/// `on_boundary(k)` runs on the calling thread at the start of window `k`
/// and, with `k == windows`, at the end of the last one.
pub fn drive(
    clients: &[Client],
    streams: &[Stream],
    type_count: usize,
    pacing: Pacing,
    schedule: &Schedule,
    buffers: Vec<Vec<u32>>,
    on_boundary: &mut dyn FnMut(usize),
) -> Vec<ConnResult> {
    assert_eq!(clients.len(), streams.len());
    assert_eq!(clients.len(), buffers.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter()
            .zip(streams)
            .zip(buffers)
            .map(|((client, stream), buffer)| {
                scope.spawn(move || {
                    drive_connection(client, stream, type_count, pacing, schedule, buffer)
                })
            })
            .collect();
        schedule.at_each_boundary(on_boundary);
        workers
            .into_iter()
            .map(|w| w.join().expect("load worker panicked"))
            .collect()
    })
}

fn drive_connection(
    client: &Client,
    stream: &Stream,
    type_count: usize,
    pacing: Pacing,
    schedule: &Schedule,
    buffer: Vec<u32>,
) -> ConnResult {
    // In flight = queued here + the one the collector waits on + the one the
    // sender has written but not yet queued.
    let fifo = match pacing {
        Pacing::Closed { in_flight } => in_flight.saturating_sub(2).max(1),
        Pacing::Open { .. } => OPEN_LOOP_BACKLOG,
    };
    let (tx, rx) = sync_channel::<(Reply, Instant, TxnTypeId)>(fifo);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut seen = ConnResult {
                latency_ticks: buffer,
                executed_in_window: vec![0; schedule.windows],
                committed_by_type: vec![0; type_count],
                ..ConnResult::default()
            };
            for (reply, from, ty) in rx {
                let result = reply.wait();
                let now = Instant::now();
                let committed = match result {
                    Ok(TxnResult::Committed(_)) => {
                        seen.outcomes.committed += 1;
                        true
                    }
                    Ok(TxnResult::Aborted(_)) => {
                        seen.outcomes.aborted += 1;
                        false
                    }
                    Ok(TxnResult::QueueFull) => {
                        seen.outcomes.queue_full += 1;
                        continue;
                    }
                    Ok(TxnResult::BulkFailed(_)) => {
                        seen.outcomes.bulk_failed += 1;
                        continue;
                    }
                    Ok(TxnResult::Disconnected) => {
                        seen.outcomes.disconnected += 1;
                        continue;
                    }
                    // A submit is never answered with Pong or Health.
                    Ok(TxnResult::Pong) | Ok(TxnResult::Health(_)) | Err(_) => {
                        seen.outcomes.transport_errors += 1;
                        continue;
                    }
                };
                if let Some(k) = schedule.window_of(now) {
                    seen.latency_ticks
                        .push(to_ticks(now.saturating_duration_since(from)));
                    seen.executed_in_window[k] += 1;
                    if committed {
                        seen.committed_by_type[ty as usize] += 1;
                    }
                }
            }
            seen
        });

        let end = schedule.end();
        let mut submitted = 0u64;
        let mut write_errors = 0u64;
        let mut late_ticks = Vec::new();
        let mut cycle = stream.iter().cycle();
        // Write the next request, timed from `from`, and queue its reply.
        // False once the connection is gone and nothing further can succeed.
        let mut submit = |from: Instant, no_wait: bool| {
            let (ty, params) = cycle.next().expect("streams are never empty");
            submitted += 1;
            let written = if no_wait {
                client.submit_nowait(*ty, params.clone())
            } else {
                client.submit(*ty, params.clone())
            };
            match written {
                Ok(reply) => tx.send((reply, from, *ty)).is_ok(),
                Err(_) => {
                    write_errors += 1;
                    false
                }
            }
        };
        match pacing {
            Pacing::Closed { .. } => loop {
                let from = Instant::now();
                if from >= end || !submit(from, false) {
                    break;
                }
            },
            Pacing::Open { per_conn_rate } => {
                let interval_nanos = 1e9 / per_conn_rate;
                let first_due = Instant::now();
                for n in 0u64.. {
                    let due = first_due + Duration::from_nanos((n as f64 * interval_nanos) as u64);
                    if due >= end {
                        break;
                    }
                    if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(ahead);
                    }
                    if schedule.window_of(due).is_some() {
                        let sent = Instant::now();
                        late_ticks.push(to_ticks(sent.saturating_duration_since(due)));
                    }
                    if !submit(due, true) {
                        break;
                    }
                }
            }
        }
        drop(tx);
        let mut seen = collector.join().expect("collector panicked");
        seen.outcomes.submitted = submitted;
        seen.outcomes.transport_errors += write_errors;
        seen.late_ticks = late_ticks;
        seen.unmatched_responses = client.unmatched_responses();
        seen
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_exclude_warmup_and_drain() {
        let start = Instant::now();
        let s = Schedule {
            start,
            warmup: Duration::from_millis(200),
            window: Duration::from_millis(100),
            windows: 3,
        };
        let at = |ms: u64| start + Duration::from_millis(ms);
        assert_eq!(s.window_of(at(0)), None);
        assert_eq!(s.window_of(at(199)), None);
        assert_eq!(s.window_of(at(200)), Some(0));
        assert_eq!(s.window_of(at(299)), Some(0));
        assert_eq!(s.window_of(at(300)), Some(1));
        assert_eq!(s.window_of(at(499)), Some(2));
        assert_eq!(s.window_of(at(500)), None);
        assert_eq!(s.end(), at(500));
    }

    #[test]
    fn ticks_round_trip_to_milliseconds() {
        assert_eq!(to_ticks(Duration::from_micros(2_500)), 25_000);
        assert!((ticks_to_ms(25_000) - 2.5).abs() < 1e-12);
        assert_eq!(to_ticks(Duration::from_secs(10_000)), u32::MAX);
    }

    #[test]
    fn touched_buffers_start_empty_with_their_capacity() {
        let buf = touched_buffer(1000);
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 1000);
    }
}
