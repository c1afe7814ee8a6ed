//! The benchmark's open-loop load generator.
//!
//! One connection, two threads: a sender that writes each pre-encoded
//! request frame at its due time, and a receiver that reads replies until
//! every request id has been answered once. Latency is timed from the
//! request's *due* time, so a stall in the system or in the generator
//! shows up in the latency of every request queued behind it, and the
//! sender reports how late it ran. The receiver knows how many replies to
//! expect, so it never waits out a read timeout at the end of a window.

use net::wire::{self, ReadFrame};
use net::{ErrorCode, Request, Response};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long the receiver waits for the next reply before it counts the
/// rest as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// What one open-loop window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Requests offered.
    pub attempted: u64,
    /// Latencies in microseconds of the non-degraded `Hits` replies.
    pub ok_latency_us: Vec<f64>,
    /// Replies that were `Overloaded` errors.
    pub shed: u64,
    /// Replies that were other errors.
    pub errors: u64,
    /// `Hits` replies marked degraded (deadline passed).
    pub degraded: u64,
    /// Requests that never got a reply.
    pub lost: u64,
    /// Replies whose id was unknown or already answered.
    pub duplicate: u64,
    /// How late each send was, in milliseconds, in send order.
    pub lag_ms: Vec<f64>,
    /// Reply frame bytes (length prefix included), summed.
    pub response_bytes: u64,
    /// Replies to the requests listed in `keep`, by request index.
    pub kept: Vec<(usize, Response)>,
    /// From the first due time to the last reply.
    pub elapsed: Duration,
}

impl Window {
    /// Requests that did not get a correct, on-time answer.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.degraded + self.lost + self.duplicate
    }

    /// True when every request got exactly one reply.
    pub fn transport_ok(&self) -> bool {
        self.lost == 0 && self.duplicate == 0
    }

    /// Mean send lag over the last quarter of the window, in ms: a
    /// generator that keeps up stays near zero here.
    pub fn tail_lag_ms(&self) -> f64 {
        let tail = &self.lag_ms[self.lag_ms.len() * 3 / 4..];
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// Offers `requests` to the server at `addr` at `rate` per second,
/// open loop, and keeps the replies of the request indices in `keep`
/// (sorted ascending).
pub fn run(addr: SocketAddr, requests: &[Request], rate: f64, keep: &[usize]) -> Window {
    assert!(rate > 0.0 && !requests.is_empty());
    // Request ids are 1-based indices into `requests`.
    let frames: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| wire::encode_request(i as u64 + 1, 0, r))
        .collect();
    let stream = TcpStream::connect(addr).expect("connect to the benchmark server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .expect("set read timeout");
    let mut writer = stream.try_clone().expect("clone the client socket");
    let period = Duration::from_secs_f64(1.0 / rate);
    let n = frames.len();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + period * i as u32;
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lag_ms = Vec::with_capacity(n);
            for (i, frame) in frames.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                if writer.write_all(frame).is_err() {
                    break;
                }
            }
            lag_ms
        });
        let mut w = Window {
            attempted: n as u64,
            ok_latency_us: Vec::with_capacity(n),
            ..Window::default()
        };
        let mut answered = vec![false; n];
        let mut reader = BufReader::new(&stream);
        let mut got = 0usize;
        let mut last = start;
        while got < n {
            let body = match wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME) {
                Ok(ReadFrame::Frame(body)) => body,
                Ok(ReadFrame::Eof) | Err(_) => break,
            };
            last = Instant::now();
            w.response_bytes += body.len() as u64 + 4;
            let Ok((id, _, resp)) = wire::decode_response(&body) else {
                w.errors += 1;
                continue;
            };
            let idx = id.wrapping_sub(1) as usize;
            if idx >= n || answered[idx] {
                w.duplicate += 1;
                continue;
            }
            answered[idx] = true;
            got += 1;
            match &resp {
                Response::Hits { degraded: true, .. } => w.degraded += 1,
                Response::Hits { .. } => w
                    .ok_latency_us
                    .push(last.saturating_duration_since(due(idx)).as_secs_f64() * 1e6),
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                } => w.shed += 1,
                _ => w.errors += 1,
            }
            if keep.binary_search(&idx).is_ok() {
                w.kept.push((idx, resp));
            }
        }
        w.lost = (n - got) as u64;
        // Unblocks a sender stuck in a write if the server went away.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        w.lag_ms = sender.join().expect("load generator sender panicked");
        w.elapsed = last.saturating_duration_since(start);
        w
    })
}
