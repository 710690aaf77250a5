//! The load generator: an open loop over one raw binary-codec connection, and closed
//! loops over [`GemClient`]s. At most two threads and two client connections are ever
//! active.
//!
//! The open loop runs on a single thread: it writes each request when its
//! scheduled time comes and, in between, reads responses with a timeout that ends at
//! the next due time, so a slow response never delays the next send. Its requests are
//! timed from their *intended* send time ([`Timing`]).

use crate::stats::Timing;
use gem_numeric::Matrix;
use gem_proto::binary::{self, EmbedPartials, FrameAssembler};
use gem_proto::{RequestBody, RequestEnvelope, ResponseBody, ResponseEnvelope};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A binary-codec connection driven directly with the `gem-proto` frame functions.
pub struct WireConn {
    stream: TcpStream,
    assembler: FrameAssembler,
    partials: EmbedPartials,
    buf: Vec<u8>,
}

impl WireConn {
    pub fn connect(addr: &str) -> Result<WireConn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .write_all(binary::hello_line().as_bytes())
            .map_err(|e| e.to_string())?;
        // Byte by byte: nothing after the accept line may be consumed here.
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while byte[0] != b'\n' {
            stream
                .read_exact(&mut byte)
                .map_err(|e| format!("hello: {e}"))?;
            line.push(byte[0]);
        }
        let line = String::from_utf8_lossy(&line);
        if binary::parse_accept(&line).is_none() {
            return Err(format!("{addr} declined the binary codec: {line}"));
        }
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(WireConn {
            stream,
            assembler: FrameAssembler::new(),
            partials: EmbedPartials::new(),
            buf: vec![0u8; 256 * 1024],
        })
    }

    pub fn send(&mut self, id: u64, body: RequestBody) -> Result<(), String> {
        let envelope = RequestEnvelope::new(id, body);
        let frames = binary::encode_request_frames(&envelope, binary::DEFAULT_CHUNK_BYTES)
            .map_err(|e| e.to_string())?;
        for frame in &frames {
            write_all_nonblocking(&mut self.stream, frame)?;
        }
        Ok(())
    }

    /// Read whatever arrives within `timeout` and return the responses it completed.
    pub fn poll(&mut self, timeout: Duration) -> Result<Vec<ResponseEnvelope>, String> {
        let mut done = Vec::new();
        if wait_readable(&self.stream, timeout)? {
            loop {
                match self.stream.read(&mut self.buf) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => self.assembler.push(&self.buf[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e.to_string()),
                }
            }
        }
        self.drain(&mut done)?;
        Ok(done)
    }

    fn drain(&mut self, done: &mut Vec<ResponseEnvelope>) -> Result<(), String> {
        while let Some(frame) = self.assembler.next_frame().map_err(|e| e.to_string())? {
            if let Some(envelope) = binary::decode_response_frame(&frame, &mut self.partials)
                .map_err(|e| e.to_string())?
            {
                done.push(envelope);
            }
        }
        Ok(())
    }
}

/// `write_all` on a non-blocking socket: wait for room whenever the send buffer is
/// full.
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("connection closed while sending".to_string()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    Ok(())
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Let this thread (and threads it starts later) wake from timed waits within 1 µs
/// of the deadline instead of the default 50 µs slack, so sends leave on time.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Block until `stream` is readable or `timeout` passes. `ppoll` rather than a socket
/// read timeout: socket timeouts round up to the scheduler tick (milliseconds), which
/// would make the generator miss its send times by that much.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> Result<bool, String> {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let spec = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd and a valid timespec, both outliving the call; a null
    // signal mask leaves the mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &spec, std::ptr::null()) };
    if ready < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e.to_string())
        };
    }
    Ok(ready > 0)
}

/// How one request ended.
#[derive(Debug)]
pub enum Answer {
    Embedded(Matrix),
    /// A typed error, a wrong body, a transport failure or no answer in time.
    Failed(String),
}

/// One open-loop request's record.
#[derive(Debug)]
pub struct Sent {
    pub index: usize,
    pub timing: Timing,
    pub answer: Answer,
}

/// Generator health of one open-loop run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Health {
    pub scheduled: usize,
    pub sent: usize,
}

/// Drive `scheduled` (intended send offsets from `epoch`, ascending) open loop over
/// `conn`. `body(i)` builds request `i` at send time. Requests still unanswered
/// `drain` after the last send are recorded as failed.
pub fn open_loop(
    conn: &mut WireConn,
    epoch: Instant,
    scheduled: &[u64],
    mut body: impl FnMut(usize) -> RequestBody,
    drain: Duration,
    observe: &mut dyn FnMut(usize, Timing),
) -> (Vec<Sent>, Health) {
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let mut records: Vec<Option<Sent>> = (0..scheduled.len()).map(|_| None).collect();
    let mut in_flight: HashMap<u64, (usize, u64)> = HashMap::new();
    let mut next = 0;
    let mut failure: Option<String> = None;
    let last_due = scheduled.last().copied().unwrap_or(0);
    let give_up = last_due + drain.as_nanos() as u64;
    loop {
        let now = now_ns();
        if next < scheduled.len() && now >= scheduled[next] && failure.is_none() {
            let id = next as u64 + 1;
            let sent_ns = now_ns();
            match conn.send(id, body(next)) {
                Ok(()) => {
                    in_flight.insert(id, (next, sent_ns));
                }
                Err(e) => failure = Some(e),
            }
            next += 1;
            continue;
        }
        if (next == scheduled.len() || failure.is_some()) && in_flight.is_empty() {
            break;
        }
        if now >= give_up || failure.is_some() {
            break;
        }
        let until = if next < scheduled.len() {
            scheduled[next]
        } else {
            give_up
        };
        let wait = Duration::from_nanos(until.saturating_sub(now)).min(Duration::from_millis(20));
        match conn.poll(wait) {
            Ok(responses) => {
                let done_ns = now_ns();
                for envelope in responses {
                    let Some((index, sent_ns)) =
                        envelope.in_reply_to.and_then(|id| in_flight.remove(&id))
                    else {
                        continue;
                    };
                    let timing = Timing {
                        intended_ns: scheduled[index],
                        sent_ns,
                        done_ns,
                    };
                    observe(index, timing);
                    records[index] = Some(Sent {
                        index,
                        timing,
                        answer: answer_of(envelope.body),
                    });
                }
            }
            Err(e) => failure = Some(e),
        }
    }
    let reason = failure.unwrap_or_else(|| "no response before the drain deadline".to_string());
    for (_, (index, sent_ns)) in in_flight {
        records[index] = Some(Sent {
            index,
            timing: Timing {
                intended_ns: scheduled[index],
                sent_ns,
                done_ns: now_ns(),
            },
            answer: Answer::Failed(reason.clone()),
        });
    }
    let health = Health {
        scheduled: scheduled.len(),
        sent: next,
    };
    (records.into_iter().flatten().collect(), health)
}

fn answer_of(body: ResponseBody) -> Answer {
    match body {
        ResponseBody::Embedded { matrix, .. } => Answer::Embedded(matrix),
        ResponseBody::Error { code, message, .. } => Answer::Failed(format!("{code}: {message}")),
        _ => Answer::Failed("unexpected response body".to_string()),
    }
}

/// Evenly spaced send offsets (ns) at `rate` per second over `seconds`, starting
/// `start_ns` after the epoch.
pub fn fixed_rate_schedule(rate: f64, seconds: f64, start_ns: u64) -> Vec<u64> {
    let n = (rate * seconds).round() as usize;
    let gap = 1e9 / rate;
    (0..n).map(|i| start_ns + (i as f64 * gap) as u64).collect()
}
